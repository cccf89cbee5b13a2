(** Needleman-Wunsch global pairwise alignment with traceback.

    Used in two places: to derive edit scripts between paired clean/noisy
    strands when training the data-driven simulators, and as the pairwise
    kernel of the trace-reconstruction consensus (every read of a cluster
    is aligned against the evolving reference). Unit costs (match 0,
    mismatch/gap 1) make the optimal score equal to the edit distance.

    The kernel is Myers' bit-vector recurrence with Hyyrö's blocking (as
    in Edlib): one pass over ceil(la/63) words per column of [b] that
    records every column's horizontal and vertical delta words; the
    traceback then reads each neighbor's value off those bits. The deltas
    encode the full matrix exactly, so the traceback makes the same
    greedy choices as the classic O(la*lb) matrix's and the script is
    bit-identical to it by construction — no band, no fallback. That
    full-matrix kernel is kept as [align_reference], the oracle tests
    hold [align] equal to and the baseline benchmarks time it against.

    The kernel runs over flat scratch arrays drawn from a per-domain
    arena (domain-local storage), so hot consensus loops — and the
    [Par.map_array] reconstruction workers — never reallocate alignment
    state between calls: no per-call garbage beyond the returned
    script. *)

type op =
  | Match of Nucleotide.t
  | Substitute of Nucleotide.t * Nucleotide.t  (** original base, read base *)
  | Delete of Nucleotide.t  (** base of [a] missing from [b] *)
  | Insert of Nucleotide.t  (** base of [b] absent from [a] *)

type t = {
  score : int;  (** total edit cost *)
  script : op list;  (** operations transforming [a] into [b], left to right *)
}

(* Gap character used in the padded rendering of an alignment. *)
let gap_char = '-'

(* ---------- Per-domain scratch arena ---------- *)

(* One arena per domain: the kernel's delta words, both strands'
   integer codes and the packed script. Buffers only grow; a
   reconstruction worker aligning thousands of reads against references
   of similar length reuses the same arrays for its whole lifetime.
   Arrays handed out here must never escape a call. *)
type scratch = {
  mutable deltas : int array;
  mutable codes_a : int array;
  mutable codes_b : int array;
  mutable ops : int array;
  mutable last_a : Strand.t;
      (* the strand whose codes currently sit in [codes_a]: consensus
         rounds align one reference against every read, so the reference
         fill is skipped on all but the first alignment of a round.
         Physical equality implies equal contents (strands are
         immutable), so a hit can never serve stale codes. *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        deltas = [||];
        codes_a = [||];
        codes_b = [||];
        ops = [||];
        last_a = Strand.empty;
      })

(* Capacity held by the calling domain's alignment arena, in array
   slots — lets allocation accounting (and tests) see that repeated
   aligns reuse buffers instead of growing them. *)
let scratch_capacity_words () =
  let s = Domain.DLS.get scratch_key in
  Array.length s.deltas + Array.length s.codes_a + Array.length s.codes_b + Array.length s.ops

let ensure arr n = if Array.length arr >= n then arr else Array.make (max n (2 * Array.length arr)) 0

let fill_codes dst s len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst i (Strand.unsafe_get_code s i)
  done

(* ---------- Packed scripts ---------- *)

(* The tracebacks emit ops as packed ints into the arena's [ops] buffer:
   [(kind lsl 4) lor (xa lsl 2) lor xb], kinds 0=match, 1=substitute,
   2=delete, 3=insert (the diagonal kinds are exactly the move's cost).
   Hot consumers (the consensus profile) read the ints directly and
   never pay for an [op list]; the public {!align} decodes the buffer
   into the usual constructors in one pass. *)
type packed = {
  packed_score : int;
  ops : int array;
  off : int;  (** first op *)
  lim : int;  (** one past the last op *)
}

let packed_kind e = e lsr 4

let packed_a e = (e lsr 2) land 3

let packed_b e = e land 3

let op_of_packed e =
  match e lsr 4 with
  | 0 -> Match Nucleotide.all.(e land 3)
  | 1 -> Substitute (Nucleotide.all.((e lsr 2) land 3), Nucleotide.all.(e land 3))
  | 2 -> Delete Nucleotide.all.((e lsr 2) land 3)
  | _ -> Insert Nucleotide.all.(e land 3)

let script_of_packed p =
  let script = ref [] in
  for k = p.lim - 1 downto p.off do
    script := op_of_packed (Array.unsafe_get p.ops k) :: !script
  done;
  !script

(* ---------- Traceback ---------- *)

(* Both tracebacks are iterative (no recursion: 300nt+ strands stay off
   the call stack) and greedy with the same preference order: diagonal
   when D[i-1][j-1] + cost = D[i][j], else delete when
   D[i-1][j] + 1 = D[i][j], else insert — diagonal first keeps scripts
   maximally aligned (fewer spurious indel pairs). The walk runs
   corner-to-origin, writing packed ops back-to-front from index
   [la + lb] (the longest possible script), so the finished script
   reads forward from the returned offset. Codes come from the prefilled
   arrays rather than per-step bounds-checked [Strand.get]. *)

(* Once the walk reaches row 0 or column 0 only gaps remain. *)
let gap_tail ca cb i j k ops =
  let k = ref k in
  for i = i downto 1 do
    decr k;
    Array.unsafe_set ops !k ((2 lsl 4) lor (Array.unsafe_get ca (i - 1) lsl 2))
  done;
  for j = j downto 1 do
    decr k;
    Array.unsafe_set ops !k ((3 lsl 4) lor Array.unsafe_get cb (j - 1))
  done;
  !k

(* Over the full matrix, carrying the cell value in hand from step to
   step (the chosen predecessor's value is always known: [diag] for a
   diagonal move, [here - 1] for a gap) instead of reloading it. *)
let full_traceback cells ca cb la lb ops =
  let stride = lb + 1 in
  let k = ref (la + lb) in
  let i = ref la and j = ref lb in
  let here = ref (Array.unsafe_get cells ((la * stride) + lb)) in
  (* row base of (i - 1), kept incrementally: drops by [stride] on every
     vertical move instead of being remultiplied each step *)
  let prev_r = ref ((la - 1) * stride) in
  while !i > 0 && !j > 0 do
    let prev = !prev_r in
    let xa = Array.unsafe_get ca (!i - 1) and xb = Array.unsafe_get cb (!j - 1) in
    let diag = Array.unsafe_get cells (prev + !j - 1) in
    let cost = if xa = xb then 0 else 1 in
    decr k;
    if diag + cost = !here then begin
      Array.unsafe_set ops !k ((cost lsl 4) lor (xa lsl 2) lor xb);
      here := diag;
      decr i;
      decr j;
      prev_r := prev - stride
    end
    else if Array.unsafe_get cells (prev + !j) + 1 = !here then begin
      Array.unsafe_set ops !k ((2 lsl 4) lor (xa lsl 2));
      here := !here - 1;
      decr i;
      prev_r := prev - stride
    end
    else begin
      Array.unsafe_set ops !k ((3 lsl 4) lor xb);
      here := !here - 1;
      decr j
    end
  done;
  gap_tail ca cb !i !j !k ops

(* ---------- Bit-parallel kernel ---------- *)

let word_bits = Strand.mask_bits

(* Forward pass: the blocked Myers/Hyyrö recurrence of [Distance], with
   [a] as the pattern (row i is bit (i-1) mod 63 of block (i-1) / 63;
   [masks] is [Strand.eq_masks a], [nw] words per base) and [b] as the
   text, one column per base. For column j (0..lb) and block w it keeps
   four words at [4 * (j * nw + w)]:
   - Ph/Mh: the horizontal deltas D[i][j] - D[i][j-1] of the block's
     rows, unshifted (+1 / -1 bits; unused in column 0);
   - Pv/Mv: the vertical deltas D[i][j] - D[i-1][j].
   Column 0 is all +1 vertically (D[i][0] = i). A block's top row takes
   its horizontal delta from the block above, +1 for block 0 (row 0 is
   D[0][j] = j). Rows past [la] in the last block are padding: values
   only flow downward, so they never disturb real rows. Returns
   D[la][lb], threaded along row [la] by its horizontal deltas. *)
let bit_forward deltas masks nw la cb lb =
  for w = 0 to nw - 1 do
    Array.unsafe_set deltas ((4 * w) + 2) (-1);
    Array.unsafe_set deltas ((4 * w) + 3) 0
  done;
  let rbit = (la - 1) mod word_bits and rlast = 4 * (nw - 1) in
  let score = ref la in
  for j = 1 to lb do
    let base = Array.unsafe_get cb (j - 1) * nw in
    let col = 4 * j * nw in
    (* the carried-in horizontal delta as separate +1 / -1 bits *)
    let hp = ref 1 and hm = ref 0 in
    for w = 0 to nw - 1 do
      let o = col + (4 * w) in
      let p = o - (4 * nw) in
      let eq = Array.unsafe_get masks (base + w) in
      let pv = Array.unsafe_get deltas (p + 2) and mv = Array.unsafe_get deltas (p + 3) in
      let eq_in = eq lor !hm in
      let xv = eq lor mv in
      let xh = (((eq_in land pv) + pv) lxor pv) lor eq_in in
      let ph = mv lor lnot (xh lor pv) in
      let mh = pv land xh in
      Array.unsafe_set deltas o ph;
      Array.unsafe_set deltas (o + 1) mh;
      let phs = (ph lsl 1) lor !hp and mhs = (mh lsl 1) lor !hm in
      Array.unsafe_set deltas (o + 2) (mhs lor lnot (xv lor phs));
      Array.unsafe_set deltas (o + 3) (phs land xv);
      hp := ph lsr (word_bits - 1);
      hm := mh lsr (word_bits - 1)
    done;
    let o = col + rlast in
    score :=
      !score
      + ((Array.unsafe_get deltas o lsr rbit) land 1)
      - ((Array.unsafe_get deltas (o + 1) lsr rbit) land 1)
  done;
  !score

(* The greedy walk over the stored deltas: every neighbor's value is the
   full matrix's, read off bits relative to here = D[i][j]:
   left = here - h(i, j), diag = left - v(i, j-1), up = here - v(i, j).
   So the diagonal holds iff h(i, j) + v(i, j-1) = cost, and the delete
   iff v(i, j) = +1 — the value itself is never needed. *)
let bit_traceback deltas nw ca cb la lb ops =
  let k = ref (la + lb) in
  let i = ref la and j = ref lb in
  while !i > 0 && !j > 0 do
    let r = !i - 1 in
    let bit = r mod word_bits in
    let o = 4 * ((!j * nw) + (r / word_bits)) in
    let p = o - (4 * nw) in
    let h =
      ((Array.unsafe_get deltas o lsr bit) land 1)
      - ((Array.unsafe_get deltas (o + 1) lsr bit) land 1)
    in
    let v_left =
      ((Array.unsafe_get deltas (p + 2) lsr bit) land 1)
      - ((Array.unsafe_get deltas (p + 3) lsr bit) land 1)
    in
    let xa = Array.unsafe_get ca r and xb = Array.unsafe_get cb (!j - 1) in
    let cost = if xa = xb then 0 else 1 in
    decr k;
    if h + v_left = cost then begin
      Array.unsafe_set ops !k ((cost lsl 4) lor (xa lsl 2) lor xb);
      decr i;
      decr j
    end
    else if (Array.unsafe_get deltas (o + 2) lsr bit) land 1 = 1 then begin
      Array.unsafe_set ops !k ((2 lsl 4) lor (xa lsl 2));
      decr i
    end
    else begin
      Array.unsafe_set ops !k ((3 lsl 4) lor xb);
      decr j
    end
  done;
  gap_tail ca cb !i !j !k ops

let align_bit (s : scratch) a ca cb la lb =
  let ops = ensure s.ops (la + lb) in
  s.ops <- ops;
  if la = 0 then { packed_score = lb; ops; off = gap_tail ca cb 0 lb lb ops; lim = lb }
  else begin
    let nw = (la + word_bits - 1) / word_bits in
    let deltas = ensure s.deltas (4 * nw * (lb + 1)) in
    s.deltas <- deltas;
    let score = bit_forward deltas (Strand.eq_masks a) nw la cb lb in
    let off = bit_traceback deltas nw ca cb la lb ops in
    { packed_score = score; ops; off; lim = la + lb }
  end

(* ---------- Entry points ---------- *)

let align_packed (a : Strand.t) (b : Strand.t) : packed =
  let la = Strand.length a and lb = Strand.length b in
  let s = Domain.DLS.get scratch_key in
  let ca =
    if s.last_a == a then s.codes_a
    else begin
      let ca = ensure s.codes_a la in
      s.codes_a <- ca;
      fill_codes ca a la;
      s.last_a <- a;
      ca
    end
  in
  let cb = ensure s.codes_b lb in
  s.codes_b <- cb;
  fill_codes cb b lb;
  align_bit s a ca cb la lb

let align (a : Strand.t) (b : Strand.t) : t =
  let p = align_packed a b in
  { score = p.packed_score; script = script_of_packed p }

(* ---------- Full-matrix kernel: oracle and benchmark baseline ---------- *)

(* dp cell (i, j) at [i * (lb + 1) + j]: edit distance between a[0..i)
   and b[0..j). Allocates its own matrix, codes and script on every call:
   it never runs on a hot path, so it stays out of the arena. *)
let align_reference (a : Strand.t) (b : Strand.t) : t =
  let la = Strand.length a and lb = Strand.length b in
  let ca = Array.init la (Strand.unsafe_get_code a) in
  let cb = Array.init lb (Strand.unsafe_get_code b) in
  let stride = lb + 1 in
  let cells = Array.make ((la + 1) * stride) 0 in
  for j = 0 to lb do
    Array.unsafe_set cells j j
  done;
  for i = 1 to la do
    let row = i * stride and prev = (i - 1) * stride in
    Array.unsafe_set cells row i;
    let c = Array.unsafe_get ca (i - 1) in
    for j = 1 to lb do
      let cost = if c = Array.unsafe_get cb (j - 1) then 0 else 1 in
      let d = Array.unsafe_get cells (prev + j - 1) + cost in
      let d =
        let v = Array.unsafe_get cells (row + j - 1) + 1 in
        if v < d then v else d
      in
      let d =
        let v = Array.unsafe_get cells (prev + j) + 1 in
        if v < d then v else d
      in
      Array.unsafe_set cells (row + j) d
    done
  done;
  let ops = Array.make (la + lb) 0 in
  let off = full_traceback cells ca cb la lb ops in
  let score = cells.((la * stride) + lb) in
  { score; script = script_of_packed { packed_score = score; ops; off; lim = la + lb } }

(* Render both strands padded with '-' so that aligned positions line up. *)
let padded t =
  let buf_a = Buffer.create 64 and buf_b = Buffer.create 64 in
  List.iter
    (fun op ->
      match op with
      | Match x ->
          Buffer.add_char buf_a (Nucleotide.to_char x);
          Buffer.add_char buf_b (Nucleotide.to_char x)
      | Substitute (x, y) ->
          Buffer.add_char buf_a (Nucleotide.to_char x);
          Buffer.add_char buf_b (Nucleotide.to_char y)
      | Delete x ->
          Buffer.add_char buf_a (Nucleotide.to_char x);
          Buffer.add_char buf_b gap_char
      | Insert y ->
          Buffer.add_char buf_a gap_char;
          Buffer.add_char buf_b (Nucleotide.to_char y))
    t.script;
  (Buffer.contents buf_a, Buffer.contents buf_b)

(* Apply the script to recover [b] from [a]; sanity check used in tests. *)
let apply_script script =
  let buf = Buffer.create 64 in
  List.iter
    (fun op ->
      match op with
      | Match x -> Buffer.add_char buf (Nucleotide.to_char x)
      | Substitute (_, y) | Insert y -> Buffer.add_char buf (Nucleotide.to_char y)
      | Delete _ -> ())
    script;
  Strand.of_string (Buffer.contents buf)

type op_kind = Kmatch | Ksub | Kdel | Kins

let kind = function
  | Match _ -> Kmatch
  | Substitute _ -> Ksub
  | Delete _ -> Kdel
  | Insert _ -> Kins

(* Counts of each operation kind; the raw material of the learned channel. *)
let counts t =
  List.fold_left
    (fun (m, s, d, i) op ->
      match kind op with
      | Kmatch -> (m + 1, s, d, i)
      | Ksub -> (m, s + 1, d, i)
      | Kdel -> (m, s, d + 1, i)
      | Kins -> (m, s, d, i + 1))
    (0, 0, 0, 0) t.script
