(** An immutable DNA strand, stored 2-bit packed.

    Bases live as 0..3 codes packed 16 to a word in a flat int array
    (shift/mask index math — no division — with the top bits of every
    word clear), plus a base offset and length, so [sub] is an O(1)
    zero-copy view into the parent's words: primer stripping and
    trimming allocate a small view record, never a copy of the bases.
    Alongside the packed words, every strand carries a lazily-built
    cache of per-base 63-bit match masks — the [Eq] vectors of Myers'
    bit-parallel edit-distance kernels — derived directly from the
    packed words on first use and then reused across every pairwise
    comparison the strand participates in.

    Aliasing rule: the packed words are write-once — every constructor
    here (and the arena builder in {!Strand_pool}) only ever sets bits
    inside a region exactly once before publishing a view of it, so a
    view's bases never change even when later reads are packed into the
    unused bits of its last shared word. A view keeps its whole
    underlying buffer alive; copy with [of_string (to_string t)] (or
    {!Strand_pool.add_strand}) to detach a small slice from a large
    arena. The representation is private to this module; all
    construction goes through validating or generating functions. *)

type t = {
  words : int array;  (* 2-bit base codes, [bases_per_word] per word *)
  off : int;  (* index (in bases) of this strand's first base *)
  len : int;
  masks : int array Atomic.t;
      (* Eq-mask cache for the bit-parallel distance kernels; [||] until
         built. Publication goes through the Atomic so a strand shared
         across domains never observes a half-built array — the worst a
         race can cost is building the same masks twice. *)
}

let mask_bits = 63 (* bits per mask word: OCaml's native int width *)

let bases_per_word = 16
(* log2 bases_per_word, for shift-based index math. *)
let bpw_shift = 4
let bpw_mask = bases_per_word - 1

let words_for n = (n + bases_per_word - 1) lsr bpw_shift

let wrap words off len = { words; off; len; masks = Atomic.make [||] }

let unsafe_of_packed words ~off ~len = wrap words off len

let length t = t.len

let empty = wrap [||] 0 0

(* Absolute base index [j] of [words]; no bounds check. *)
let[@inline] code_at (words : int array) j =
  (Array.unsafe_get words (j lsr bpw_shift) lsr ((j land bpw_mask) * 2)) land 3

(* OR code [c] into absolute base slot [j]; the slot's bits must be 0. *)
let[@inline] poke (words : int array) j c =
  let w = j lsr bpw_shift in
  Array.unsafe_set words w (Array.unsafe_get words w lor (c lsl ((j land bpw_mask) * 2)))

let unsafe_get_code t i = code_at t.words (t.off + i)

let get_code t i =
  if i < 0 || i >= t.len then invalid_arg "Strand.get_code";
  unsafe_get_code t i

(* One packed word read per 16 bases, codes peeled off 2 bits at a
   time: the kernels' per-call fill, in place of one [unsafe_get_code]
   call per base (calls across modules are not inlined under [-opaque]). *)
let blit_codes t (dst : int array) =
  if Array.length dst < t.len then invalid_arg "Strand.blit_codes";
  let i = ref 0 and j = ref t.off in
  while !i < t.len do
    let sh = !j land bpw_mask in
    let n = min (bases_per_word - sh) (t.len - !i) in
    let w = ref (Array.unsafe_get t.words (!j lsr bpw_shift) lsr (sh * 2)) in
    for k = !i to !i + n - 1 do
      Array.unsafe_set dst k (!w land 3);
      w := !w lsr 2
    done;
    i := !i + n;
    j := !j + n
  done

let get t i = Nucleotide.of_code (get_code t i)

let char_of_code = [| 'A'; 'C'; 'G'; 'T' |]

let code_of_char c =
  match c with
  | 'A' -> 0
  | 'C' -> 1
  | 'G' -> 2
  | 'T' -> 3
  | _ -> invalid_arg "Strand.code_of_char"

let of_string s =
  let n = String.length s in
  let words = Array.make (words_for n) 0 in
  for i = 0 to n - 1 do
    let c =
      match String.unsafe_get s i with
      | 'A' -> 0
      | 'C' -> 1
      | 'G' -> 2
      | 'T' -> 3
      | c -> invalid_arg (Printf.sprintf "Strand.of_string: invalid base %C" c)
    in
    poke words i c
  done;
  wrap words 0 n

let of_string_opt s =
  match of_string s with t -> Some t | exception Invalid_argument _ -> None

let to_string t =
  String.init t.len (fun i -> Array.unsafe_get char_of_code (unsafe_get_code t i))

(* Eq masks are derived straight from the packed words: one word read
   per 16 bases, codes peeled off 2 bits at a time — no byte decode. *)
let build_masks t =
  let len = t.len in
  let words = (len + mask_bits - 1) / mask_bits in
  let m = Array.make (4 * words) 0 in
  let w = ref 0 and bit = ref 0 in
  let j = ref t.off in
  let cur = ref (if len > 0 then t.words.(!j lsr bpw_shift) lsr ((!j land bpw_mask) * 2) else 0) in
  for _ = 0 to len - 1 do
    let c = !cur land 3 in
    m.((c * words) + !w) <- m.((c * words) + !w) lor (1 lsl !bit);
    incr bit;
    if !bit = mask_bits then begin
      bit := 0;
      incr w
    end;
    incr j;
    if !j land bpw_mask = 0 then
      (if !j lsr bpw_shift < Array.length t.words then cur := t.words.(!j lsr bpw_shift))
    else cur := !cur lsr 2
  done;
  m

let eq_masks t =
  let m = Atomic.get t.masks in
  if Array.length m > 0 || t.len = 0 then m
  else begin
    let m = build_masks t in
    Atomic.set t.masks m;
    m
  end

let init_codes n f =
  let words = Array.make (words_for n) 0 in
  for i = 0 to n - 1 do
    let c = f i in
    if c < 0 || c > 3 then invalid_arg "Strand.init_codes: code out of range";
    poke words i c
  done;
  wrap words 0 n

let init n f = init_codes n (fun i -> Nucleotide.to_code (f i))
let make n b = init_codes n (fun _ -> Nucleotide.to_code b)
let of_codes codes = init_codes (Array.length codes) (fun i -> codes.(i))
let to_codes t = Array.init t.len (fun i -> unsafe_get_code t i)

let of_nucleotides l =
  let arr = Array.of_list l in
  init_codes (Array.length arr) (fun i -> Nucleotide.to_code arr.(i))

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.len - len then invalid_arg "Strand.sub";
  if len = 0 then empty else wrap t.words (t.off + pos) len

(* Append [len] bases starting at absolute base [soff] of [src] into
   [dst] at absolute base [dpos]; the destination bits must be 0. Whole
   words are copied directly when both sides sit on a word boundary. *)
let blit_packed (src : int array) soff (dst : int array) dpos len =
  if len > 0 then
    if soff land bpw_mask = 0 && dpos land bpw_mask = 0 then begin
      let full = len lsr bpw_shift in
      Array.blit src (soff lsr bpw_shift) dst (dpos lsr bpw_shift) full;
      let rem = len land bpw_mask in
      if rem > 0 then begin
        let tail = src.((soff lsr bpw_shift) + full) land ((1 lsl (2 * rem)) - 1) in
        dst.((dpos lsr bpw_shift) + full) <- dst.((dpos lsr bpw_shift) + full) lor tail
      end
    end
    else
      for k = 0 to len - 1 do
        poke dst (dpos + k) (code_at src (soff + k))
      done

(* The aligned blit above copies whole source words, which may carry
   neighbors' bits past [len] in the final word; mask them off there, so
   the write-once invariant (only this strand's bits set) holds. The
   tail masking inside blit_packed already guarantees it. *)

let concat ts =
  match ts with
  | [] -> empty
  | [ t ] -> t (* immutable: sharing is free *)
  | ts ->
      let total = List.fold_left (fun acc t -> acc + t.len) 0 ts in
      if total = 0 then empty
      else begin
        let words = Array.make (words_for total) 0 in
        let pos = ref 0 in
        List.iter
          (fun t ->
            blit_packed t.words t.off words !pos t.len;
            pos := !pos + t.len)
          ts;
        wrap words 0 total
      end

let append a b =
  (* Empty-operand fast paths: strands are immutable, share directly. *)
  if a.len = 0 then b
  else if b.len = 0 then a
  else begin
    let words = Array.make (words_for (a.len + b.len)) 0 in
    blit_packed a.words a.off words 0 a.len;
    blit_packed b.words b.off words a.len b.len;
    wrap words 0 (a.len + b.len)
  end

let rev t =
  let n = t.len in
  let words = Array.make (words_for n) 0 in
  for i = 0 to n - 1 do
    poke words i (code_at t.words (t.off + n - 1 - i))
  done;
  wrap words 0 n

(* Complement is code xor 3 (A<->T, C<->G). *)
let complement t =
  let n = t.len in
  let words = Array.make (words_for n) 0 in
  for i = 0 to n - 1 do
    poke words i (code_at t.words (t.off + i) lxor 3)
  done;
  wrap words 0 n

let reverse_complement t =
  let n = t.len in
  let words = Array.make (words_for n) 0 in
  for i = 0 to n - 1 do
    poke words i (code_at t.words (t.off + n - 1 - i) lxor 3)
  done;
  wrap words 0 n

let equal a b =
  a.len = b.len
  && (a.words == b.words && a.off = b.off
     ||
     let rec eq i =
       i >= a.len || (code_at a.words (a.off + i) = code_at b.words (b.off + i) && eq (i + 1))
     in
     eq 0)

(* Lexicographic by base code (the code order matches the A<C<G<T char
   order the byte-backed representation compared by), then by length. *)
let compare a b =
  let n = min a.len b.len in
  let rec go i =
    if i >= n then Stdlib.compare a.len b.len
    else begin
      let ca = code_at a.words (a.off + i) and cb = code_at b.words (b.off + i) in
      if ca <> cb then Stdlib.compare ca cb else go (i + 1)
    end
  in
  go 0

let hash t =
  let h = ref (t.len * 1000003) in
  for i = 0 to t.len - 1 do
    h := (!h * 131) + code_at t.words (t.off + i)
  done;
  !h land max_int

let iter f t =
  for i = 0 to t.len - 1 do
    f (Nucleotide.of_code (unsafe_get_code t i))
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Nucleotide.of_code (unsafe_get_code t i))
  done;
  !acc

let count t b =
  let c = Nucleotide.to_code b in
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if unsafe_get_code t i = c then incr n
  done;
  !n

(* Fraction of G and C bases; balanced GC-content aids synthesis. *)
let gc_content t =
  if t.len = 0 then 0.0
  else begin
    let gc = ref 0 in
    for i = 0 to t.len - 1 do
      let c = unsafe_get_code t i in
      if c = 1 || c = 2 then incr gc
    done;
    float_of_int !gc /. float_of_int t.len
  end

(* Length of the longest run of one repeated base. *)
let max_homopolymer t =
  let n = t.len in
  if n = 0 then 0
  else begin
    let best = ref 1 and run = ref 1 in
    for i = 1 to n - 1 do
      if unsafe_get_code t i = unsafe_get_code t (i - 1) then begin
        incr run;
        if !run > !best then best := !run
      end
      else run := 1
    done;
    !best
  end

let random rng n = init_codes n (fun _ -> Rng.int rng 4)

(* Bases per rolling key: 31 2-bit codes fill 62 bits of a native int. *)
let key_bases = 31

(* First occurrence of [pattern] in [t] at or after [from], in one
   allocation-free left-to-right scan: a 2-bit-per-base key of the last
   [k = min m key_bases] text bases rolls along the text and is compared
   with the key of the pattern's first [k] bases; only on a key hit are
   the remaining [m - k] pattern bases checked. *)
let find ?(from = 0) t ~pattern =
  let n = t.len and m = pattern.len in
  if m = 0 then Some from
  else begin
    let k = min m key_bases in
    let kmask = (1 lsl (2 * k)) - 1 in
    let pkey = ref 0 in
    for r = 0 to k - 1 do
      pkey := (!pkey lsl 2) lor code_at pattern.words (pattern.off + r)
    done;
    let pkey = !pkey in
    let start = max 0 from in
    (* Window [i, i + k) is complete once text base [j = i + k - 1] is
       rolled in; the last start that fits the whole pattern is [n - m]. *)
    let last = n - m + k - 1 in
    let key = ref 0 and j = ref start and found = ref (-1) in
    while !found < 0 && !j <= last do
      key := ((!key lsl 2) lor code_at t.words (t.off + !j)) land kmask;
      let i = !j - k + 1 in
      if i >= start && !key = pkey then begin
        let r = ref k in
        while
          !r < m && code_at t.words (t.off + i + !r) = code_at pattern.words (pattern.off + !r)
        do
          incr r
        done;
        if !r = m then found := i
      end;
      incr j
    done;
    if !found < 0 then None else Some !found
  end

let contains t ~pattern = Option.is_some (find t ~pattern)

let pp fmt t = Format.pp_print_string fmt (to_string t)
