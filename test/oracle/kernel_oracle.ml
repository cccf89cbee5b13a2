(* Scalar reference implementations of the bit-parallel kernels in
   [Dna.Distance], [Dna.Alignment] and [Codec.Primer], kept as their
   oracles and benchmark baselines:

   - [levenshtein] and [levenshtein_leq]: the two-row DP (banded, with a
     row-minimum cutoff, for the bounded one) behind
     [Distance.levenshtein] and [Distance.levenshtein_leq];
   - [align]: the full-matrix Needleman-Wunsch kernel with the greedy
     traceback [Alignment.align] must reproduce, score and script;
   - [locate_prefix] and [locate_suffix]: the semi-global two-row DP
     that defines [Primer.locate_prefix]/[locate_suffix]'s answer,
     including its tie-break.

   The tests hold each production kernel equal to its oracle and the
   benches time the two side by side. Each allocates freely and reads
   bases one at a time; none is on a production path. The library
   depends only on [dna]. *)

(* ---------- Edit distance (two-row DP) ---------- *)

let levenshtein a b =
  let la = Dna.Strand.length a and lb = Dna.Strand.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = ref (Array.init (lb + 1) (fun j -> j)) in
    let cur = ref (Array.make (lb + 1) 0) in
    for i = 1 to la do
      let p = !prev and c = !cur in
      c.(0) <- i;
      let ca = Dna.Strand.unsafe_get_code a (i - 1) in
      for j = 1 to lb do
        let cost = if ca = Dna.Strand.unsafe_get_code b (j - 1) then 0 else 1 in
        c.(j) <- min (min (c.(j - 1) + 1) (p.(j) + 1)) (p.(j - 1) + cost)
      done;
      (* Swap the row refs instead of blitting: the finished row becomes
         [prev] and the stale one is overwritten next iteration. *)
      prev := c;
      cur := p
    done;
    !prev.(lb)
  end

(* [levenshtein_leq ~bound a b] is [Some d] when the edit distance [d]
   is <= bound, [None] otherwise. Runs the DP inside a band of width
   2*bound+1 and abandons a row whose minimum already exceeds the
   bound. *)
let levenshtein_leq ~bound a b =
  let la = Dna.Strand.length a and lb = Dna.Strand.length b in
  if bound < 0 then None
  else if abs (la - lb) > bound then None
  else begin
    let inf = max_int / 2 in
    let prev = ref (Array.make (lb + 1) inf) in
    let cur = ref (Array.make (lb + 1) inf) in
    for j = 0 to min bound lb do
      !prev.(j) <- j
    done;
    let exceeded = ref false in
    let i = ref 1 in
    while (not !exceeded) && !i <= la do
      let p = !prev and c = !cur in
      Array.fill c 0 (lb + 1) inf;
      let lo = max 0 (!i - bound) and hi = min lb (!i + bound) in
      if lo = 0 then c.(0) <- !i;
      let ca = Dna.Strand.unsafe_get_code a (!i - 1) in
      let row_min = ref inf in
      for j = max 1 lo to hi do
        let cost = if ca = Dna.Strand.unsafe_get_code b (j - 1) then 0 else 1 in
        let best = p.(j - 1) + cost in
        let best = if c.(j - 1) + 1 < best then c.(j - 1) + 1 else best in
        let best = if p.(j) + 1 < best then p.(j) + 1 else best in
        c.(j) <- best;
        if best < !row_min then row_min := best
      done;
      if lo = 0 && c.(0) < !row_min then row_min := c.(0);
      if !row_min > bound then exceeded := true;
      prev := c;
      cur := p;
      incr i
    done;
    if !exceeded || !prev.(lb) > bound then None else Some !prev.(lb)
  end

(* ---------- Needleman-Wunsch (full matrix) ---------- *)

(* The traceback is iterative and greedy with [Alignment]'s preference
   order: diagonal when D[i-1][j-1] + cost = D[i][j], else delete when
   D[i-1][j] + 1 = D[i][j], else insert. It writes packed ops (the
   layout [Alignment.script_of_packed] decodes) back-to-front from index
   [la + lb] and returns the offset of the first one. *)

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

(* dp cell (i, j) at [i * (lb + 1) + j]: edit distance between a[0..i)
   and b[0..j). Allocates its own O(la*lb) matrix on every call. *)
let align (a : Dna.Strand.t) (b : Dna.Strand.t) : Dna.Alignment.t =
  let la = Dna.Strand.length a and lb = Dna.Strand.length b in
  let ca = Array.init la (Dna.Strand.unsafe_get_code a) in
  let cb = Array.init lb (Dna.Strand.unsafe_get_code b) in
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
  { score; script = Dna.Alignment.script_of_packed { packed_score = score; ops; off; lim = la + lb } }

(* ---------- Primer location (semi-global two-row DP) ---------- *)

(* Semi-global alignment of the whole [pattern] against a prefix window
   of [read]: returns [(end_position, edits)] for the alignment with the
   fewest edits whose read span starts at position 0..slack, the
   smallest end position among equally good ones. *)
let locate_prefix ~slack ~max_edits pattern (read : Dna.Strand.t) : (int * int) option =
  let m = Dna.Strand.length pattern in
  let window = min (Dna.Strand.length read) (m + slack + max_edits) in
  if window < m - max_edits then None
  else begin
    (* dp.(j): cost of aligning the full prefix of pattern processed so
       far against read[0..j), with free leading gap up to [slack]. *)
    let prev = Array.make (window + 1) 0 in
    let cur = Array.make (window + 1) 0 in
    for j = 0 to window do
      (* Leading read bases may be skipped cheaply up to [slack]. *)
      prev.(j) <- (if j <= slack then 0 else j - slack)
    done;
    for i = 1 to m do
      let pc = Dna.Strand.get_code pattern (i - 1) in
      cur.(0) <- i;
      for j = 1 to window do
        let cost = if pc = Dna.Strand.get_code read (j - 1) then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (window + 1)
    done;
    (* Best end position of the pattern within the window. *)
    let best = ref None in
    for j = 0 to window do
      match !best with
      | Some (_, d) when d <= prev.(j) -> ()
      | _ -> if prev.(j) <= max_edits then best := Some (j, prev.(j))
    done;
    !best
  end

(* Mirror of [locate_prefix] at the tail, on reversed copies: returns
   [(start_position, edits)]. *)
let locate_suffix ~slack ~max_edits pattern (read : Dna.Strand.t) : (int * int) option =
  match locate_prefix ~slack ~max_edits (Dna.Strand.rev pattern) (Dna.Strand.rev read) with
  | None -> None
  | Some (end_in_rev, edits) -> Some (Dna.Strand.length read - end_in_rev, edits)
