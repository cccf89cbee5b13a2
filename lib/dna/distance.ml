(** Sequence distances.

    Levenshtein (edit) distance is the similarity metric of the whole
    pipeline (Section II-E), and also its main computational cost. It is
    computed by Myers' 1999 bit-parallel algorithm, which packs a whole
    DP column into machine words and advances it in O(ceil(m/63) * n)
    word operations: a single-word kernel for patterns up to 63 nt, a
    blocked multi-word kernel for longer strands, and a thresholded
    variant with Hyyro's block cutoff that only advances the word-blocks
    the Ukkonen band can still reach — the workhorse behind clustering's
    merge test. The kernels read the pattern's packed per-base match
    masks off [Strand.eq_masks], built once per strand and reused across
    every comparison.

    The plain two-row scalar dynamic program is kept beside them as the
    reference oracle ([levenshtein_reference], [levenshtein_leq_reference]):
    tests hold the bit-parallel kernels equal to it and benchmarks time
    them against it; no production path calls it. *)

let hamming a b =
  let n = Strand.length a in
  if n <> Strand.length b then invalid_arg "Distance.hamming: unequal lengths";
  let d = ref 0 in
  for i = 0 to n - 1 do
    if Strand.unsafe_get_code a i <> Strand.unsafe_get_code b i then incr d
  done;
  !d

(* ---------- Reference kernels (two-row DP): oracle and benchmark baseline ---------- *)

let levenshtein_reference a b =
  let la = Strand.length a and lb = Strand.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = ref (Array.init (lb + 1) (fun j -> j)) in
    let cur = ref (Array.make (lb + 1) 0) in
    for i = 1 to la do
      let p = !prev and c = !cur in
      c.(0) <- i;
      let ca = Strand.unsafe_get_code a (i - 1) in
      for j = 1 to lb do
        let cost = if ca = Strand.unsafe_get_code b (j - 1) then 0 else 1 in
        c.(j) <- min (min (c.(j - 1) + 1) (p.(j) + 1)) (p.(j - 1) + cost)
      done;
      (* Swap the row refs instead of blitting: the finished row becomes
         [prev] and the stale one is overwritten next iteration. *)
      prev := c;
      cur := p
    done;
    !prev.(lb)
  end

(* [levenshtein_leq_reference ~bound a b] is [Some d] when the edit
   distance [d] is <= bound, [None] otherwise. Runs the DP inside a band
   of width 2*bound+1 and abandons a row whose minimum already exceeds
   the bound. *)
let levenshtein_leq_reference ~bound a b =
  let la = Strand.length a and lb = Strand.length b in
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
      let ca = Strand.unsafe_get_code a (!i - 1) in
      let row_min = ref inf in
      for j = max 1 lo to hi do
        let cost = if ca = Strand.unsafe_get_code b (j - 1) then 0 else 1 in
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

(* ---------- Bit-parallel kernels (Myers 1999 / Hyyro 2003) ----------

   The DP matrix D[i][j] (i over the pattern, j over the text, D[i][0] =
   i, D[0][j] = j) is represented one text-column at a time by its
   vertical deltas D[i][j] - D[i-1][j], packed into word pairs Pv/Mv
   (bit i-1 set in Pv: delta +1; in Mv: delta -1). One column advances
   with a constant number of word operations given Eq, the pattern's
   match mask for the column's text character (cached per strand by
   [Strand.eq_masks]). OCaml's native int gives 63-bit words; arithmetic
   wraps mod 2^63, which is exactly the carry-discard the algorithm
   expects. The score is threaded along row m by the Ph/Mh bit at the
   pattern's last position (the [| 1] shifted into Ph each column is the
   +1 top boundary of the distance — as opposed to search — variant). *)

let word_bits = Strand.mask_bits
let top_bit = 1 lsl (word_bits - 1)

(* Single-word kernel: pattern of length 1 <= m <= 63 against text [b] of
   length [n]; [masks] is the pattern's 4-entry Eq table. Returns D[m][n]. *)
let myers_single masks m b n =
  let sbit = 1 lsl (m - 1) in
  let pv = ref (-1) and mv = ref 0 in
  let score = ref m in
  for j = 0 to n - 1 do
    let eq = Array.unsafe_get masks (Strand.unsafe_get_code b j) in
    let pv0 = !pv and mv0 = !mv in
    let xv = eq lor mv0 in
    let xh = (((eq land pv0) + pv0) lxor pv0) lor eq in
    let ph = mv0 lor lnot (xh lor pv0) in
    let mh = pv0 land xh in
    if ph land sbit <> 0 then incr score else if mh land sbit <> 0 then decr score;
    let ph = (ph lsl 1) lor 1 in
    pv := (mh lsl 1) lor lnot (xv lor ph);
    mv := ph land xv
  done;
  !score

(* Blocked multi-word kernel: pattern of length m > 63 split into [nw]
   63-bit blocks (low block first); the horizontal delta at each block's
   bottom row carries into the block below. Returns D[m][n]. *)
let myers_blocked masks nw m b n =
  let last = nw - 1 in
  let sbit = 1 lsl ((m - 1) mod word_bits) in
  let pv = Array.make nw (-1) and mv = Array.make nw 0 in
  let score = ref m in
  for j = 0 to n - 1 do
    let base = Strand.unsafe_get_code b j * nw in
    let hin = ref 1 in
    for w = 0 to last do
      let eq = Array.unsafe_get masks (base + w) in
      let pvw = Array.unsafe_get pv w and mvw = Array.unsafe_get mv w in
      let eq_in = if !hin < 0 then eq lor 1 else eq in
      let xv = eq lor mvw in
      let xh = (((eq_in land pvw) + pvw) lxor pvw) lor eq_in in
      let ph = mvw lor lnot (xh lor pvw) in
      let mh = pvw land xh in
      if w = last then
        if ph land sbit <> 0 then incr score else if mh land sbit <> 0 then decr score;
      let hout =
        (if ph land top_bit <> 0 then 1 else 0) - if mh land top_bit <> 0 then 1 else 0
      in
      let ph = (ph lsl 1) lor (if !hin > 0 then 1 else 0) in
      let mh = (mh lsl 1) lor (if !hin < 0 then 1 else 0) in
      Array.unsafe_set pv w (mh lor lnot (xv lor ph));
      Array.unsafe_set mv w (ph land xv);
      hin := hout
    done
  done;
  !score

(* Thresholded kernel with Hyyro's block cutoff. Only blocks whose rows
   the Ukkonen band (rows <= column + bound) has reached are advanced; a
   block entering the band is seeded with the all-[+1] column — an upper
   bound on the true values there, so the computed result is sandwiched
   between the true distance and the band-restricted DP and therefore
   exact whenever the true distance is <= bound. Returns [Some] of the
   computed D[m][n] when it is <= bound, [None] as soon as the distance
   provably exceeds the bound (the tracked row-m score can shed at most
   1 per remaining column). Callers must ensure |m - n| <= bound. *)
let myers_bounded masks nw m b n ~bound =
  let fb = nw - 1 (* final block: the one holding row m *) in
  let last_needed jj = (min m (jj + bound) - 1) / word_bits in
  let sbit = 1 lsl ((m - 1) mod word_bits) in
  let pv = Array.make nw (-1) and mv = Array.make nw 0 in
  (* scores.(w): value at block w's (padded) bottom row in the current
     column; only meaningful for active blocks. *)
  let scores = Array.init nw (fun w -> (w + 1) * word_bits) in
  let lastb = ref (last_needed 1) in
  let score_m = ref m (* D[m][.]; meaningful once the final block is active *) in
  let exceeded = ref false in
  let jj = ref 1 in
  while (not !exceeded) && !jj <= n do
    let base = Strand.unsafe_get_code b (!jj - 1) * nw in
    let hin = ref 1 in
    for w = 0 to !lastb do
      let eq = Array.unsafe_get masks (base + w) in
      let pvw = Array.unsafe_get pv w and mvw = Array.unsafe_get mv w in
      let eq_in = if !hin < 0 then eq lor 1 else eq in
      let xv = eq lor mvw in
      let xh = (((eq_in land pvw) + pvw) lxor pvw) lor eq_in in
      let ph = mvw lor lnot (xh lor pvw) in
      let mh = pvw land xh in
      if w = fb then
        if ph land sbit <> 0 then incr score_m else if mh land sbit <> 0 then decr score_m;
      let hout =
        (if ph land top_bit <> 0 then 1 else 0) - if mh land top_bit <> 0 then 1 else 0
      in
      let ph = (ph lsl 1) lor (if !hin > 0 then 1 else 0) in
      let mh = (mh lsl 1) lor (if !hin < 0 then 1 else 0) in
      Array.unsafe_set pv w (mh lor lnot (xv lor ph));
      Array.unsafe_set mv w (ph land xv);
      Array.unsafe_set scores w (Array.unsafe_get scores w + hout);
      hin := hout
    done;
    if !lastb = fb && !score_m - (n - !jj) > bound then exceeded := true
    else if !jj < n then begin
      let needed = last_needed (!jj + 1) in
      if needed > !lastb then begin
        (* Activate blocks entering the band, seeded as if the current
           column continued with +1 vertical deltas below the last
           active block — an upper bound on the uncomputed cells. *)
        for w = !lastb + 1 to needed do
          pv.(w) <- -1;
          mv.(w) <- 0;
          scores.(w) <- scores.(w - 1) + word_bits
        done;
        if needed = fb then score_m := scores.(fb - 1) + (m - (fb * word_bits));
        lastb := needed
      end
    end;
    incr jj
  done;
  if !exceeded then None else Some !score_m

(* ---------- Entry points ---------- *)

(* The shorter strand becomes the pattern: fewest words, and its cached
   masks are the ones reused when one strand is compared against many. *)
let levenshtein a b =
  let la = Strand.length a and lb = Strand.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let p, t, m, n = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
    let masks = Strand.eq_masks p in
    if m <= word_bits then myers_single masks m t n
    else myers_blocked masks ((m + word_bits - 1) / word_bits) m t n
  end

let levenshtein_leq ~bound a b =
  let la = Strand.length a and lb = Strand.length b in
  if bound < 0 then None
  else if abs (la - lb) > bound then None
  else if la = 0 || lb = 0 then Some (max la lb) (* <= bound by the length check *)
  else begin
    let p, t, m, n = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
    let masks = Strand.eq_masks p in
    let nw = (m + word_bits - 1) / word_bits in
    match myers_bounded masks nw m t n ~bound with
    | Some d when d <= bound -> Some d
    | Some _ | None -> None
  end

(* L1 distance between integer vectors; used by w-gram signatures. *)
let l1 a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Distance.l1: unequal lengths";
  let d = ref 0 in
  for i = 0 to n - 1 do
    d := !d + abs (a.(i) - b.(i))
  done;
  !d
