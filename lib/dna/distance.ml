(** Sequence distances.

    Levenshtein (edit) distance is the similarity metric of the whole
    pipeline (Section II-E), and also its main computational cost. It is
    computed by Myers' 1999 bit-parallel algorithm, which packs a whole
    DP column into machine words and advances it in O(ceil(m/63) * n)
    word operations, with Hyyro's block cutoff: only the word-blocks the
    Ukkonen band can still reach are advanced, and the computation stops
    as soon as the bound is provably exceeded — the workhorse behind
    clustering's merge test. One kernel answers both entry points: the
    exact distance is the thresholded one at a bound no distance can
    exceed.

    Patterns of up to three 63-bit blocks (189 nt; every strand at
    default codec params is 136 nt) run the register kernel: the block
    loop unrolled, each block's vertical deltas carried from column to
    column in local variables. Longer patterns run the same recurrence
    over per-block arrays, where each column stores its words and the
    next loads them back through computed indices: a store-to-load
    round trip on the loop-carried path. (ocamlopt without flambda
    keeps what register pressure allows of the six locals in registers
    and the rest in fixed stack slots.) The kernels read the pattern's
    packed per-base match masks off [Strand.eq_masks], built once per
    strand and reused across every comparison, and the text's codes
    from a per-domain scratch array filled by one [Strand.blit_codes]
    call: the library builds with [-opaque] in dune's dev profile, so a
    per-base call into [Strand] is never inlined, and for the same
    reason the block width is a literal (see [word_bits]). No kernel
    allocates. *)

let hamming a b =
  let n = Strand.length a in
  if n <> Strand.length b then invalid_arg "Distance.hamming: unequal lengths";
  let d = ref 0 in
  for i = 0 to n - 1 do
    if Strand.unsafe_get_code a i <> Strand.unsafe_get_code b i then incr d
  done;
  !d

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

(* [Strand.mask_bits], as a literal: under [-opaque] the imported value
   is unknown at compile time, which makes every shift by it a variable
   shift and every division by it an [idiv]. *)
let word_bits = 63
let () = assert (word_bits = Strand.mask_bits)
let top = word_bits - 1 (* shift that brings a block's bottom-row bit to bit 0 *)

(* Per-domain scratch: the text's codes, and the array kernel's
   per-block state. Buffers only grow and never escape a call. *)
type scratch = {
  mutable codes : int array;
  mutable pv : int array;
  mutable mv : int array;
  mutable scores : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { codes = [||]; pv = [||]; mv = [||]; scores = [||] })

let ensure arr n = if Array.length arr >= n then arr else Array.make (max n (2 * Array.length arr)) 0

(* Last block the Ukkonen band (rows <= column + bound) reaches at
   column [jj]. *)
let[@inline] last_needed m bound jj = ((if jj + bound < m then jj + bound else m) - 1) / word_bits

(* Both kernels: pattern of length m in [nw] 63-bit blocks (low block
   first, [masks] its Eq table) against the text whose codes are
   [codes.(0 .. n-1)]; callers ensure |m - n| <= bound. Only blocks the
   band has reached are advanced; a block entering the band is seeded
   with the all-[+1] column — an upper bound on the true values there,
   so the computed result is sandwiched between the true distance and
   the band-restricted DP and therefore exact whenever the true distance
   is <= bound. The horizontal delta at each block's bottom row carries
   into the block below, and the score D[m][.] is threaded along row m.
   Returns the computed D[m][n], or -1 as soon as the distance provably
   exceeds the bound (the tracked row-m score can shed at most 1 per
   remaining column). *)

(* Blocks 0, 1 and 2 unrolled (nw <= 3), their Pv/Mv in locals; [s0]
   and [s1] are the values at blocks 0 and 1's bottom rows, the seeds
   of the block below when it enters the band. *)
let myers_regs masks nw m codes n ~bound =
  let fb = nw - 1 (* final block: the one holding row m *) in
  let rbit = (m - 1) mod word_bits in
  let pv0 = ref (-1) and mv0 = ref 0 in
  let pv1 = ref (-1) and mv1 = ref 0 in
  let pv2 = ref (-1) and mv2 = ref 0 in
  let s0 = ref word_bits and s1 = ref (2 * word_bits) in
  let lastb = ref (last_needed m bound 1) in
  let score_m = ref m (* D[m][.]; meaningful once the final block is active *) in
  let exceeded = ref false in
  let jj = ref 1 in
  while (not !exceeded) && !jj <= n do
    let base = Array.unsafe_get codes (!jj - 1) * nw in
    let eq = Array.unsafe_get masks base and pv = !pv0 and mv = !mv0 in
    let xv = eq lor mv in
    let xh = (((eq land pv) + pv) lxor pv) lor eq in
    let ph = mv lor lnot (xh lor pv) and mh = pv land xh in
    let phs = (ph lsl 1) lor 1 and mhs = mh lsl 1 in
    pv0 := mhs lor lnot (xv lor phs);
    mv0 := phs land xv;
    if fb = 0 then score_m := !score_m + ((ph lsr rbit) land 1) - ((mh lsr rbit) land 1)
    else begin
      let hp = ph lsr top and hm = mh lsr top in
      s0 := !s0 + hp - hm;
      if !lastb >= 1 then begin
        let eq = Array.unsafe_get masks (base + 1) and pv = !pv1 and mv = !mv1 in
        let eq_in = eq lor hm in
        let xv = eq lor mv in
        let xh = (((eq_in land pv) + pv) lxor pv) lor eq_in in
        let ph = mv lor lnot (xh lor pv) and mh = pv land xh in
        let phs = (ph lsl 1) lor hp and mhs = (mh lsl 1) lor hm in
        pv1 := mhs lor lnot (xv lor phs);
        mv1 := phs land xv;
        if fb = 1 then score_m := !score_m + ((ph lsr rbit) land 1) - ((mh lsr rbit) land 1)
        else begin
          let hp = ph lsr top and hm = mh lsr top in
          s1 := !s1 + hp - hm;
          if !lastb >= 2 then begin
            let eq = Array.unsafe_get masks (base + 2) and pv = !pv2 and mv = !mv2 in
            let eq_in = eq lor hm in
            let xv = eq lor mv in
            let xh = (((eq_in land pv) + pv) lxor pv) lor eq_in in
            let ph = mv lor lnot (xh lor pv) and mh = pv land xh in
            let phs = (ph lsl 1) lor hp and mhs = (mh lsl 1) lor hm in
            pv2 := mhs lor lnot (xv lor phs);
            mv2 := phs land xv;
            score_m := !score_m + ((ph lsr rbit) land 1) - ((mh lsr rbit) land 1)
          end
        end
      end
    end;
    if !lastb = fb then (if !score_m - (n - !jj) > bound then exceeded := true)
    else if !jj < n then begin
      let needed = last_needed m bound (!jj + 1) in
      if needed > !lastb then begin
        (* Activate blocks entering the band, seeded as if the current
           column continued with +1 vertical deltas below the last
           active block. *)
        if !lastb < 1 then begin
          pv1 := -1;
          mv1 := 0;
          if fb = 1 then score_m := !s0 + (m - word_bits) else s1 := !s0 + word_bits
        end;
        if needed >= 2 then begin
          pv2 := -1;
          mv2 := 0;
          score_m := !s1 + (m - (2 * word_bits))
        end;
        lastb := needed
      end
    end;
    incr jj
  done;
  if !exceeded then -1 else !score_m

(* The same recurrence over [nw] > 3 blocks, its per-block state in the
   scratch arrays [pv], [mv] and [scores] (the value at each block's
   padded bottom row; only meaningful for active blocks). *)
let myers_arrays (s : scratch) masks nw m codes n ~bound =
  let fb = nw - 1 in
  let rbit = (m - 1) mod word_bits in
  let pv = s.pv and mv = s.mv and scores = s.scores in
  for w = 0 to fb do
    Array.unsafe_set pv w (-1);
    Array.unsafe_set mv w 0;
    Array.unsafe_set scores w ((w + 1) * word_bits)
  done;
  let lastb = ref (last_needed m bound 1) in
  let score_m = ref m in
  let exceeded = ref false in
  let jj = ref 1 in
  while (not !exceeded) && !jj <= n do
    let base = Array.unsafe_get codes (!jj - 1) * nw in
    let hp = ref 1 and hm = ref 0 in
    for w = 0 to !lastb do
      let eq = Array.unsafe_get masks (base + w) in
      let pvw = Array.unsafe_get pv w and mvw = Array.unsafe_get mv w in
      let eq_in = eq lor !hm in
      let xv = eq lor mvw in
      let xh = (((eq_in land pvw) + pvw) lxor pvw) lor eq_in in
      let ph = mvw lor lnot (xh lor pvw) in
      let mh = pvw land xh in
      if w = fb then score_m := !score_m + ((ph lsr rbit) land 1) - ((mh lsr rbit) land 1);
      let phs = (ph lsl 1) lor !hp and mhs = (mh lsl 1) lor !hm in
      Array.unsafe_set pv w (mhs lor lnot (xv lor phs));
      Array.unsafe_set mv w (phs land xv);
      hp := ph lsr top;
      hm := mh lsr top;
      Array.unsafe_set scores w (Array.unsafe_get scores w + !hp - !hm)
    done;
    if !lastb = fb then (if !score_m - (n - !jj) > bound then exceeded := true)
    else if !jj < n then begin
      let needed = last_needed m bound (!jj + 1) in
      if needed > !lastb then begin
        for w = !lastb + 1 to needed do
          Array.unsafe_set pv w (-1);
          Array.unsafe_set mv w 0;
          Array.unsafe_set scores w (Array.unsafe_get scores (w - 1) + word_bits)
        done;
        if needed = fb then score_m := Array.unsafe_get scores (fb - 1) + (m - (fb * word_bits));
        lastb := needed
      end
    end;
    incr jj
  done;
  if !exceeded then -1 else !score_m

(* The thresholded distance of non-empty strands with |la - lb| <=
   bound, or -1. The shorter strand becomes the pattern: fewest words,
   and its cached masks are the ones reused when one strand is compared
   against many. *)
let bounded a b la lb ~bound =
  let p, t, m, n = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
  let masks = Strand.eq_masks p in
  let nw = (m + word_bits - 1) / word_bits in
  let s = Domain.DLS.get scratch_key in
  let codes = ensure s.codes n in
  s.codes <- codes;
  Strand.blit_codes t codes;
  if nw <= 3 then myers_regs masks nw m codes n ~bound
  else begin
    if Array.length s.pv < nw then begin
      s.pv <- ensure s.pv nw;
      s.mv <- ensure s.mv nw;
      s.scores <- ensure s.scores nw
    end;
    myers_arrays s masks nw m codes n ~bound
  end

(* ---------- Entry points ---------- *)

(* No distance exceeds la + lb, so at that bound the kernel never cuts
   off and every block is active from the first column. *)
let levenshtein a b =
  let la = Strand.length a and lb = Strand.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else bounded a b la lb ~bound:(la + lb)

let levenshtein_leq ~bound a b =
  let la = Strand.length a and lb = Strand.length b in
  if bound < 0 then None
  else if abs (la - lb) > bound then None
  else if la = 0 || lb = 0 then Some (max la lb) (* <= bound by the length check *)
  else begin
    let d = bounded a b la lb ~bound in
    if d >= 0 && d <= bound then Some d else None
  end
