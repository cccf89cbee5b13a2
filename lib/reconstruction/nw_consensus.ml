(** Needleman-Wunsch consensus (Section VII-C, the paper's own
    reconstruction algorithm).

    Every read of the cluster is globally aligned (Needleman-Wunsch,
    unit costs) against a reference — initially the longest read, since
    deletions dominate and the longest read is the most complete
    backbone. The alignments are stacked into a column profile: each
    reference position contributes a *match column* (votes per base,
    plus gap votes) and possibly an *insertion column* (reads that
    insert a base there). A refinement pass realigns all reads against
    the voted consensus, which removes the reference's own errors.

    The final consensus keeps exactly [target_len] columns — the ones
    with the strongest read support — which is the paper's rule of
    omitting the x most unreliable (indel-heavy) indexes when the
    alignment is longer than the expected strand, generalized to also
    recover weakly-supported columns when it is shorter. *)

type outcome = { consensus : Dna.Strand.t; trimmed : int; padded : int }

(* One profile round over the first [n_reads] slots of [reads], filling
   caller-owned flat buffers: [counts]/[ins] must arrive zeroed,
   [codes]/[support] are overwritten. Returns the candidate count. *)
let profile_round (reference : Dna.Strand.t) (reads : Dna.Strand.t array) n_reads
    ~counts ~ins ~codes ~support : int =
  let m = Dna.Strand.length reference in
  (* Flat count tables: match column i holds votes at [i*5 .. i*5+4]
     (four bases plus the gap vote), insertion slot i at [i*4 .. i*4+3].
     Filled straight from the packed scripts — this loop runs once per
     read per refinement round and never allocates. *)
  for r = 0 to n_reads - 1 do
    let read = Array.unsafe_get reads r in
    let p = Dna.Alignment.align_packed reference read in
    let ops = p.Dna.Alignment.ops in
    let pos = ref 0 in
    for k = p.Dna.Alignment.off to p.Dna.Alignment.lim - 1 do
      let e = Array.unsafe_get ops k in
      let kind = e lsr 4 in
      if kind <= 1 then begin
        (* match or substitute: vote the read's base *)
        let c = (!pos * 5) + (e land 3) in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
        incr pos
      end
      else if kind = 2 then begin
        let c = (!pos * 5) + 4 in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
        incr pos
      end
      else begin
        let c = (!pos * 4) + (e land 3) in
        Array.unsafe_set ins c (Array.unsafe_get ins c + 1)
      end
    done
  done;
  let n = ref 0 in
  let insertion_candidate i =
    let best = ref 0 in
    for b = 1 to 3 do
      if ins.((i * 4) + b) > ins.((i * 4) + !best) then best := b
    done;
    if ins.((i * 4) + !best) > 0 then begin
      codes.(!n) <- !best;
      support.(!n) <- ins.((i * 4) + !best);
      incr n
    end
  in
  for i = 0 to m - 1 do
    insertion_candidate i;
    let best = ref 0 in
    for b = 1 to 3 do
      if counts.((i * 5) + b) > counts.((i * 5) + !best) then best := b
    done;
    let gap = counts.((i * 5) + 4) in
    let sup = counts.((i * 5) + !best) in
    (* Record the column with its base support; a gap majority is the
       signal to drop it, encoded as low support relative to others. *)
    codes.(!n) <- !best;
    support.(!n) <- (if sup >= gap then sup else sup - gap);
    incr n
  done;
  insertion_candidate m;
  !n

(* Majority-rule vote used between refinement rounds: keep match columns
   that beat their gap votes and insertions backed by most reads. A pure
   function of an already-computed profile, so refinement rounds whose
   reference has stabilized can reuse the profile instead of realigning
   the whole cluster. *)
let vote (reference : Dna.Strand.t) ~n_reads ~codes ~support n ~scratch : Dna.Strand.t =
  let kept = ref 0 in
  for k = 0 to n - 1 do
    if 2 * support.(k) > n_reads then incr kept
  done;
  if !kept = 0 then reference
  else begin
    let j = ref 0 in
    for k = 0 to n - 1 do
      if 2 * support.(k) > n_reads then begin
        scratch.(!j) <- codes.(k);
        incr j
      end
    done;
    Dna.Strand.init_codes !kept (fun i -> Array.unsafe_get scratch i)
  end

(* In-place heapsort of [order.(0..n)] by (support desc, index asc).
   Indices are distinct so the key order is strict, and any comparison
   sort yields the same sequence; heapsort keeps selection
   allocation-free. *)
let sort_order order n support =
  let after a b = support.(a) < support.(b) || (support.(a) = support.(b) && a > b) in
  let swap i j =
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && after order.(l + 1) order.(l) then l + 1 else l in
      if after order.(c) order.(i) then begin
        swap c i;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for len = n - 1 downto 1 do
    swap 0 len;
    sift 0 len
  done

(* Final round over flat buffers: write the kept codes into [out]
   (capacity >= target_len) and return [(written, padded)]. Keeps
   exactly [target_len] columns when over-long, strongest support first
   (ties resolved toward earlier columns). *)
let select ~codes ~support n target_len ~order ~keep ~out =
  if n <= target_len then begin
    Array.blit codes 0 out 0 n;
    (n, target_len - n)
  end
  else begin
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    sort_order order n support;
    Array.fill keep 0 n false;
    for k = 0 to target_len - 1 do
      keep.(order.(k)) <- true
    done;
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        out.(!j) <- codes.(i);
        incr j
      end
    done;
    (target_len, 0)
  end

(* Realignment rounds after the first profile. *)
let refinements = 2

(* Reads are minted into the domain's {!Recon_arena} and every
   profile/vote/selection table lives in its grow-only buffers, so a
   cluster's reconstruction allocates only the alignment scripts and the
   consensus strands themselves. *)
let reconstruct_pool_full ~target_len pool (idxs : int array) : outcome =
  let open Recon_arena in
  let a = get () in
  (* Zero-length reads carry no alignment evidence: minting with
     [keep_empty:false] drops them, keeping the others in order. *)
  let n_reads = mint a pool idxs ~keep_empty:false in
  if n_reads = 0 then invalid_arg "Nw_consensus.reconstruct: empty cluster";
  let reads = a.views in
  (* Longest read as the initial backbone (the first of equals wins). *)
  let reference = ref (Array.unsafe_get reads 0) in
  for r = 1 to n_reads - 1 do
    if Dna.Strand.length reads.(r) > Dna.Strand.length !reference then reference := reads.(r)
  done;
  let profile () =
    let m = Dna.Strand.length !reference in
    a.counts <- ints a.counts (m * 5);
    Array.fill a.counts 0 (m * 5) 0;
    a.ins <- ints a.ins ((m + 1) * 4);
    Array.fill a.ins 0 ((m + 1) * 4) 0;
    a.codes <- ints a.codes ((2 * m) + 1);
    a.support <- ints a.support ((2 * m) + 1);
    profile_round !reference reads n_reads ~counts:a.counts ~ins:a.ins ~codes:a.codes
      ~support:a.support
  in
  (* Each round profiles the cluster once and votes. When the vote
     reproduces the reference, the profile is already the final one
     (realigning against an unchanged reference yields the same
     columns), so refinement stops and selection reuses it. *)
  let n = ref (profile ()) in
  (try
     for _ = 1 to refinements do
       a.out <- ints a.out !n;
       let voted = vote !reference ~n_reads ~codes:a.codes ~support:a.support !n ~scratch:a.out in
       if Dna.Strand.equal voted !reference then raise Exit;
       reference := voted;
       n := profile ()
     done
   with Exit -> ());
  let n_candidates = !n in
  a.order <- ints a.order n_candidates;
  a.keep <- bools a.keep n_candidates;
  a.out <- ints a.out (max target_len n_candidates);
  let written, padded =
    select ~codes:a.codes ~support:a.support n_candidates target_len ~order:a.order
      ~keep:a.keep ~out:a.out
  in
  if padded = 0 then
    {
      consensus = Dna.Strand.init_codes target_len (fun i -> Array.unsafe_get a.out i);
      trimmed = max 0 (n_candidates - target_len);
      padded = 0;
    }
  else begin
    Array.fill a.out written (target_len - written) 0;
    {
      consensus = Dna.Strand.init_codes target_len (fun i -> Array.unsafe_get a.out i);
      trimmed = 0;
      padded;
    }
  end

let reconstruct_pool ~target_len pool idxs = (reconstruct_pool_full ~target_len pool idxs).consensus
