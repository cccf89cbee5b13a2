(** Needleman-Wunsch consensus (Section VII-C, the paper's own
    reconstruction algorithm).

    Reads of the cluster are globally aligned (Needleman-Wunsch, unit
    costs) against a reference — initially the longest read, since
    deletions dominate and the longest read is the most complete
    backbone. The alignments are stacked into a column profile: each
    reference position contributes a *match column* (votes per base,
    plus gap votes) and possibly an *insertion column* (reads that
    insert a base there). Up to two refinement rounds realign the reads
    against the voted consensus, which removes the reference's own
    errors; a round whose vote reproduces its reference ends them.

    Depth follows the vote. A cluster of at most [single_pass_max] reads
    aligns every read. A larger one first aligns [first_batch] reads,
    then [batch] more at a time, and stops once two successive batch
    votes agree and every column has settled: a match column's leading
    base count is more than [margin] away from the majority threshold
    (half the reads used), and so is an insertion slot's, by [margin]
    times the longest run of bases one read has inserted into that slot
    (one read can add several votes to a slot). The refinement rounds
    realign only the reads used. The constants come from the reads-used
    curve in EXPERIMENTS.md ([bench/main.exe depth]).

    The final consensus keeps exactly [target_len] columns — the ones
    with the strongest read support — which is the paper's rule of
    omitting the x most unreliable (indel-heavy) indexes when the
    alignment is longer than the expected strand, generalized to also
    recover weakly-supported columns when it is shorter. The kept set is
    found by a support threshold, not by sorting. *)

type outcome = { consensus : Dna.Strand.t; trimmed : int; padded : int; reads_used : int }

(* The depth rule's constants (see the header). *)
let single_pass_max = 12
let first_batch = 8
let batch = 4
let margin = 3

(* Align reads [from .. until - 1] against [reference] and add their
   votes to the flat count tables: match column i holds votes at
   [i*5 .. i*5+4] (four bases plus the gap vote), insertion slot i at
   [i*5 .. i*5+3] of [ins], with the longest run of bases one read has
   inserted there at [i*5+4]. Filled straight from the packed scripts —
   this loop runs once per read per round and never allocates. *)
let accumulate (reference : Dna.Strand.t) (reads : Dna.Strand.t array) ~from ~until ~counts
    ~ins =
  for r = from to until - 1 do
    let read = Array.unsafe_get reads r in
    let p = Dna.Alignment.align_packed reference read in
    let ops = p.Dna.Alignment.ops in
    let pos = ref 0 and run = ref 0 in
    for k = p.Dna.Alignment.off to p.Dna.Alignment.lim - 1 do
      let e = Array.unsafe_get ops k in
      let kind = e lsr 4 in
      if kind <= 1 then begin
        (* match or substitute: vote the read's base *)
        let c = (!pos * 5) + (e land 3) in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
        incr pos;
        run := 0
      end
      else if kind = 2 then begin
        let c = (!pos * 5) + 4 in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
        incr pos;
        run := 0
      end
      else begin
        let c = (!pos * 5) + (e land 3) in
        Array.unsafe_set ins c (Array.unsafe_get ins c + 1);
        incr run;
        let c = (!pos * 5) + 4 in
        if !run > Array.unsafe_get ins c then Array.unsafe_set ins c !run
      end
    done
  done

(* The leading base of a 4-way vote at [off] (the first of equals). *)
let leader (votes : int array) off =
  let best = ref 0 in
  for b = 1 to 3 do
    if votes.(off + b) > votes.(off + !best) then best := b
  done;
  !best

(* The candidate columns of a reference of length [m], in reference
   order, into [codes]/[support]; returns their count. *)
let candidates m ~counts ~ins ~codes ~support : int =
  let n = ref 0 in
  let insertion_candidate i =
    let best = leader ins (i * 5) in
    if ins.((i * 5) + best) > 0 then begin
      codes.(!n) <- best;
      support.(!n) <- ins.((i * 5) + best);
      incr n
    end
  in
  for i = 0 to m - 1 do
    insertion_candidate i;
    let best = leader counts (i * 5) in
    let gap = counts.((i * 5) + 4) in
    let sup = counts.((i * 5) + best) in
    (* Record the column with its base support; a gap majority is the
       signal to drop it, encoded as low support relative to others. *)
    codes.(!n) <- best;
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

(* Whether every column of a profile over [used] reads has settled: its
   leading base count lies more than [margin] from the majority
   threshold; for an insertion slot, more than [margin] times the
   longest run one read inserted there. *)
let settled m ~counts ~ins ~used =
  let rec go i =
    i > m
    || abs ((2 * ins.((i * 5) + leader ins (i * 5))) - used) > margin * max 1 ins.((i * 5) + 4)
       && (i = m || abs ((2 * counts.((i * 5) + leader counts (i * 5))) - used) > margin)
       && go (i + 1)
  in
  go 0

(* Final round over flat buffers: write the kept codes into [out]
   (capacity >= target_len) and return [(written, padded)]. Keeps
   exactly [target_len] columns when over-long: the strongest-supported
   ones, ties resolved toward earlier columns — the first [target_len]
   of the candidates sorted by (support desc, index asc). One histogram
   pass over the supports finds the [target_len]-th largest support [t];
   every candidate above [t] is kept, then the earliest candidates equal
   to [t] until the count is met. [lo]/[hi] bound the supports and
   [hist] holds [hi - lo + 1] slots. *)
let select ~codes ~support n target_len ~lo ~hi ~hist ~out =
  if n <= target_len then begin
    Array.blit codes 0 out 0 n;
    (n, target_len - n)
  end
  else begin
    Array.fill hist 0 (hi - lo + 1) 0;
    for i = 0 to n - 1 do
      let b = Array.unsafe_get support i - lo in
      Array.unsafe_set hist b (Array.unsafe_get hist b + 1)
    done;
    (* Walk down from the top support until [target_len] are covered:
       [t] is the threshold, [above] the count strictly above it. *)
    let t = ref hi and above = ref 0 in
    while !above + hist.(!t - lo) < target_len do
      above := !above + hist.(!t - lo);
      decr t
    done;
    let t = !t in
    let ties = ref (target_len - !above) and j = ref 0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get support i in
      if s > t || (s = t && !ties > 0) then begin
        if s = t then decr ties;
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
   cluster's reconstruction allocates only the alignment scripts, the
   votes and the consensus strand itself. *)
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
  (* Zeroed count tables and room for the candidates of [!reference]. *)
  let reset () =
    let m = Dna.Strand.length !reference in
    a.counts <- ints a.counts (m * 5);
    Array.fill a.counts 0 (m * 5) 0;
    a.ins <- ints a.ins ((m + 1) * 5);
    Array.fill a.ins 0 ((m + 1) * 5) 0;
    a.codes <- ints a.codes ((2 * m) + 1);
    a.support <- ints a.support ((2 * m) + 1);
    a.out <- ints a.out ((2 * m) + 1)
  in
  let add ~from ~until =
    accumulate !reference reads ~from ~until ~counts:a.counts ~ins:a.ins
  in
  let candidates () =
    candidates (Dna.Strand.length !reference) ~counts:a.counts ~ins:a.ins ~codes:a.codes
      ~support:a.support
  in
  let vote ~used n =
    vote !reference ~n_reads:used ~codes:a.codes ~support:a.support n ~scratch:a.out
  in
  (* The first round, deepened batch by batch until the vote settles. *)
  reset ();
  let first = if n_reads <= single_pass_max then n_reads else first_batch in
  let rec deepen used prev =
    if used = n_reads then used
    else begin
      let until = min n_reads (used + batch) in
      add ~from:used ~until;
      let v = vote ~used:until (candidates ()) in
      if
        Dna.Strand.equal v prev
        && settled (Dna.Strand.length !reference) ~counts:a.counts ~ins:a.ins ~used:until
      then until
      else deepen until v
    end
  in
  add ~from:0 ~until:first;
  let used = if first = n_reads then n_reads else deepen first (vote ~used:first (candidates ())) in
  (* Each round profiles the used reads once and votes. When the vote
     reproduces the reference, the profile is already the final one
     (realigning against an unchanged reference yields the same
     columns), so refinement stops and selection reuses it. *)
  let n = ref (candidates ()) in
  (try
     for _ = 1 to refinements do
       let voted = vote ~used !n in
       if Dna.Strand.equal voted !reference then raise Exit;
       reference := voted;
       reset ();
       add ~from:0 ~until:used;
       n := candidates ()
     done
   with Exit -> ());
  let n_candidates = !n in
  a.out <- ints a.out (max target_len n_candidates);
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to n_candidates - 1 do
    lo := min !lo a.support.(i);
    hi := max !hi a.support.(i)
  done;
  a.hist <- ints a.hist (!hi - !lo + 1);
  let written, padded =
    select ~codes:a.codes ~support:a.support n_candidates target_len ~lo:!lo ~hi:!hi ~hist:a.hist
      ~out:a.out
  in
  Array.fill a.out written (target_len - written) 0;
  {
    consensus = Dna.Strand.init_codes target_len (fun i -> Array.unsafe_get a.out i);
    trimmed = max 0 (n_candidates - target_len);
    padded;
    reads_used = used;
  }

let reconstruct_pool ~target_len pool idxs = (reconstruct_pool_full ~target_len pool idxs).consensus
