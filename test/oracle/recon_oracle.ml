(* Boxed reference implementations of the reconstruction algorithms,
   kept as the oracle for the pool-native surface in
   [Reconstruction.Bma], [Reconstruction.Nw_consensus] and
   [Reconstruction.Ensemble]. Each takes the cluster as a plain
   [Dna.Strand.t array] and must return byte-for-byte what the pool
   function returns over an index slice holding the same reads, raising
   the same [Invalid_argument] on an empty cluster.

   BMA here is the list-based implementation that the pool [Bma.core]
   was written to reproduce. The NW consensus builds fresh boxed
   profiles from op-list alignments every round, re-profiles each prefix
   the depth rule tries, and selects by sorting, where the pool path
   accumulates into its domain arena and selects by a threshold; the
   benches time the two against each other, and the tests compare every
   algorithm against this file. [nw_full] is the consensus with every
   read aligned, the reference the depth rule is judged against. *)

let lookahead = 2
let refinements = 2

(* ---------- BMA and double-sided BMA ---------- *)

(* Majority base over [reads] at their pointers shifted by [offset],
   restricted to indices in [active]. Returns -1 when nothing votes. *)
let majority_at reads pointers active ~offset =
  let counts = Array.make 4 0 in
  List.iter
    (fun i ->
      let p = pointers.(i) + offset in
      if p >= 0 && p < Dna.Strand.length reads.(i) then begin
        let c = Dna.Strand.get_code reads.(i) p in
        counts.(c) <- counts.(c) + 1
      end)
    active;
  let best = ref (-1) and best_count = ref 0 in
  for c = 0 to 3 do
    if counts.(c) > !best_count then begin
      best := c;
      best_count := counts.(c)
    end
  done;
  !best

(* Score a realignment hypothesis: how well the read starting at [start]
   matches the expected continuation [expected]. *)
let hypothesis_score read ~start expected =
  let n = Dna.Strand.length read in
  let score = ref 0 in
  List.iteri
    (fun k e ->
      if e >= 0 && start + k < n && start + k >= 0 && Dna.Strand.get_code read (start + k) = e then
        incr score)
    expected;
  !score

let bma ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  let n_reads = Array.length reads in
  if n_reads = 0 then invalid_arg "Bma.reconstruct: empty cluster";
  let pointers = Array.make n_reads 0 in
  let consensus = Array.make target_len 0 in
  let all = List.init n_reads (fun i -> i) in
  for t = 0 to target_len - 1 do
    let active = List.filter (fun i -> pointers.(i) < Dna.Strand.length reads.(i)) all in
    let c = majority_at reads pointers active ~offset:0 in
    let c = if c < 0 then 0 (* all reads exhausted; emit A *) else c in
    consensus.(t) <- c;
    (* Expected continuation after this consensus base: the majority of
       the agreeing reads' next bases. *)
    let agreeing =
      List.filter
        (fun i ->
          pointers.(i) < Dna.Strand.length reads.(i)
          && Dna.Strand.get_code reads.(i) pointers.(i) = c)
        active
    in
    let expected =
      List.init lookahead (fun k -> majority_at reads pointers agreeing ~offset:(k + 1))
    in
    List.iter
      (fun i ->
        let p = pointers.(i) in
        let read = reads.(i) in
        if Dna.Strand.get_code read p = c then pointers.(i) <- p + 1
        else begin
          (* Disagreement: guess the edit. Each hypothesis implies where
             the read should resume to match the expected continuation. *)
          let sub_score = hypothesis_score read ~start:(p + 1) expected in
          let ins_score = hypothesis_score read ~start:(p + 2) expected in
          let del_score = hypothesis_score read ~start:p expected in
          (* Insertion additionally requires the consensus base to appear
             right after the inserted one. *)
          let ins_ok = p + 1 < Dna.Strand.length read && Dna.Strand.get_code read (p + 1) = c in
          let ins_score = if ins_ok then ins_score + 1 else -1 in
          if sub_score >= ins_score && sub_score >= del_score then pointers.(i) <- p + 1
          else if del_score >= ins_score then () (* base belongs to the next position *)
          else pointers.(i) <- p + 2
        end)
      active
  done;
  Dna.Strand.of_codes consensus

(* Double-sided BMA: reconstruct the left half left-to-right and the
   right half right-to-left on reversed reads, then join. *)
let bma_double ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  let left_len = (target_len + 1) / 2 in
  let right_len = target_len - left_len in
  let left = bma ~target_len:left_len reads in
  let reversed = Array.map Dna.Strand.rev reads in
  let right_rev = bma ~target_len:right_len reversed in
  Dna.Strand.append left (Dna.Strand.rev right_rev)

(* ---------- NW consensus ---------- *)

(* Plain boxed code throughout: profiles are arrays of small count
   arrays filled from [Dna.Alignment.align]'s op list, candidates are
   (code, support) lists, selection sorts, and the depth rule re-profiles
   each prefix of the cluster from scratch. *)

(* The depth rule's constants, restated from [Nw_consensus]. *)
let single_pass_max = 12
let first_batch = 8
let batch = 4
let margin = 3

(* A column profile of some reads against a reference of length m: per
   match column the votes of A, C, G, T and the gap; per insertion slot
   (before each column, plus one after the last) the votes of each
   inserted base and the longest run of bases one read inserted there. *)
type profile = { matches : int array array; inserts : int array array; runs : int array }

let profile (reference : Dna.Strand.t) (reads : Dna.Strand.t list) : profile =
  let m = Dna.Strand.length reference in
  let matches = Array.init m (fun _ -> Array.make 5 0) in
  let inserts = Array.init (m + 1) (fun _ -> Array.make 4 0) in
  let runs = Array.make (m + 1) 0 in
  let bump votes i = votes.(i) <- votes.(i) + 1 in
  List.iter
    (fun read ->
      let pos = ref 0 and run = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Dna.Alignment.Match b | Dna.Alignment.Substitute (_, b) ->
              bump matches.(!pos) (Dna.Nucleotide.to_code b);
              incr pos;
              run := 0
          | Dna.Alignment.Delete _ ->
              bump matches.(!pos) 4;
              incr pos;
              run := 0
          | Dna.Alignment.Insert b ->
              bump inserts.(!pos) (Dna.Nucleotide.to_code b);
              incr run;
              runs.(!pos) <- max runs.(!pos) !run)
        (Dna.Alignment.align reference read).Dna.Alignment.script)
    reads;
  { matches; inserts; runs }

(* The leading base of a vote (the first of equals); a match column's
   gap vote is not a base. *)
let leader (votes : int array) =
  let best = ref 0 in
  for b = 1 to 3 do
    if votes.(b) > votes.(!best) then best := b
  done;
  !best

(* Candidate columns as (code, support), in reference order: each
   match column, preceded by its insertion slot's leading base when any
   read inserted there. A match column the gap outvotes gets its base
   count minus the gap count. *)
let candidates (p : profile) : (int * int) list =
  let insertion i =
    let v = p.inserts.(i) in
    let b = leader v in
    if v.(b) > 0 then [ (b, v.(b)) ] else []
  in
  List.concat
    (List.init (Array.length p.matches) (fun i ->
         let v = p.matches.(i) in
         let b = leader v in
         insertion i @ [ (b, if v.(b) >= v.(4) then v.(b) else v.(b) - v.(4)) ]))
  @ insertion (Array.length p.matches)

(* Majority vote: the candidates backed by more than half the reads, or
   the reference itself when none is. *)
let vote reference ~n_reads cands =
  match List.filter (fun (_, s) -> 2 * s > n_reads) cands with
  | [] -> reference
  | kept -> Dna.Strand.of_codes (Array.of_list (List.map fst kept))

(* Every match column's leading base count lies more than [margin] from
   the majority threshold of [used] reads, and every insertion slot's
   more than [margin] times the longest run one read inserted there. *)
let settled (p : profile) ~used =
  let clears bound votes = abs ((2 * votes.(leader votes)) - used) > bound in
  Array.for_all (clears margin) p.matches
  && Array.for_all2 (fun run votes -> clears (margin * max 1 run) votes) p.runs p.inserts

(* Keep exactly [target_len] candidates when over-long: sort the
   candidates by (support desc, index asc) and keep the first
   [target_len], in column order. Returns the kept codes and the
   padding still owed. *)
let select_columns cands target_len =
  let n = List.length cands in
  if n <= target_len then (List.map fst cands, target_len - n)
  else begin
    let indexed = List.mapi (fun i c -> (i, c)) cands in
    let by_support =
      List.stable_sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) indexed
    in
    let kept = List.sort compare (List.filteri (fun k _ -> k < target_len) by_support) in
    (List.map (fun (_, (code, _)) -> code) kept, 0)
  end

(* One NW consensus run, with every profiled round kept for the tests:
   [rounds] lists (reference, profile over the used reads), first round
   first; the last is the one selection read. *)
type trace = {
  consensus : Dna.Strand.t;
  reads_used : int;
  rounds : (Dna.Strand.t * profile) list;
}

let nw_trace ~settle ~target_len (reads : Dna.Strand.t array) : trace =
  let reads = List.filter (fun r -> Dna.Strand.length r > 0) (Array.to_list reads) in
  let n_reads = List.length reads in
  if n_reads = 0 then invalid_arg "Nw_consensus.reconstruct: empty cluster";
  (* Longest read as the initial backbone (the first of equals). *)
  let reference =
    List.fold_left
      (fun best r -> if Dna.Strand.length r > Dna.Strand.length best then r else best)
      (List.hd reads) reads
  in
  let first k = List.filteri (fun i _ -> i < k) reads in
  (* The depth rule: a prefix of the reads grows batch by batch until
     two successive votes agree and every column has settled. *)
  let used =
    if (not settle) || n_reads <= single_pass_max then n_reads
    else begin
      let vote_at k =
        let p = profile reference (first k) in
        (p, vote reference ~n_reads:k (candidates p))
      in
      let rec deepen used prev =
        if used = n_reads then used
        else begin
          let next = min n_reads (used + batch) in
          let p, v = vote_at next in
          if Dna.Strand.equal v prev && settled p ~used:next then next else deepen next v
        end
      in
      deepen first_batch (snd (vote_at first_batch))
    end
  in
  let used_reads = first used in
  (* Profile, vote, realign against the vote; a vote that reproduces its
     reference ends the refinements early. *)
  let rec refine reference p rounds k =
    let rounds = (reference, p) :: rounds in
    let voted = vote reference ~n_reads:used (candidates p) in
    if k = refinements || Dna.Strand.equal voted reference then List.rev rounds
    else refine voted (profile voted used_reads) rounds (k + 1)
  in
  let rounds = refine reference (profile reference used_reads) [] 0 in
  let _, last = List.nth rounds (List.length rounds - 1) in
  let codes, padded = select_columns (candidates last) target_len in
  {
    consensus = Dna.Strand.of_codes (Array.of_list (codes @ List.init padded (fun _ -> 0)));
    reads_used = used;
    rounds;
  }

(* The consensus under the depth rule, as [Nw_consensus] computes it. *)
let nw ~target_len reads = (nw_trace ~settle:true ~target_len reads).consensus

(* The full-depth consensus: every read aligned in every round. *)
let nw_full ~target_len reads = (nw_trace ~settle:false ~target_len reads).consensus

(* ---------- votes and the fallback chain ---------- *)

(* Plain per-position plurality vote. Reads shorter than [target_len]
   stop voting; positions no read covers default to A. *)
let majority ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  Dna.Strand.init_codes target_len (fun i ->
      let votes = [| 0; 0; 0; 0 |] in
      Array.iter
        (fun r ->
          if i < Dna.Strand.length r then
            votes.(Dna.Strand.get_code r i) <- votes.(Dna.Strand.get_code r i) + 1)
        reads;
      let best = ref 0 in
      for c = 1 to 3 do
        if votes.(c) > votes.(!best) then best := c
      done;
      !best)

(* Per-position vote over BMA, double-sided BMA and NW: the BMA base
   where the two BMA variants agree, the NW base otherwise. *)
let ensemble ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  let bma = bma ~target_len reads in
  let dbma = bma_double ~target_len reads in
  let nw = nw ~target_len reads in
  Dna.Strand.init_codes target_len (fun i ->
      let a = Dna.Strand.get_code bma i
      and b = Dna.Strand.get_code dbma i
      and c = Dna.Strand.get_code nw i in
      if a = b then a else c)

(* NW -> BMA -> majority, absorbing exceptions at each step. [None] for
   an empty cluster or if every step raised. *)
let fallback ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t option =
  if Array.length reads = 0 then None
  else
    List.find_map
      (fun f -> match f ~target_len reads with s -> Some s | exception _ -> None)
      [ nw; bma; majority ]

(* Run a pool-native reconstructor on a plain array: the reads go into a
   fresh pool and the slice addresses all of them, in order. *)
let on_pool recon ~target_len (reads : Dna.Strand.t array) =
  recon ~target_len (Dna.Strand_pool.of_strands reads) (Array.init (Array.length reads) Fun.id)
