(** The distributed clustering algorithm of Rashtchian et al. [31]
    (Section VI), with the paper's w-gram variant (Section VI-C).

    Every read starts as a singleton cluster. Each round:

    1. a random anchor of [anchor_len] bases is drawn, and a random
       representative is chosen per cluster;
    2. clusters are partitioned by the [partition_len] bases following
       the anchor's first occurrence in the representative;
    3. within a partition, pairs of representatives are compared by
       their signatures over the full 4^q gram dictionary: below
       [theta_low] they merge outright, above [theta_high] they never
       merge, and in between a (bounded) edit-distance comparison
       decides. A pair the round has already joined through other
       merges in its partition is not compared at all, so a partition
       of k representatives makes as few as k - 1 comparisons.

    Partitions are processed in parallel; merge decisions are applied to
    a union-find afterwards, in a fixed order, so the result is
    independent of worker interleaving. *)

type params = {
  rounds : int;  (** maximum rounds; the loop stops early once converged *)
  stall_rounds : int;  (** stop after this many consecutive merge-free rounds *)
  anchor_len : int;
  partition_len : int;
  gram_len : int;  (** q: signatures cover the 4^q gram dictionary *)
  kind : Signature.kind;
  theta_low : int;
  theta_high : int;
  edit_threshold : int;  (** merge when edit distance is at most this *)
  domains : int;
}

let default_params ?(kind = Signature.Qgram) ~read_len () =
  {
    rounds = 160;
    stall_rounds = 14;
    anchor_len = 3;
    partition_len = 4;
    gram_len = 4;
    kind;
    (* Conservative defaults; use [Auto_config] to fit them to the data
       instead (Section VI-B). *)
    theta_low = (match kind with Signature.Qgram -> 30 | Signature.Wgram -> read_len * 12);
    theta_high = (match kind with Signature.Qgram -> 60 | Signature.Wgram -> read_len * 30);
    edit_threshold = max 4 (read_len / 3);
    domains = Dna.Par.default_domains ();
  }

type stats = {
  mutable signature_comparisons : int;
  mutable edit_comparisons : int;
  mutable merges : int;
  mutable signature_time : float;
  mutable clustering_time : float;
}

type result = {
  assignment : int array;  (** cluster root per read index *)
  clusters : int array list;  (** member read indices per cluster *)
  stats : stats;
}

(* Built for millions of reads: flat arrays, no per-read boxes.

   - representatives come from one reservoir-sampling pass over the
     reads (one rng draw per read, serial, so the result is independent
     of the worker count);
   - partitions are integer keys (the 2*partition_len-bit code of the
     bases after the anchor) bucketed by counting sort — no string keys,
     no per-bucket list cells;
   - signatures live in a flat packed {!Signature.Index} built once in
     parallel (sharded rows, free merge) and compared by SWAR popcount;
   - bucket segments are compared in parallel over the Par pool, each
     skipping the pairs it has already joined, and merge decisions
     applied serially in segment order, so the assignment is
     bit-identical for every [domains] value. *)
let run_scaled params rng (reads : Dna.Strand.t array) : result =
  let n = Array.length reads in
  let dsu = Union_find.create n in
  let stats =
    {
      signature_comparisons = 0;
      edit_comparisons = 0;
      merges = 0;
      signature_time = 0.0;
      clustering_time = 0.0;
    }
  in
  let t_start = Dna.Clock.now () in
  let t_sig0 = Dna.Clock.now () in
  let index =
    Signature.Index.build ~domains:params.domains ~q:params.gram_len params.kind reads
  in
  stats.signature_time <- Dna.Clock.now () -. t_sig0;
  let nkeys = 1 lsl (2 * params.partition_len) in
  (* Per-round scratch, allocated once. *)
  let cnt = Array.make n 0 in
  let rep = Array.make n 0 in
  let roots = Array.make n 0 in
  let entry_root = Array.make n 0 in
  let entry_idx = Array.make n 0 in
  let entry_key = Array.make n 0 in
  let bucket_start = Array.make (nkeys + 1) 0 in
  let cursor = Array.make nkeys 0 in
  let order_root = Array.make n 0 in
  let order_idx = Array.make n 0 in
  let stall = ref 0 in
  let round = ref 0 in
  while !round < params.rounds && !stall < params.stall_rounds do
    incr round;
    let merges_before = stats.merges in
    (* One random representative per cluster, by reservoir sampling: the
       k-th member seen replaces the current pick with probability 1/k,
       a uniform choice without building member lists. *)
    let n_roots = ref 0 in
    for i = 0 to n - 1 do
      let root = Union_find.find dsu i in
      if cnt.(root) = 0 then begin
        roots.(!n_roots) <- root;
        incr n_roots
      end;
      cnt.(root) <- cnt.(root) + 1;
      if Dna.Rng.int rng cnt.(root) = 0 then rep.(root) <- i
    done;
    let anchor = Dna.Strand.random rng params.anchor_len in
    (* Key every represented cluster by the partition bases. *)
    let n_entries = ref 0 in
    for r = 0 to !n_roots - 1 do
      let root = roots.(r) in
      cnt.(root) <- 0 (* reset for the next round as we go *);
      let idx = rep.(root) in
      let read = reads.(idx) in
      match Dna.Strand.find read ~pattern:anchor with
      | Some p when p + params.anchor_len + params.partition_len <= Dna.Strand.length read
        ->
          let key = ref 0 in
          for b = 0 to params.partition_len - 1 do
            key :=
              (!key lsl 2)
              lor Dna.Strand.unsafe_get_code read (p + params.anchor_len + b)
          done;
          entry_root.(!n_entries) <- root;
          entry_idx.(!n_entries) <- idx;
          entry_key.(!n_entries) <- !key;
          incr n_entries
      | Some _ | None -> () (* this cluster sits the round out *)
    done;
    (* Counting sort into buckets. *)
    Array.fill bucket_start 0 (nkeys + 1) 0;
    for e = 0 to !n_entries - 1 do
      bucket_start.(entry_key.(e) + 1) <- bucket_start.(entry_key.(e) + 1) + 1
    done;
    for k = 1 to nkeys do
      bucket_start.(k) <- bucket_start.(k) + bucket_start.(k - 1)
    done;
    Array.blit bucket_start 0 cursor 0 nkeys;
    for e = 0 to !n_entries - 1 do
      let k = entry_key.(e) in
      order_root.(cursor.(k)) <- entry_root.(e);
      order_idx.(cursor.(k)) <- entry_idx.(e);
      cursor.(k) <- cursor.(k) + 1
    done;
    (* Bucket segments worth comparing (>= 2 members). *)
    let segments = ref [] in
    for k = nkeys - 1 downto 0 do
      if bucket_start.(k + 1) - bucket_start.(k) > 1 then
        segments := (bucket_start.(k), bucket_start.(k + 1)) :: !segments
    done;
    let segments = Array.of_list !segments in
    (* Each root has one representative per round, so segments hold
       disjoint roots and a segment's merges touch no other segment. Its
       pairs are visited in the order their unions are applied (i
       descending, then j descending); a union-find over the segment's
       positions skips every pair the round has already joined, whose
       union would change nothing, so a segment of k positions emits at
       most k - 1 merges. *)
    let decisions =
      Dna.Par.map_array ~label:"cluster.buckets" ~domains:params.domains
        (fun (lo, hi) ->
          let joined = Union_find.create (hi - lo) in
          let merges = ref [] in
          let sig_cmp = ref 0 and edit_cmp = ref 0 in
          for i = hi - 2 downto lo do
            for j = hi - 1 downto i + 1 do
              if not (Union_find.same joined (i - lo) (j - lo)) then begin
                let join () =
                  Union_find.union joined (i - lo) (j - lo);
                  merges := (order_root.(i), order_root.(j)) :: !merges
                in
                incr sig_cmp;
                let d = Signature.Index.distance index order_idx.(i) order_idx.(j) in
                if d <= params.theta_low then join ()
                else if d <= params.theta_high then begin
                  incr edit_cmp;
                  match
                    Dna.Distance.levenshtein_leq ~bound:params.edit_threshold
                      reads.(order_idx.(i))
                      reads.(order_idx.(j))
                  with
                  | Some _ -> join ()
                  | None -> ()
                end
              end
            done
          done;
          (List.rev !merges, !sig_cmp, !edit_cmp))
        segments
    in
    Array.iter
      (fun (merges, sig_cmp, edit_cmp) ->
        stats.signature_comparisons <- stats.signature_comparisons + sig_cmp;
        stats.edit_comparisons <- stats.edit_comparisons + edit_cmp;
        List.iter
          (fun (a, b) ->
            Union_find.union dsu a b;
            stats.merges <- stats.merges + 1)
          merges)
      decisions;
    if stats.merges = merges_before then incr stall else stall := 0
  done;
  stats.clustering_time <- Dna.Clock.now () -. t_start;
  let clusters = Union_find.clusters dsu in
  let assignment = Array.init n (fun i -> Union_find.find dsu i) in
  { assignment; clusters; stats }
