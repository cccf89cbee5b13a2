(* The boxed merge engine of Rashtchian et al. (Section VI), kept as the
   oracle for [Clustering.Cluster.run_scaled], which the pipeline's
   clustering stage runs.

   Every read starts as a singleton cluster. Each round:

   1. a random anchor of [anchor_len] bases is drawn, and a random
      representative is chosen per cluster;
   2. clusters are partitioned by the [partition_len] bases following
      the anchor's first occurrence in the representative;
   3. within a partition, representatives are summarized by signatures
      against the full gram dictionary, and pairs are compared: below
      [theta_low] they merge outright, above [theta_high] they never
      merge, and in between a (bounded) edit-distance comparison decides.

   Partitions are processed in parallel; merge decisions are applied to
   a union-find afterwards, so the result is independent of worker
   interleaving. The engine keeps one boxed signature per read and
   string partition keys in hashtables of lists, where [run_scaled]
   uses a packed [Signature.Index] and counting sort; merge decisions
   are the same, but representative sampling differs, so a seed does
   not reproduce [run_scaled] draw for draw. The tests compare the two
   engines' partitions and the benches time them against each other. *)

(* Boxed signatures: one heap object per read, compared byte by byte.
   [Clustering.Signature.Index] packs the same signatures into one flat
   array; its distances must equal [Signature.distance] here. *)
module Signature = struct
  type t =
    | Q of Bytes.t  (** presence bitmap over the 4^q gram dictionary *)
    | W of int array  (** first-occurrence position per gram; absent sentinel if none *)

  let gram_codes ~q (read : Dna.Strand.t) =
    (* Rolling 2q-bit window over the base codes. *)
    let n = Dna.Strand.length read in
    let mask = Clustering.Signature.dict_size ~q - 1 in
    let codes = Array.make (max 0 (n - q + 1)) 0 in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := ((!acc lsl 2) lor Dna.Strand.unsafe_get_code read i) land mask;
      if i >= q - 1 then codes.(i - q + 1) <- !acc
    done;
    codes

  let compute ~q (kind : Clustering.Signature.kind) (read : Dna.Strand.t) : t =
    let size = Clustering.Signature.dict_size ~q in
    match kind with
    | Qgram ->
        let bits = Bytes.make size '\000' in
        Array.iter (fun g -> Bytes.set bits g '\001') (gram_codes ~q read);
        Q bits
    | Wgram ->
        let absent = Clustering.Signature.absent_position ~read_len:(Dna.Strand.length read) in
        let pos = Array.make size absent in
        let codes = gram_codes ~q read in
        (* First occurrence wins: scan right to left. *)
        for i = Array.length codes - 1 downto 0 do
          pos.(codes.(i)) <- i
        done;
        W pos

  (* Hamming for q-grams, L1 for w-grams. *)
  let distance a b =
    match (a, b) with
    | Q xa, Q xb ->
        let n = Bytes.length xa in
        if n <> Bytes.length xb then invalid_arg "Signature.distance: size mismatch";
        let d = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get xa i <> Bytes.get xb i then incr d
        done;
        !d
    | W xa, W xb ->
        let n = Array.length xa in
        if n <> Array.length xb then invalid_arg "Signature.distance: size mismatch";
        let d = ref 0 in
        for i = 0 to n - 1 do
          d := !d + abs (xa.(i) - xb.(i))
        done;
        !d
    | Q _, W _ | W _, Q _ -> invalid_arg "Signature.distance: mixed signature kinds"
end

module Cluster = Clustering.Cluster
module Union_find = Clustering.Union_find

let now () = Unix.gettimeofday ()

let run (params : Cluster.params) rng (reads : Dna.Strand.t array) : Cluster.result =
  let n = Array.length reads in
  let dsu = Union_find.create n in
  let stats =
    {
      Cluster.signature_comparisons = 0;
      edit_comparisons = 0;
      merges = 0;
      signature_time = 0.0;
      clustering_time = 0.0;
    }
  in
  let t_start = now () in
  (* Signatures depend only on the read: compute them all up front, in
     parallel, into an immutable array the bucket workers below share
     read-only. (A lazy per-index cache here would be a data race: the
     workers run on separate domains.) *)
  let t_sig0 = now () in
  let sigs =
    Dna.Par.map_array ~label:"cluster.signatures" ~domains:params.domains
      (fun r -> Signature.compute ~q:params.gram_len params.kind r)
      reads
  in
  stats.signature_time <- now () -. t_sig0;
  let stall = ref 0 in
  let round = ref 0 in
  while !round < params.rounds && !stall < params.stall_rounds do
    incr round;
    let merges_before = stats.merges in
    (* One random representative per current cluster. *)
    let members = Hashtbl.create 64 in
    for i = 0 to n - 1 do
      let root = Union_find.find dsu i in
      let l = try Hashtbl.find members root with Not_found -> [] in
      Hashtbl.replace members root (i :: l)
    done;
    let reps =
      Hashtbl.fold
        (fun root l acc ->
          let arr = Array.of_list l in
          (root, arr.(Dna.Rng.int rng (Array.length arr))) :: acc)
        members []
    in
    (* Partition representatives by the bases following the anchor. *)
    let anchor = Dna.Strand.random rng params.anchor_len in
    let buckets = Hashtbl.create 64 in
    List.iter
      (fun (root, idx) ->
        let read = reads.(idx) in
        match Dna.Strand.find read ~pattern:anchor with
        | Some p when p + params.anchor_len + params.partition_len <= Dna.Strand.length read ->
            let key =
              Dna.Strand.to_string
                (Dna.Strand.sub read ~pos:(p + params.anchor_len) ~len:params.partition_len)
            in
            let l = try Hashtbl.find buckets key with Not_found -> [] in
            Hashtbl.replace buckets key ((root, idx) :: l)
        | Some _ | None -> () (* this cluster sits the round out *))
      reps;
    let bucket_arr =
      Hashtbl.fold (fun _ l acc -> if List.length l > 1 then Array.of_list l :: acc else acc)
        buckets []
      |> Array.of_list
    in
    (* Compare pairs within each bucket in parallel; collect merge
       decisions and counters, then apply them serially. *)
    let decisions =
      Dna.Par.map_array ~label:"cluster.buckets" ~domains:params.domains
        (fun bucket ->
          let sigs = Array.map (fun (_, idx) -> sigs.(idx)) bucket in
          let merges = ref [] in
          let sig_cmp = ref 0 and edit_cmp = ref 0 in
          let b = Array.length bucket in
          for i = 0 to b - 1 do
            for j = i + 1 to b - 1 do
              let root_i, idx_i = bucket.(i) and root_j, idx_j = bucket.(j) in
              if root_i <> root_j then begin
                incr sig_cmp;
                let d = Signature.distance sigs.(i) sigs.(j) in
                if d <= params.theta_low then merges := (root_i, root_j) :: !merges
                else if d <= params.theta_high then begin
                  incr edit_cmp;
                  match
                    Dna.Distance.levenshtein_leq ~bound:params.edit_threshold reads.(idx_i)
                      reads.(idx_j)
                  with
                  | Some _ -> merges := (root_i, root_j) :: !merges
                  | None -> ()
                end
              end
            done
          done;
          (!merges, !sig_cmp, !edit_cmp))
        bucket_arr
    in
    Array.iter
      (fun (merges, sig_cmp, edit_cmp) ->
        stats.signature_comparisons <- stats.signature_comparisons + sig_cmp;
        stats.edit_comparisons <- stats.edit_comparisons + edit_cmp;
        List.iter
          (fun (a, b) ->
            if not (Union_find.same dsu a b) then begin
              Union_find.union dsu a b;
              stats.merges <- stats.merges + 1
            end)
          merges)
      decisions;
    if stats.merges = merges_before then incr stall else stall := 0
  done;
  stats.clustering_time <- now () -. t_start;
  let clusters = Union_find.clusters dsu in
  let assignment = Array.init n (fun i -> Union_find.find dsu i) in
  { assignment; clusters; stats }
