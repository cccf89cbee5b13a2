(** The end-to-end pipeline (Section III, Figure 1).

    Five swappable stages: encoding, wetlab simulation, clustering, trace
    reconstruction, decoding. Each stage is a function field in
    {!stages}, so replacing any module is building a record — the OCaml
    rendering of the paper's modularity claim. [run] wires a file through
    all five and reports per-stage wall-clock latencies (Table III) plus
    intermediate statistics.

    Every read lives in one {!Dna.Strand_pool} from the channel to the
    consensus: sequencing streams into the arena, clustering returns
    index slices, and reconstruction consumes [(pool, index)] views —
    no boxed strand per read, and per-cluster consensus state lives in
    reusable per-domain buffers ({!Reconstruction.Recon_arena}).

    [run] never raises: a crashing stage (whether fault-injected through
    [?faults] or a genuinely buggy swapped-in implementation) is caught
    and degraded — clustering falls back to singleton clusters,
    reconstruction falls back through the NW -> BMA -> majority chain per
    cluster, and decode failures surface as a structured outcome with a
    {!Codec.File_codec.partial_recovery} map of what survived. *)

type stages = {
  channel : Simulator.Channel.t;
  sequencing : Simulator.Sequencer.params;
  cluster : Dna.Rng.t -> Dna.Strand_pool.t -> int array list;
  reconstruct : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t;
}

type timings = {
  encode_s : float;
  simulate_s : float;
  demux_s : float;
  cluster_s : float;
  reconstruct_s : float;
  reconstruct_p50_s : float;
  reconstruct_p95_s : float;
  decode_s : float;
}

let zero_timings =
  {
    encode_s = 0.0;
    simulate_s = 0.0;
    demux_s = 0.0;
    cluster_s = 0.0;
    reconstruct_s = 0.0;
    reconstruct_p50_s = 0.0;
    reconstruct_p95_s = 0.0;
    decode_s = 0.0;
  }

let total_s t =
  t.encode_s +. t.simulate_s +. t.demux_s +. t.cluster_s +. t.reconstruct_s +. t.decode_s

type outcome = {
  file : Bytes.t option;  (** [None] when decoding failed outright *)
  exact : bool;  (** decoded bytes match the input exactly *)
  partial : Codec.File_codec.partial_recovery;
      (** what survived: per-unit status, recovered fraction and byte
          ranges (all-lost when [file = None]) *)
  stage_failures : (Faults.stage * string) list;
      (** stages that raised and were degraded, oldest first *)
  decode_error : string option;  (** why [file] is [None], when it is *)
  timings : timings;
  n_strands : int;
  n_reads : int;
  n_clusters : int;
  reconstruct_words_per_cluster : float;
      (** mean minor-heap words allocated per reconstructed cluster
          (exact with [domains = 1]; an approximation under parallel
          workers, whose minor collections interleave) *)
  decode_stats : Codec.File_codec.decode_stats option;
}

(* Default clustering stage: parameters auto-configured from the data
   (Section VI-B), then the scaled engine (sharded signature index +
   counting-sort partitions); clusters come back as index slices into
   the arena. *)
let cluster_default ?(kind = Clustering.Signature.Qgram) ?(domains = Dna.Par.default_domains ())
    () rng pool =
  match Dna.Strand_pool.length pool with
  | 0 -> []
  | _ ->
      let reads = Dna.Strand_pool.to_array pool in
      let read_len = Dna.Strand.length reads.(0) in
      let params = { (Clustering.Cluster.default_params ~kind ~read_len ()) with domains } in
      let config = Clustering.Auto_config.configure params rng reads in
      let params = Clustering.Auto_config.apply config params in
      let result = Clustering.Cluster.run_scaled params rng reads in
      result.Clustering.Cluster.clusters

let default_stages ?(error_rate = 0.06) ?(coverage = 10) () =
  {
    channel = Simulator.Iid_channel.create_rate ~error_rate;
    sequencing = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage);
    cluster = cluster_default ();
    reconstruct = Reconstruction.Nw_consensus.reconstruct_pool;
  }

(* Largest clusters first: when two clusters claim the same column index,
   the consensus backed by more reads wins. Equal-size clusters tie-break
   on their reads (length, then lexicographic), so the order — and
   therefore the decoded output — is identical however the clustering
   stage happened to emit them (e.g. across [--domains] settings).
   Size-sorted batching also fixes reconstruction tail latency: the Par
   pool starts the big clusters first instead of discovering them
   behind a chunk of small ones. *)
let compare_reads a b =
  match compare (Dna.Strand.length a) (Dna.Strand.length b) with
  | 0 -> Dna.Strand.compare a b
  | c -> c

let sort_cluster_slices pool (slices : int array array) : unit =
  Array.sort
    (fun a b ->
      match compare (Array.length b) (Array.length a) with
      | 0 ->
          let n = Array.length a in
          let rec go i =
            if i = n then 0
            else
              match
                compare_reads (Dna.Strand_pool.get pool a.(i)) (Dna.Strand_pool.get pool b.(i))
              with
              | 0 -> go (i + 1)
              | c -> c
          in
          go 0
      | c -> c)
    slices

(* Nearest-rank percentile of per-cluster wall times (0 when empty). *)
let percentile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Run the full pipeline on [file]. [domains] parallelizes per-cluster
   reconstruction (clustering honors its own [params.domains], set
   through [cluster_default ~domains]). [faults] injects the plan's
   seeded faults between stages and its crash/stuck faults at stage
   entry. *)
let run ?(params = Codec.Params.default) ?(layout = Codec.Layout.Baseline) ?stages
    ?(domains = Dna.Par.default_domains ()) ?faults ?prepare rng (file : Bytes.t) : outcome =
  let stages = match stages with Some s -> s | None -> default_stages () in
  let failures = ref [] in
  let note stage e = failures := (stage, Printexc.to_string e) :: !failures in
  let trigger stage = match faults with Some p -> Faults.trigger p stage | None -> () in
  let inject f x = match faults with Some p -> f p x | None -> x in
  let failed_outcome ?(timings = zero_timings) ?(n_strands = 0) ?(n_reads = 0) ?(n_clusters = 0)
      ?(n_units = 0) ?(words_per_cluster = 0.0) error =
    {
      file = None;
      exact = false;
      partial = Codec.File_codec.no_recovery ~n_units;
      stage_failures = List.rev !failures;
      decode_error = Some error;
      timings;
      n_strands;
      n_reads;
      n_clusters;
      reconstruct_words_per_cluster = words_per_cluster;
      decode_stats = None;
    }
  in
  let encoded, encode_s =
    time (fun () ->
        try
          trigger Faults.Encode;
          Some (Codec.File_codec.encode ~layout ~params file)
        with e ->
          note Faults.Encode e;
          None)
  in
  match encoded with
  | None ->
      failed_outcome ~timings:{ zero_timings with encode_s }
        "encode stage failed; nothing to recover"
  | Some encoded ->
      let strands = inject Faults.inject_strands encoded.Codec.File_codec.strands in
      let target_len = Codec.Params.strand_nt params in
      let n_units = encoded.Codec.File_codec.n_units in
      let pool, simulate_s =
        time (fun () ->
            try
              trigger Faults.Simulate;
              (* Physical pool transforms (aging decay, PCR amplification
                 bias, ... — see [Simulator.Scenario]) run between encode
                 and sequencing, drawing from the ambient rng so one seed
                 governs the whole simulated wetlab. *)
              let strands = match prepare with None -> strands | Some f -> f rng strands in
              let pool = Dna.Strand_pool.create () in
              ignore
                (Simulator.Sequencer.sequence_pool stages.sequencing stages.channel rng strands
                   ~pool);
              pool
            with e ->
              note Faults.Simulate e;
              Dna.Strand_pool.create ())
      in
      let pool =
        match faults with
        | None -> pool
        | Some plan ->
            (* Read-level faults rewrite the read bag, and committed
               arena reads are write-once — so the fault path injects
               into views and rebuilds a fresh arena. Views into the old
               arena stay valid throughout (truncations are zero-copy
               sub-views). *)
            Dna.Strand_pool.of_strands
              (Faults.inject_reads plan (Dna.Strand_pool.to_array pool))
      in
      let slices, cluster_s =
        time (fun () ->
            try
              trigger Faults.Cluster;
              stages.cluster rng pool
            with e ->
              note Faults.Cluster e;
              (* Graceful fallback: every read its own cluster. Costly in
                 decode quality, but keeps the erasure machinery fed. *)
              List.init (Dna.Strand_pool.length pool) (fun i -> [| i |]))
      in
      let slices = inject Faults.inject_cluster_slices slices in
      (* Per-cluster task results: (consensus, error, wall seconds, minor
         words allocated; -1 marks an empty cluster that ran nothing).
         Tasks run on worker domains, so errors are noted serially
         afterwards. *)
      let reconstructed, reconstruct_s =
        time (fun () ->
            let slice_arr = Array.of_list slices in
            sort_cluster_slices pool slice_arr;
            Dna.Par.map_array ~label:"pipeline.reconstruct" ~domains
              (fun idxs ->
                if Array.length idxs = 0 then (None, None, 0.0, -1.0)
                else begin
                  let w0 = Gc.minor_words () in
                  let t0 = Unix.gettimeofday () in
                  match
                    trigger Faults.Reconstruct;
                    stages.reconstruct ~target_len pool idxs
                  with
                  | s -> (Some s, None, Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)
                  | exception e ->
                      ( Reconstruction.Ensemble.reconstruct_fallback_pool ~target_len pool idxs,
                        Some (Printexc.to_string e),
                        Unix.gettimeofday () -. t0,
                        Gc.minor_words () -. w0 )
                end)
              slice_arr)
      in
      (match Array.find_opt (fun (_, err, _, _) -> err <> None) reconstructed with
      | Some (_, Some msg, _, _) -> failures := (Faults.Reconstruct, msg) :: !failures
      | _ -> ());
      let ran = List.filter (fun (r, _, _, _) -> r <> None) (Array.to_list reconstructed) in
      let cluster_times = Array.of_list (List.map (fun (_, _, dt, _) -> dt) ran) in
      let words_per_cluster =
        match
          List.filter_map
            (fun (_, _, _, dw) -> if dw >= 0.0 then Some dw else None)
            (Array.to_list reconstructed)
        with
        | [] -> 0.0
        | ws -> List.fold_left ( +. ) 0.0 ws /. float_of_int (List.length ws)
      in
      let consensus = List.filter_map (fun (r, _, _, _) -> r) ran in
      let decoded, decode_s =
        time (fun () ->
            try
              trigger Faults.Decode;
              Some (Codec.File_codec.decode ~layout ~params ~n_units consensus)
            with e ->
              note Faults.Decode e;
              None)
      in
      let timings =
        {
          encode_s;
          simulate_s;
          demux_s = 0.0;
          cluster_s;
          reconstruct_s;
          reconstruct_p50_s = percentile cluster_times 0.50;
          reconstruct_p95_s = percentile cluster_times 0.95;
          decode_s;
        }
      in
      let n_strands = Array.length strands
      and n_reads = Dna.Strand_pool.length pool
      and n_clusters = List.length slices in
      match decoded with
      | Some (Ok (bytes, stats)) ->
          {
            file = Some bytes;
            exact = Bytes.equal bytes file;
            partial = Codec.File_codec.partial ~params ~file_len:(Bytes.length bytes) stats;
            stage_failures = List.rev !failures;
            decode_error = None;
            timings;
            n_strands;
            n_reads;
            n_clusters;
            reconstruct_words_per_cluster = words_per_cluster;
            decode_stats = Some stats;
          }
      | Some (Error err) ->
          failed_outcome ~timings ~n_strands ~n_reads ~n_clusters ~n_units ~words_per_cluster
            (Codec.File_codec.error_message err)
      | None ->
          failed_outcome ~timings ~n_strands ~n_reads ~n_clusters ~n_units ~words_per_cluster
            "decode stage crashed"

let replays a b = Option.equal Bytes.equal a.file b.file && a.partial = b.partial

(* The random-access read path (Section II-F) from a file's PCR-selected
   molecules to its decoded bytes: sequence them in both orientations,
   demultiplex the file's one primer pair, cluster, reconstruct the
   largest clusters first, decode. Unlike [run] nothing here degrades:
   a stage that raises propagates. *)
let random_access ~domains stages ~seq_rng ~cluster_rng ~pair ~params ~layout ~n_units selected
    =
  let t0 = Unix.gettimeofday () in
  let sequencing = { stages.sequencing with Simulator.Sequencer.p_reverse = 0.5 } in
  let reads = Dna.Strand_pool.create () in
  ignore (Simulator.Sequencer.sequence_pool sequencing stages.channel seq_rng selected ~pool:reads);
  let t1 = Unix.gettimeofday () in
  let cores =
    match (Wetlab_io.ingest_pool [ pair ] reads).Wetlab_io.pools_by_pair with
    | [ (_, cores) ] -> cores
    | _ -> Dna.Strand_pool.create ()
  in
  let td = Unix.gettimeofday () in
  let slices = Array.of_list (stages.cluster cluster_rng cores) in
  let t2 = Unix.gettimeofday () in
  sort_cluster_slices cores slices;
  let target_len = Codec.Params.strand_nt params in
  let reconstructed =
    Dna.Par.map_array ~label:"random_access.reconstruct" ~domains
      (fun idxs ->
        if Array.length idxs = 0 then None
        else Some (time (fun () -> stages.reconstruct ~target_len cores idxs)))
      slices
  in
  let ran = List.filter_map Fun.id (Array.to_list reconstructed) in
  let t3 = Unix.gettimeofday () in
  let result = Codec.File_codec.decode ~layout ~params ~n_units (List.map fst ran) in
  let t4 = Unix.gettimeofday () in
  let cluster_times = Array.of_list (List.map snd ran) in
  ( result,
    {
      encode_s = 0.0;
      simulate_s = t1 -. t0;
      demux_s = td -. t1;
      cluster_s = t2 -. td;
      reconstruct_s = t3 -. t2;
      reconstruct_p50_s = percentile cluster_times 0.50;
      reconstruct_p95_s = percentile cluster_times 0.95;
      decode_s = t4 -. t3;
    } )
