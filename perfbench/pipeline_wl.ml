(* The [pipeline] workload: one closed-loop client round-trips a random
   file through [Pipeline.run] (default pooled spine, q-gram clustering,
   NW consensus; i.i.d. channel at 6% error, coverage 10 — the paper's
   Table III setting), trip after trip until the run's time is up.

   The traced run composes the same pooled spine from the layers'
   public calls, one span per call, and checks each trip against an
   untraced [Pipeline.run] under the same seed. *)

let file_bytes ~smoke = if smoke then 2048 else 8 * 1024

(* Trip [i]'s stream: derived from the workload seed plus the trip
   number (trip -1 is the untimed warm-up). *)
let trip_rng seed i = Dna.Rng.create ((seed lsl 20) + i + 1)

let make_input ~smoke seed =
  let rng = Dna.Rng.create (seed lxor 0x51f0) in
  Bytes.init (file_bytes ~smoke) (fun _ -> Char.chr (Dna.Rng.int rng 256))

(* Set-up is input generation plus one warm-up trip (the Par pool
   spawns, per-domain scratch fills). It is done [repeats] times and the
   median CPU time reported, so a change that moves work into set-up
   shows. *)
let setup ~(args : Outcome.args) ~repeats =
  let times = Array.make repeats 0.0 in
  let input = ref Bytes.empty in
  for r = 0 to repeats - 1 do
    let inp, dt =
      Clock.cpu_time (fun () ->
          let inp = make_input ~smoke:args.smoke args.seed in
          ignore (Dnastore.Pipeline.run ~domains:args.domains (trip_rng args.seed (-1)) inp);
          inp)
    in
    input := inp;
    times.(r) <- dt
  done;
  (!input, Stats.median times)

(* What the oracle expects back: the input, or — in the self-test — a
   copy with one byte flipped, which every trip must then fail on. *)
let expected_of ~(args : Outcome.args) input =
  let e = Bytes.copy input in
  if args.tamper then Bytes.set e 0 (Char.chr (Char.code (Bytes.get e 0) lxor 1));
  e

let exact expected (o : Dnastore.Pipeline.outcome) =
  match o.file with Some b -> Bytes.equal b expected | None -> false

let config ~(args : Outcome.args) =
  [
    ("file_bytes", Json.int (file_bytes ~smoke:args.smoke));
    ("error_rate", Json.num 0.06);
    ("coverage", Json.int 10);
    ("spine", Json.str "pooled");
    ("clustering", Json.str "qgram");
    ("reconstruction", Json.str "nw");
  ]

let run_untraced ~(args : Outcome.args) ~setup_s input : Outcome.t =
  let expected = expected_of ~args input in
  let lat = ref [] in
  let failed = ref 0 in
  let cpu0 = Clock.cpu () in
  let t0 = Clock.now () in
  let trip = ref 0 in
  while !trip = 0 || Clock.now () -. t0 < args.seconds do
    let o, dt =
      Clock.time (fun () -> Dnastore.Pipeline.run ~domains:args.domains (trip_rng args.seed !trip) input)
    in
    lat := dt :: !lat;
    if not (exact expected o) then incr failed;
    incr trip
  done;
  let cpu_s = Clock.cpu () -. cpu0 in
  let lat = Array.of_list !lat in
  let trips = float_of_int !trip in
  let kib = float_of_int (Bytes.length input) /. 1024.0 in
  {
    attempted = !trip;
    failed = !failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("cpu_ms_per_op", 1000.0 *. cpu_s /. trips);
        ("peak_rss_mb", Sysinfo.peak_rss_mb ());
      ];
    report =
      [
        ("pipeline_kib_per_s", kib *. trips /. Stats.sum lat);
        ("trip_p50_ms", 1000.0 *. Stats.median lat);
        ("trip_p90_ms", 1000.0 *. Stats.quantile lat 0.9);
        ("trips", trips);
        ("failed_frac", float_of_int !failed /. trips);
      ];
    config = config ~args;
  }

(* ---- traced run ---- *)

type trip_layers = {
  encode_s : float;
  decode_s : float;
  corrected : int;
  failed_cw : int;
  missing : int;
  sequence_s : float;
  reads : int;
  strands : int;
  configure_s : float;
  cluster_s : float;
  edit_checks : int;
  merges : int;
  clusters : int;
  accuracy : float;
  cluster_times : float array;  (** per-cluster consensus seconds *)
  words : float array;  (** per-cluster minor words *)
  recon_wall_s : float;
  sort_s : float;
  trip_s : float;  (** the whole composed trip *)
  decoded : Bytes.t option;
}

(* The pooled spine of [Pipeline.run], call for call and draw for draw:
   encode, sequence into one arena, auto-configure and run the scaled
   clustering engine, sort the slices, reconstruct each slice over the
   Par pool, decode. *)
let composed_trip tr ~domains ~trip rng input =
  let params = Codec.Params.default and layout = Codec.Layout.Baseline in
  let trip_span = Trace.enter tr ~rid:trip "pipeline.trip" in
  let span_s name f = Trace.time tr ~parent:(Trace.id trip_span) ~rid:trip name f in
  let enc, encode_s = span_s "codec.encode" (fun () -> Codec.File_codec.encode ~layout ~params input) in
  let stages = Dnastore.Pipeline.default_stages () in
  let pool = Dna.Strand_pool.create () in
  let origins, sequence_s =
    span_s "simulator.sequence" (fun () ->
        Simulator.Sequencer.sequence_pool stages.sequencing stages.channel rng
          enc.Codec.File_codec.strands ~pool)
  in
  let (reads, cparams), configure_s =
    span_s "clustering.configure" (fun () ->
        let reads = Dna.Strand_pool.to_array pool in
        let read_len = Dna.Strand.length reads.(0) in
        let cparams =
          { (Clustering.Cluster.default_params ~kind:Clustering.Signature.Qgram ~read_len ()) with domains }
        in
        let config = Clustering.Auto_config.configure cparams rng reads in
        (reads, Clustering.Auto_config.apply config cparams))
  in
  let result, cluster_s =
    span_s "clustering.run" (fun () -> Clustering.Cluster.run_scaled cparams rng reads)
  in
  let slices = Array.of_list result.Clustering.Cluster.clusters in
  let (), sort_s = span_s "core.sort_slices" (fun () -> Dnastore.Pipeline.sort_cluster_slices pool slices) in
  let target_len = Codec.Params.strand_nt params in
  let recon, recon_wall_s =
    span_s "par.reconstruct" (fun () ->
        Dna.Par.map_array ~label:"perfbench.reconstruct" ~domains
          (fun idxs ->
            if Array.length idxs = 0 then (None, 0.0, -1.0)
            else begin
              let w0 = Gc.minor_words () in
              let t0 = Clock.now () in
              let s = Reconstruction.Nw_consensus.reconstruct_pool ~target_len pool idxs in
              (Some s, Clock.now () -. t0, Gc.minor_words () -. w0)
            end)
          slices)
  in
  let consensus = List.filter_map (fun (s, _, _) -> s) (Array.to_list recon) in
  let decoded, decode_s =
    span_s "codec.decode" (fun () ->
        Codec.File_codec.decode ~layout ~params ~n_units:enc.Codec.File_codec.n_units consensus)
  in
  let trip_s = Trace.leave tr trip_span in
  let ran = List.filter (fun (s, _, _) -> s <> None) (Array.to_list recon) in
  let corrected, failed_cw, missing, decoded =
    match decoded with
    | Ok (bytes, st) ->
        let units = Array.to_list st.Codec.File_codec.units in
        ( List.fold_left (fun a (u : Codec.Matrix_codec.unit_stats) -> a + u.corrected_bytes) 0 units,
          List.fold_left
            (fun a (u : Codec.Matrix_codec.unit_stats) -> a + List.length u.failed_codewords)
            0 units,
          st.Codec.File_codec.missing_strands,
          Some bytes )
    | Error _ -> (0, 0, 0, None)
  in
  {
    encode_s;
    decode_s;
    corrected;
    failed_cw;
    missing;
    sequence_s;
    reads = Dna.Strand_pool.length pool;
    strands = Array.length enc.Codec.File_codec.strands;
    configure_s;
    cluster_s;
    edit_checks = result.Clustering.Cluster.stats.edit_comparisons;
    merges = result.Clustering.Cluster.stats.merges;
    clusters = Array.length slices;
    accuracy = Clustering.Metrics.accuracy ~truth:origins result.Clustering.Cluster.clusters;
    cluster_times = Array.of_list (List.map (fun (_, dt, _) -> dt) ran);
    words = Array.of_list (List.map (fun (_, _, w) -> w) ran);
    recon_wall_s;
    sort_s;
    trip_s;
    decoded;
  }

let run_traced ~(args : Outcome.args) input : Outcome.t =
  let expected = expected_of ~args input in
  let tr = Trace.create () in
  let layers = ref [] and untraced = ref [] in
  let failed = ref 0 and mismatched = ref 0 in
  let t0 = Clock.now () in
  let trip = ref 0 in
  while !trip = 0 || Clock.now () -. t0 < args.seconds do
    let composed () = composed_trip tr ~domains:args.domains ~trip:!trip (trip_rng args.seed !trip) input in
    let plain () =
      Clock.time (fun () -> Dnastore.Pipeline.run ~domains:args.domains (trip_rng args.seed !trip) input)
    in
    (* Alternate which runs first, so neither side always inherits the
       other's warm caches. *)
    let l, (o, dt) =
      if !trip mod 2 = 0 then
        let l = composed () in
        (l, plain ())
      else
        let u = plain () in
        (composed (), u)
    in
    (* Self-check: the untraced run under the same seed must agree read
       for read, cluster for cluster and byte for byte. *)
    untraced := dt :: !untraced;
    let same =
      o.n_reads = l.reads && o.n_clusters = l.clusters
      && match (o.file, l.decoded) with Some a, Some b -> Bytes.equal a b | _ -> false
    in
    if not same then incr mismatched;
    if not (same && exact expected o) then incr failed;
    layers := l :: !layers;
    incr trip
  done;
  Trace.write_chrome tr args.trace_out;
  let ls = Array.of_list (List.rev !layers) in
  let untraced = Array.of_list (List.rev !untraced) in
  let per f = Array.map f ls in
  let med f = Stats.median (per f) in
  let avg f = Stats.mean (per (fun l -> float_of_int (f l))) in
  let total f = Stats.sum (per (fun l -> float_of_int (f l))) in
  let all_times = Array.concat (Array.to_list (per (fun l -> l.cluster_times))) in
  let busy l = Stats.sum l.cluster_times in
  let spans l =
    l.encode_s +. l.sequence_s +. l.configure_s +. l.cluster_s +. l.sort_s +. l.recon_wall_s +. l.decode_s
  in
  let traced_trip = med (fun l -> l.trip_s) in
  {
    attempted = Array.length ls;
    failed = !failed;
    metrics =
      [
        ("codec.encode_s", med (fun l -> l.encode_s));
        ("codec.decode_s", med (fun l -> l.decode_s));
        ("codec.corrected_bytes", avg (fun l -> l.corrected));
        ("codec.failed_codewords", avg (fun l -> l.failed_cw));
        ("codec.missing_strands", avg (fun l -> l.missing));
        ("simulator.sequence_s", med (fun l -> l.sequence_s));
        ("simulator.reads", avg (fun l -> l.reads));
        ("clustering.configure_s", med (fun l -> l.configure_s));
        ("clustering.run_s", med (fun l -> l.cluster_s));
        ("clustering.edit_checks", avg (fun l -> l.edit_checks));
        ( "clustering.merges_per_edit_check",
          Stats.ratio (total (fun l -> l.merges)) (total (fun l -> l.edit_checks)) );
        ( "clustering.clusters_per_strand",
          Stats.ratio (total (fun l -> l.clusters)) (total (fun l -> l.strands)) );
        ("clustering.accuracy", Stats.mean (per (fun l -> l.accuracy)));
        ("reconstruction.busy_s", med busy);
        ("reconstruction.cluster_p50_ms", 1000.0 *. Stats.median all_times);
        ("reconstruction.cluster_p99_ms", 1000.0 *. Stats.quantile all_times 0.99);
        ( "reconstruction.words_per_cluster",
          Stats.mean (Array.concat (Array.to_list (per (fun l -> l.words)))) );
        ("par.reconstruct_wall_s", med (fun l -> l.recon_wall_s));
        ( "par.reconstruct_efficiency",
          med (fun l -> Stats.ratio (busy l) (l.recon_wall_s *. float_of_int args.domains)) );
        ("core.sort_slices_s", med (fun l -> l.sort_s));
        (* The untraced trip under the same seed, minus the layer spans
           of the composed one: what no layer span covers. *)
        ("core.unaccounted_s", Stats.median (Array.mapi (fun i l -> untraced.(i) -. spans l) ls));
        ("trace.overhead_ms", 1000.0 *. (traced_trip -. Stats.median untraced));
      ];
    report =
      [
        ("traced_trip_p50_ms", 1000.0 *. traced_trip);
        ("untraced_trip_p50_ms", 1000.0 *. Stats.median untraced);
        ("composition_mismatches", float_of_int !mismatched);
        ("failed_frac", Stats.ratio (float_of_int !failed) (float_of_int (Array.length ls)));
      ];
    config = config ~args @ [ ("trace_file", Json.str args.trace_out) ];
  }

let run (args : Outcome.args) =
  let input, setup_s = setup ~args ~repeats:(if args.smoke then 1 else 5) in
  if args.traced then run_traced ~args input else run_untraced ~args ~setup_s input
