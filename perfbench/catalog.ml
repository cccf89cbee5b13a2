(* Every metric the benchmark reports, by name and unit. The untraced
   run prints [end_to_end]; the traced run prints [per_layer]. Both
   lists are the same for every workload (BENCHMARK.json names them
   once): a per-layer metric of a layer the workload does not reach
   reads 0. README.md maps each layer metric to the end-to-end metric
   and workload it should move. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    (* codec: File_codec *)
    ("codec.encode_s", "s");
    ("codec.decode_s", "s");
    ("codec.corrected_bytes", "count");
    ("codec.failed_codewords", "count");
    ("codec.missing_strands", "count");
    (* simulator: Sequencer *)
    ("simulator.sequence_s", "s");
    ("simulator.reads", "count");
    (* clustering: Auto_config, Cluster *)
    ("clustering.configure_s", "s");
    ("clustering.run_s", "s");
    ("clustering.edit_checks", "count");
    ("clustering.merges_per_edit_check", "ratio");
    ("clustering.clusters_per_strand", "ratio");
    ("clustering.accuracy", "ratio");
    (* reconstruction: Nw_consensus *)
    ("reconstruction.busy_s", "s");
    ("reconstruction.cluster_p50_ms", "ms");
    ("reconstruction.cluster_p99_ms", "ms");
    ("reconstruction.words_per_cluster", "words");
    (* par: Par *)
    ("par.reconstruct_wall_s", "s");
    ("par.reconstruct_efficiency", "ratio");
    (* core: Pipeline glue *)
    ("core.sort_slices_s", "s");
    ("core.unaccounted_s", "s");
    (* serve: Serve *)
    ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_p99_ms", "ms");
    ("serve.step_p50_ms", "ms");
    ("serve.step_p99_ms", "ms");
    ("serve.requests_per_round", "ratio");
    ("serve.coalesced_frac", "ratio");
    ("serve.rejected", "count");
    (* store, read path: Store, Lru *)
    ("store.cache_hit_frac", "ratio");
    ("store.passes_per_miss", "ratio");
    ("store.miss_step_ms", "ms");
    (* store, write path: Store, Store_io *)
    ("store.write_step_ms", "ms");
    ("store.write_ms_growth", "ratio");
    ("store.wchar_per_user_byte", "ratio");
    ("store.write_syscalls_per_write", "ratio");
    ("store.manifest_bytes", "bytes");
    ("store.dead_strand_frac", "ratio");
    ("store.shards", "count");
    ("store.disk_bytes_per_user_byte", "ratio");
    (* loadgen: the benchmark's closed-loop clients *)
    ("loadgen.self_ms_per_op", "ms");
    (* the traced run's own cost per operation *)
    ("trace.overhead_ms", "ms");
  ]

(* A workload's measured values, completed to the full list: anything
   it did not measure reads 0. Raises on a name outside the catalog, so
   a typo cannot silently drop a metric. *)
let complete catalog (measured : (string * float) list) =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalog) then invalid_arg ("metric not in the catalog: " ^ name))
    measured;
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name measured), unit))
    catalog
