(* The store entry: batched-get throughput against the domain pool, LRU
   cache effectiveness, and the cost of compaction. Writes
   BENCH_store.json so future changes to the store have a perf
   trajectory to regress against.

     dune exec bench/main.exe -- store            # full run
     dune exec bench/main.exe -- --smoke store    # tiny workload: checks the
                                                  # harness and JSON, not timing *)

open Exp_common

let ok_or_die label = function
  | Ok v -> v
  | Error e -> fail "store bench: %s: %s" label (Store.error_message e)

let run () =
  print_string (section "Store: batched get, cache, compaction");
  let n_objects = pick ~fast:4 ~full:8 in
  let object_bytes = pick ~fast:120 ~full:300 in
  let repeats = pick ~fast:1 ~full:3 in
  let dir = Filename.temp_dir "dnastore_bench" "" in
  (* A small shard target spreads the objects over several shards, as a
     populated store would be. *)
  let config = { Store.default_config with Store.shard_target_strands = 64 } in
  let store = ok_or_die "init" (Store.init ~config ~dir ~seed:42 ()) in
  let r = Dna.Rng.create 4242 in
  let keys = List.init n_objects (fun i -> Printf.sprintf "obj%d" i) in
  List.iter
    (fun key ->
      let data = Bytes.init object_bytes (fun _ -> Char.chr (Dna.Rng.int r 256)) in
      ok_or_die ("put " ^ key) (Store.put store ~key data))
    keys;

  (* --- batched get vs sequential (cache off: time the wetlab path) --- *)
  (* Untimed warmup: fault in the shard pools, spawn the worker pool
     and settle the allocator so the first timed run is not paying
     one-off costs the later ones don't. *)
  List.iter (fun (_, r) -> ignore (ok_or_die "warmup" r))
    (Store.get_batch ~domains:2 ~use_cache:false store keys);
  let timed_run f =
    let total = ref 0.0 in
    for _ = 1 to repeats do
      let results, dt = time f in
      List.iter (fun (key, r) -> ignore (ok_or_die ("get " ^ key) r)) results;
      total := !total +. dt
    done;
    !total /. float_of_int repeats
  in
  let sequential_s =
    timed_run (fun () ->
        List.map (fun key -> (key, Store.get ~use_cache:false store ~key)) keys)
  in
  Printf.printf "sequential get x%d: %.3f s\n%!" n_objects sequential_s;
  let domain_counts = [ 1; 2; 4 ] in
  let batched =
    List.map
      (fun domains ->
        let s = timed_run (fun () -> Store.get_batch ~domains ~use_cache:false store keys) in
        Printf.printf "batched get x%d (--domains %d): %.3f s (%.2fx)\n%!" n_objects domains s
          (sequential_s /. s);
        (domains, s))
      domain_counts
  in

  (* --- cache hit ratio on a re-read working set --- *)
  let hits0 = (Store.stats store).Store.cache_hits
  and misses0 = (Store.stats store).Store.cache_misses in
  let reread () =
    List.iter (fun (key, r) -> ignore (ok_or_die ("cached get " ^ key) r))
      (Store.get_batch store keys)
  in
  reread ();
  (* First pass fills the cache, later passes should hit. *)
  let cache_rounds = pick ~fast:2 ~full:4 in
  for _ = 2 to cache_rounds do
    reread ()
  done;
  let hits = (Store.stats store).Store.cache_hits - hits0
  and misses = (Store.stats store).Store.cache_misses - misses0 in
  let hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  print_string (Dnastore.Report.cache_counters ~label:"store" ~hits ~misses);

  (* --- compaction cost --- *)
  List.iteri
    (fun i key -> if i mod 2 = 0 then ok_or_die ("rm " ^ key) (Store.delete store ~key))
    keys;
  let cstats, compact_s = time (fun () -> ok_or_die "compact" (Store.compact store)) in
  Printf.printf "compact (%d live objects, %d -> %d strands): %.3f s\n%!"
    cstats.Store.objects_rewritten cstats.Store.strands_before cstats.Store.strands_after
    compact_s;

  (* Domain scaling is bounded by the machine: with one hardware core
     the pool spawns no workers, every [--domains N] runs serially, and
     the batched win is purely the shared per-shard sequencing. Read the
     domains-N entries against hardware_domains and pool_workers. *)
  let get_entry name s =
    entry name [ ("s_total", num s); ("speedup_vs_sequential", num (sequential_s /. s)) ]
  in
  write_bench "BENCH_store.json"
    ~config:
      [
        ("pool_workers", Store_json.Int (Dna.Par.pool_size ()));
        ("recommended_domains", Store_json.Int (Dna.Par.default_domains ()));
        ("n_objects", Store_json.Int n_objects);
        ("object_bytes", Store_json.Int object_bytes);
        ("repeats", Store_json.Int repeats);
        ("shard_target_strands", Store_json.Int config.Store.shard_target_strands);
      ]
    ((get_entry "get/sequential" sequential_s
     :: List.map
          (fun (domains, s) -> get_entry (Printf.sprintf "get_batch/domains-%d" domains) s)
          batched)
    @ [
        entry "cache/reread-hit-ratio"
          [
            ("hits", Store_json.Int hits);
            ("misses", Store_json.Int misses);
            ("hit_ratio", num hit_ratio);
          ];
        entry "compact/half-deleted"
          [
            ("s_total", num compact_s);
            ("objects_rewritten", Store_json.Int cstats.Store.objects_rewritten);
            ("strands_before", Store_json.Int cstats.Store.strands_before);
            ("strands_after", Store_json.Int cstats.Store.strands_after);
          ];
      ]);
  rm_rf dir
