(* The serving front end: linearizable interleavings against a model,
   read coalescing visible in the sequencing-pass counter, and bounded
   admission. *)

let temp_serve_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "serve_test_%d_%d" (Unix.getpid ()) !counter)
    in
    dir

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Store.error_message e)

let test_config =
  { Store.default_config with Store.error_rate = 0.03; Store.cache_objects = 4 }

let random_file rng n = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int rng 256))

(* ---------- linearizable interleavings against a model ---------- *)

(* Round semantics are the spec: gets observe the round-start state,
   writes then apply in arrival order. We drive random put/get/overwrite
   interleavings from 3 clients and replay them against a Hashtbl model;
   every completion must match, and at the end no acknowledged update
   may be lost. *)
let run_interleavings seed =
  let dir = temp_serve_dir () in
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed ()) in
  let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  let rng = Dna.Rng.create (seed * 77) in
  let base_keys = List.init 4 (fun i -> Printf.sprintf "k%d" i) in
  List.iter
    (fun key ->
      let data = random_file rng 120 in
      ok_or_fail ("put " ^ key) (Store.put store ~key data);
      Hashtbl.replace model key data)
    base_keys;
  let serve =
    Serve.create ~config:{ Serve.default_config with Serve.window = 8; Serve.max_queue = 64 } store
  in
  let fresh = ref 0 in
  for round = 1 to 4 do
    let round_start = Hashtbl.copy model in
    (* Build this round's requests and, in the same arrival order, the
       expected outcome of each against the model. *)
    let expectations =
      List.init 6 (fun i ->
          let pick () = List.nth base_keys (Dna.Rng.int rng (List.length base_keys)) in
          match Dna.Rng.int rng 4 with
          | 0 ->
              let key = Printf.sprintf "fresh%d" !fresh in
              incr fresh;
              let data = random_file rng 100 in
              Hashtbl.replace model key data;
              ((i mod 3), Serve.Put { key; data }, `Ack)
          | 1 | 2 ->
              let key = if Dna.Rng.int rng 6 = 0 then "ghost" else pick () in
              let expected =
                match Hashtbl.find_opt round_start key with
                | Some bytes -> `Value bytes
                | None -> `Missing key
              in
              ((i mod 3), Serve.Get { key }, expected)
          | _ ->
              let key = pick () in
              let data = random_file rng 110 in
              Hashtbl.replace model key data;
              ((i mod 3), Serve.Overwrite { key; data }, `Ack))
    in
    List.iter
      (fun (client, request, _) ->
        match Serve.submit serve ~client request with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "submit rejected: %s" (Serve.error_message e))
      expectations;
    let completions = Serve.step serve in
    Alcotest.(check int)
      (Printf.sprintf "round %d serves the whole window" round)
      (List.length expectations) (List.length completions);
    List.iter2
      (fun (client, _, expected) (c : Serve.completion) ->
        Alcotest.(check int) "client echoed" client c.Serve.client;
        match (expected, c.Serve.result) with
        | `Ack, Ok Serve.Ack -> ()
        | `Value bytes, Ok (Serve.Value got) ->
            Alcotest.(check bytes) "get observes round-start state" bytes got
        | `Missing key, Error (Serve.Store (Store.Key_not_found k)) ->
            Alcotest.(check string) "missing key named" key k
        | _, Ok _ -> Alcotest.fail "unexpected success shape"
        | _, Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_message e))
      expectations completions
  done;
  (* No lost updates: every key decodes to the last acknowledged write. *)
  Hashtbl.iter
    (fun key expected ->
      let got = ok_or_fail ("final get " ^ key) (Store.get ~use_cache:false store ~key) in
      Alcotest.(check bytes) ("final state of " ^ key) expected got)
    model;
  let s = Serve.stats serve in
  Alcotest.(check int) "4 rounds ran" 4 s.Serve.rounds;
  Alcotest.(check int) "24 requests served" 24 s.Serve.served;
  Alcotest.(check int) "nothing rejected" 0 s.Serve.rejected

let test_interleavings_two_seeds () = List.iter run_interleavings [ 1; 2 ]

(* ---------- read coalescing ---------- *)

let test_coalescing_shares_sequencing_pass () =
  let dir = temp_serve_dir () in
  (* Cache off so every get is a genuine wetlab read, and a roomy shard
     target so all objects land in one shard. *)
  let config = { test_config with Store.cache_objects = 0 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:5 ()) in
  let rng = Dna.Rng.create 404 in
  let keys = List.init 4 (fun i -> Printf.sprintf "obj%d" i) in
  List.iter (fun key -> ok_or_fail ("put " ^ key) (Store.put store ~key (random_file rng 100))) keys;
  let shards = List.filter_map (fun key -> Store.object_shard store ~key) keys in
  Alcotest.(check (list int)) "all objects share shard 0" [ 0; 0; 0; 0 ] shards;
  let serve = Serve.create store in
  List.iteri
    (fun i key ->
      match Serve.submit serve ~client:i (Serve.Get { key }) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "submit: %s" (Serve.error_message e))
    keys;
  let before = Store.sequencing_passes store in
  let completions = Serve.step serve in
  Alcotest.(check int) "all four gets served" 4 (List.length completions);
  List.iter
    (fun (c : Serve.completion) ->
      match c.Serve.result with
      | Ok (Serve.Value _) -> ()
      | _ -> Alcotest.fail "get failed")
    completions;
  Alcotest.(check int) "four same-shard gets cost one sequencing pass" 1
    (Store.sequencing_passes store - before);
  Alcotest.(check int) "three reads rode along for free" 3
    (Serve.stats serve).Serve.coalesced_reads

(* ---------- bounded admission ---------- *)

let test_admission_rejects_overloaded () =
  let dir = temp_serve_dir () in
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:9 ()) in
  ok_or_fail "put" (Store.put store ~key:"k" (random_file (Dna.Rng.create 7) 90));
  let serve =
    Serve.create ~config:{ Serve.default_config with Serve.window = 2; Serve.max_queue = 3 } store
  in
  let admit i =
    match Serve.submit serve ~client:0 (Serve.Get { key = "k" }) with
    | Ok _ -> `Admitted
    | Error (Serve.Overloaded { queue_depth; max_queue }) ->
        Alcotest.(check int) (Printf.sprintf "rejection %d reports depth" i) 3 queue_depth;
        Alcotest.(check int) "and the limit" 3 max_queue;
        `Rejected
    | Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_message e)
  in
  List.iter (fun i -> Alcotest.(check bool) "first three admitted" true (admit i = `Admitted)) [ 1; 2; 3 ];
  Alcotest.(check bool) "fourth rejected, not queued" true (admit 4 = `Rejected);
  Alcotest.(check int) "queue still at the bound" 3 (Serve.queue_depth serve);
  Alcotest.(check int) "rejection counted" 1 (Serve.stats serve).Serve.rejected;
  (* A drained queue admits again. *)
  let completions = Serve.drain serve in
  Alcotest.(check int) "the three queued gets completed" 3 (List.length completions);
  Alcotest.(check bool) "admission reopens after drain" true (admit 5 = `Admitted)

(* ---------- workload machinery ---------- *)

let test_zipf_sampler () =
  let cdf = Serve.Workload.zipf_cdf ~n:10 ~s:0.99 in
  Alcotest.(check int) "cdf covers the ranks" 10 (Array.length cdf);
  Alcotest.(check bool) "cdf ends at 1" true (abs_float (cdf.(9) -. 1.0) < 1e-9);
  let rng = Dna.Rng.create 42 in
  let counts = Array.make 10 0 in
  for _ = 1 to 2000 do
    let k = Serve.Workload.zipf_draw cdf rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(9));
  Alcotest.(check bool) "skew is zipf-like (head > 2x tail)" true (counts.(0) > 2 * counts.(9))

(* Run once per mix the retired serving bench drove: read95 and read50. *)
let test_workload_run_summary read_pct () =
  let dir = temp_serve_dir () in
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:3 ()) in
  let rng = Dna.Rng.create 11 in
  let keys = List.init 4 (fun i -> Printf.sprintf "w%d" i) in
  List.iter (fun key -> ok_or_fail ("put " ^ key) (Store.put store ~key (random_file rng 90))) keys;
  let label = Printf.sprintf "read%.0f" (100.0 *. read_pct) in
  let mix = { Serve.Workload.label; Serve.Workload.read_pct } in
  let summary, completions =
    Serve.Workload.run ~mix ~n_clients:4 ~n_ops:30 ~zipf_s:0.99 ~seed:21 ~keys store
  in
  Alcotest.(check int) "every op completed" 30 summary.Serve.Workload.ops;
  Alcotest.(check int) "completions match" 30 (List.length completions);
  Alcotest.(check int) "reads + writes = ops" 30
    (summary.Serve.Workload.reads + summary.Serve.Workload.writes);
  if read_pct > 0.5 then
    Alcotest.(check bool) "read-heavy mix mostly reads" true
      (summary.Serve.Workload.reads > summary.Serve.Workload.writes)
  else
    Alcotest.(check bool) "even mix both reads and writes" true
      (summary.Serve.Workload.reads > 0 && summary.Serve.Workload.writes > 0);
  Alcotest.(check bool) "latency tail ordered" true
    (summary.Serve.Workload.p50_ms <= summary.Serve.Workload.p95_ms
    && summary.Serve.Workload.p95_ms <= summary.Serve.Workload.p99_ms);
  List.iter
    (fun (c : Serve.completion) ->
      (match c.Serve.result with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "workload op failed: %s" (Serve.error_message e));
      Alcotest.(check bool) "latency non-negative" true
        (c.Serve.completed_s >= c.Serve.submitted_s))
    completions;
  (* The JSON rendering parses back. *)
  let json = Store.Json.to_string (Serve.Workload.summary_json summary) in
  match Store.Json.of_string json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "summary JSON does not parse: %s" e

(* ---------- resilience: deadlines, degraded reads, backoff ---------- *)

let test_deadline_times_out_stale_requests () =
  let dir = temp_serve_dir () in
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:51 ()) in
  ok_or_fail "put" (Store.put store ~key:"k" (random_file (Dna.Rng.create 8) 90));
  let serve =
    Serve.create ~config:{ Serve.default_config with Serve.deadline_s = Some 0.01 } store
  in
  (match Serve.submit serve ~client:0 (Serve.Get { key = "k" }) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" (Serve.error_message e));
  Unix.sleepf 0.03;
  let before = Store.sequencing_passes store in
  (match Serve.step serve with
  | [ c ] -> (
      match c.Serve.result with
      | Error (Serve.Timed_out { waited_s; deadline_s }) ->
          Alcotest.(check bool) "waited past the deadline" true (waited_s > deadline_s);
          Alcotest.(check bool) "deadline echoed" true (abs_float (deadline_s -. 0.01) < 1e-9)
      | Ok _ -> Alcotest.fail "stale request was served"
      | Error e -> Alcotest.failf "wrong error: %s" (Serve.error_message e))
  | cs -> Alcotest.failf "expected one completion, got %d" (List.length cs));
  Alcotest.(check int) "no wetlab work spent on it" 0 (Store.sequencing_passes store - before);
  Alcotest.(check int) "timeout counted" 1 (Serve.stats serve).Serve.timed_out;
  (* A prompt request under the same config is served normally. *)
  (match Serve.submit serve ~client:0 (Serve.Get { key = "k" }) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" (Serve.error_message e));
  match Serve.step serve with
  | [ { Serve.result = Ok (Serve.Value _); _ } ] -> ()
  | _ -> Alcotest.fail "prompt request not served"

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_whole path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let small_params = { Codec.Params.payload_nt = 60; rs_data = 6; rs_parity = 3; scramble_seed = 7 }

let test_degraded_reads_answer_partial () =
  (* Damage the tail units of an object and let scrub mark it Degraded:
     with [degraded_reads] off the get fails typed; with it on, the
     same get comes back Partial with the surviving prefix intact. *)
  let dir = temp_serve_dir () in
  let config = { test_config with Store.error_rate = 0.005 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:53 ()) in
  let data = random_file (Dna.Rng.create 9) 300 in
  ok_or_fail "put" (Store.put ~params:small_params store ~key:"frayed" data);
  let path =
    match Store.object_shard store ~key:"frayed" with
    | Some shard -> (
        match Store.shard_path store ~shard with
        | Some p -> p
        | None -> Alcotest.fail "no shard file")
    | None -> Alcotest.fail "no shard"
  in
  let records, _ = Dna.Fasta.parse_string (read_whole path) in
  let keep = List.filteri (fun i _ -> i < List.length records - 12) records in
  write_whole path (Dna.Fasta.to_string keep);
  let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  (match Store.scrub store with
  | Ok r -> Alcotest.(check int) "object degraded" 1 r.Store.objects_degraded
  | Error e -> Alcotest.failf "scrub: %s" (Store.error_message e));
  let get_via config_patch =
    let serve = Serve.create ~config:config_patch store in
    (match Serve.submit serve ~client:0 (Serve.Get { key = "frayed" }) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "submit: %s" (Serve.error_message e));
    match Serve.step serve with
    | [ c ] -> (c.Serve.result, Serve.stats serve)
    | cs -> Alcotest.failf "expected one completion, got %d" (List.length cs)
  in
  (match get_via Serve.default_config with
  | Error (Serve.Store (Store.Object_degraded { key = "frayed"; _ })), st ->
      Alcotest.(check int) "no degraded answer without opt-in" 0 st.Serve.degraded
  | Ok _, _ -> Alcotest.fail "degraded object served without opt-in"
  | Error e, _ -> Alcotest.failf "wrong error: %s" (Serve.error_message e));
  match get_via { Serve.default_config with Serve.degraded_reads = true } with
  | Ok (Serve.Partial { bytes; recovered_fraction; recovered_ranges }), st ->
      Alcotest.(check int) "original length" 300 (Bytes.length bytes);
      Alcotest.(check bool) "strictly partial" true
        (recovered_fraction > 0.0 && recovered_fraction < 1.0);
      Alcotest.(check bool) "ranges reported" true (recovered_ranges <> []);
      List.iter
        (fun (a, b) ->
          Alcotest.(check bytes)
            (Printf.sprintf "range [%d,%d) intact" a b)
            (Bytes.sub data a (b - a))
            (Bytes.sub bytes a (b - a)))
        recovered_ranges;
      Alcotest.(check int) "degraded answer counted" 1 st.Serve.degraded
  | Ok _, _ -> Alcotest.fail "expected a Partial response"
  | Error e, _ -> Alcotest.failf "degraded read failed: %s" (Serve.error_message e)

let test_workload_backoff_is_bounded_and_deterministic () =
  (* Saturate a tiny scheduler: rejections must be retried under the
     seeded backoff (not spun on), the retry schedule must replay
     exactly for the same seed, and every operation must either
     complete or be counted as given up. *)
  let run_once dir_seed =
    let dir = temp_serve_dir () in
    let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:dir_seed ()) in
    let rng = Dna.Rng.create 12 in
    let keys = List.init 3 (fun i -> Printf.sprintf "s%d" i) in
    List.iter
      (fun key -> ok_or_fail ("put " ^ key) (Store.put store ~key (random_file rng 90)))
      keys;
    let config = { Serve.default_config with Serve.window = 2; Serve.max_queue = 2 } in
    let mix = { Serve.Workload.label = "hot"; Serve.Workload.read_pct = 1.0 } in
    Serve.Workload.run ~config ~mix ~n_clients:8 ~n_ops:24 ~zipf_s:0.5 ~seed:33 ~keys store
  in
  let summary, completions = run_once 57 in
  Alcotest.(check bool) "saturation rejected something" true (summary.Serve.Workload.rejected > 0);
  Alcotest.(check bool) "rejections were retried" true (summary.Serve.Workload.retries > 0);
  Alcotest.(check int) "every op completed or gave up" 24
    (summary.Serve.Workload.ops + summary.Serve.Workload.gave_up);
  List.iter
    (fun (c : Serve.completion) ->
      match c.Serve.result with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "op failed: %s" (Serve.error_message e))
    completions;
  (* Replay: the whole retry schedule derives from the seed. *)
  let summary', _ = run_once 57 in
  Alcotest.(check int) "rejected replays" summary.Serve.Workload.rejected
    summary'.Serve.Workload.rejected;
  Alcotest.(check int) "retries replay" summary.Serve.Workload.retries
    summary'.Serve.Workload.retries;
  Alcotest.(check int) "gave_up replays" summary.Serve.Workload.gave_up
    summary'.Serve.Workload.gave_up;
  Alcotest.(check int) "ops replay" summary.Serve.Workload.ops summary'.Serve.Workload.ops

let () =
  Alcotest.run "serve"
    [
      ( "linearizability",
        [
          Alcotest.test_case "put/get/overwrite interleavings (2 seeds)" `Slow
            test_interleavings_two_seeds;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "same-shard gets share one pass" `Slow
            test_coalescing_shares_sequencing_pass;
        ] );
      ( "admission",
        [ Alcotest.test_case "overload rejects, drain reopens" `Slow test_admission_rejects_overloaded ] );
      ( "workload",
        [
          Alcotest.test_case "zipf sampler skews" `Quick test_zipf_sampler;
          Alcotest.test_case "closed-loop run summary" `Slow (test_workload_run_summary 0.95);
          Alcotest.test_case "closed-loop run summary, read50" `Slow
            (test_workload_run_summary 0.50);
        ] );
      ( "resilience",
        [
          Alcotest.test_case "deadline times out stale requests" `Slow
            test_deadline_times_out_stale_requests;
          Alcotest.test_case "degraded reads answer partial" `Slow
            test_degraded_reads_answer_partial;
          Alcotest.test_case "backoff bounded and deterministic" `Slow
            test_workload_backoff_is_bounded_and_deterministic;
        ] );
    ]
