(* Scenario engine: new channel models (aging, Gilbert-Elliott bursts,
   trace replay), the PCR determinism/bias contracts, stack composition,
   JSON round-trips, and end-to-end replay through Scenario_run. *)

let strand_eq = Alcotest.testable (Fmt.of_to_string Dna.Strand.to_string) Dna.Strand.equal

(* ---------- pooled paths: every new channel must replay its boxed
   oracle draw for draw ---------- *)

let test_pool_aging () =
  Read_oracle.check_pool_matches_boxed "aging"
    ~boxed:(Channel_oracle.aging Simulator.Aging_channel.default_params)
    (Simulator.Aging_channel.create ())

(* The archive damages survivors through the aging channel: same
   survivors, same damage, same discarded wrecks as the boxed pass. The
   heavy nicking makes zero-length wrecks common. *)
let test_age_pool_matches_boxed () =
  let p =
    {
      Simulator.Aging_channel.default_params with
      Simulator.Aging_channel.years = 20.0;
      per_base_scale = 0.5;
      sub_fraction = 0.5;
    }
  in
  let strands = Array.init 200 (fun i -> Dna.Strand.random (Dna.Rng.create i) 60) in
  let expected = Channel_oracle.age_pool p (Dna.Rng.create 5) strands in
  let got = Simulator.Aging_channel.age_pool ~params:p (Dna.Rng.create 5) strands in
  Alcotest.(check int) "survivors" (Array.length expected) (Array.length got);
  Array.iteri (fun i s -> Alcotest.check strand_eq (Printf.sprintf "survivor %d" i) s got.(i)) expected

let test_pool_burst () =
  Read_oracle.check_pool_matches_boxed "burst"
    ~boxed:(Channel_oracle.burst Simulator.Burst_channel.default_params)
    (Simulator.Burst_channel.create ())

let fitted_profile () =
  let path = Filename.temp_file "test_trace" ".fastq" in
  Simulator.Trace_channel.write_synthetic ~seed:7 path;
  let profile =
    match Simulator.Trace_channel.fit path with
    | Ok p -> p
    | Error e -> Alcotest.failf "trace fit: %s" e
  in
  Sys.remove path;
  profile

let test_pool_trace () =
  let profile = fitted_profile () in
  Read_oracle.check_pool_matches_boxed "trace" ~boxed:(Channel_oracle.trace profile)
    (Simulator.Trace_channel.create profile)

let test_pool_composed_stack () =
  (* A chained stack (burst after iid) built by the engine replays the
     boxed models applied in order. *)
  let sc =
    {
      Simulator.Scenario.name = "stack";
      description = "";
      stages =
        [
          Simulator.Scenario.Read (Simulator.Scenario.Iid 0.02);
          Simulator.Scenario.Read (Simulator.Scenario.Burst Simulator.Burst_channel.default_params);
        ];
      floors = [];
    }
  in
  match Simulator.Scenario.build sc with
  | Error e -> Alcotest.fail e
  | Ok b ->
      Read_oracle.check_pool_matches_boxed "iid+burst"
        ~boxed:(fun rng s ->
          Channel_oracle.burst Simulator.Burst_channel.default_params rng
            (Channel_oracle.iid (Simulator.Iid_channel.default_params ~error_rate:0.02) rng s))
        b.Simulator.Scenario.channel

(* After a transmit, the oracle, the emitter and the one-read
   [Channel.transmit] must leave the rng in the same state — equality of
   the next draw is the sharpest cheap probe — and the two production
   paths must return the oracle's read. *)
let test_rng_state_after_transmit () =
  let profile = fitted_profile () in
  List.iter
    (fun (name, boxed, ch) ->
      let s = Dna.Strand.random (Dna.Rng.create 3) 80 in
      let r1 = Dna.Rng.create 9 and r2 = Dna.Rng.create 9 and r3 = Dna.Rng.create 9 in
      let expected = boxed r1 s in
      let pool = Dna.Strand_pool.create () in
      Simulator.Channel.transmit_into ch r2 s pool;
      let emitted = Dna.Strand_pool.get pool (Dna.Strand_pool.commit pool) in
      let single = Simulator.Channel.transmit ch r3 s in
      let next = Dna.Rng.int r1 1_000_000 in
      Alcotest.(check int) (name ^ ": rng state after transmit") next (Dna.Rng.int r2 1_000_000);
      Alcotest.(check int)
        (name ^ ": rng state after one-read transmit")
        next (Dna.Rng.int r3 1_000_000);
      Alcotest.check strand_eq (name ^ ": emitted read") expected emitted;
      Alcotest.check strand_eq (name ^ ": one-read transmit") expected single)
    [
      ( "aging",
        Channel_oracle.aging Simulator.Aging_channel.default_params,
        Simulator.Aging_channel.create () );
      ( "burst",
        Channel_oracle.burst Simulator.Burst_channel.default_params,
        Simulator.Burst_channel.create () );
      ("trace", Channel_oracle.trace profile, Simulator.Trace_channel.create profile);
    ]

(* ---------- aging ---------- *)

let test_aging_math () =
  let p = Simulator.Aging_channel.default_params in
  let c = Simulator.Aging_channel.cumulative p in
  Alcotest.(check bool) "cumulative positive" true (c > 0.0);
  Alcotest.(check (float 1e-12))
    "survival" (exp (-.c))
    (Simulator.Aging_channel.survival p);
  Alcotest.(check (float 1e-12))
    "dropout + survival = 1" 1.0
    (Simulator.Aging_channel.survival p +. Simulator.Aging_channel.dropout p);
  (* Doubling years doubles the exposure. *)
  Alcotest.(check (float 1e-12))
    "linear in years" (2.0 *. c)
    (Simulator.Aging_channel.cumulative { p with Simulator.Aging_channel.years = 2.0 *. p.years })

let test_aging_dropout_rate () =
  (* At high years the pool thins at the predicted rate. *)
  let p = { Simulator.Aging_channel.default_params with Simulator.Aging_channel.years = 20.0 } in
  let strands = Array.init 2000 (fun i -> Dna.Strand.random (Dna.Rng.create i) 60) in
  let aged = Simulator.Aging_channel.age_pool ~params:p (Dna.Rng.create 5) strands in
  let kept = float_of_int (Array.length aged) /. 2000.0 in
  let expected = Simulator.Aging_channel.survival p in
  Alcotest.(check bool)
    (Printf.sprintf "kept %.3f ~ survival %.3f" kept expected)
    true
    (abs_float (kept -. expected) < 0.05)

let test_aging_deterministic () =
  let strands = Array.init 50 (fun i -> Dna.Strand.random (Dna.Rng.create i) 60) in
  let a = Simulator.Aging_channel.age_pool (Dna.Rng.create 11) strands in
  let b = Simulator.Aging_channel.age_pool (Dna.Rng.create 11) strands in
  Alcotest.(check int) "same pool size" (Array.length a) (Array.length b);
  Array.iteri (fun i s -> Alcotest.check strand_eq "same strand" s b.(i)) a

let test_aging_zero_years_identity () =
  let p = { Simulator.Aging_channel.default_params with Simulator.Aging_channel.years = 0.0 } in
  let s = Dna.Strand.random (Dna.Rng.create 2) 100 in
  Alcotest.check strand_eq "no decay at t=0" s
    (Simulator.Channel.transmit (Simulator.Aging_channel.create ~params:p ()) (Dna.Rng.create 3) s);
  Alcotest.(check (float 0.0)) "no dropout at t=0" 0.0 (Simulator.Aging_channel.dropout p)

(* ---------- bursts ---------- *)

let test_burst_stationary () =
  let p = Simulator.Burst_channel.default_params in
  let b = Simulator.Burst_channel.stationary_bad p in
  Alcotest.(check (float 1e-12))
    "stationary formula"
    (p.Simulator.Burst_channel.p_enter
    /. (p.Simulator.Burst_channel.p_enter +. p.Simulator.Burst_channel.p_exit))
    b;
  Alcotest.(check (float 1e-12))
    "mean rate mixes states"
    ((b *. p.Simulator.Burst_channel.p_bad) +. ((1.0 -. b) *. p.Simulator.Burst_channel.p_good))
    (Simulator.Burst_channel.mean_error_rate p)

let test_burst_identity_when_quiet () =
  (* Never entering the bad state and a zero good-state rate is the
     identity channel. *)
  let p =
    {
      Simulator.Burst_channel.default_params with
      Simulator.Burst_channel.p_enter = 0.0;
      p_good = 0.0;
    }
  in
  let s = Dna.Strand.random (Dna.Rng.create 4) 150 in
  Alcotest.check strand_eq "identity" s
    (Simulator.Channel.transmit (Simulator.Burst_channel.create ~params:p ()) (Dna.Rng.create 5) s)

let test_burst_errors_cluster () =
  (* Errors must arrive in runs: compare the realized error profile's
     clustering against an iid channel of the same mean rate by counting
     adjacent-error pairs on substitution-only versions. *)
  let p =
    {
      Simulator.Burst_channel.p_enter = 0.02;
      p_exit = 0.2;
      p_good = 0.0;
      p_bad = 0.8;
      bad_del = 0.0;
      bad_ins = 0.0 (* substitutions only: positions stay aligned *);
    }
  in
  let rate = Simulator.Burst_channel.mean_error_rate p in
  let len = 400 and trials = 200 in
  let rng = Dna.Rng.create 6 in
  let adjacent channel =
    let pairs = ref 0 and errors = ref 0 in
    for _ = 1 to trials do
      let s = Dna.Strand.random rng len in
      let out = Simulator.Channel.transmit channel rng s in
      let prev = ref false in
      for i = 0 to len - 1 do
        let e =
          Dna.Strand.length out > i
          && not (Dna.Strand.unsafe_get_code out i = Dna.Strand.unsafe_get_code s i)
        in
        if e then incr errors;
        if e && !prev then incr pairs;
        prev := e
      done
    done;
    (float_of_int !pairs, float_of_int !errors)
  in
  let bp, be = adjacent (Simulator.Burst_channel.create ~params:p ()) in
  let ip, ie =
    adjacent
      (Simulator.Iid_channel.create
         { Simulator.Iid_channel.p_ins = 0.0; p_del = 0.0; p_sub = rate })
  in
  (* Similar total error mass, far more adjacency under bursts. *)
  Alcotest.(check bool)
    (Printf.sprintf "comparable error mass (%.0f vs %.0f)" be ie)
    true
    (be > 0.5 *. ie && be < 2.0 *. ie);
  Alcotest.(check bool)
    (Printf.sprintf "bursty adjacency (%.0f vs %.0f pairs)" bp ip)
    true
    (bp > 3.0 *. ip)

(* ---------- trace replay ---------- *)

let test_trace_fit_matches_empirical () =
  let path = Filename.temp_file "test_trace" ".fastq" in
  Simulator.Trace_channel.write_synthetic ~seed:21 path;
  let profile =
    match Simulator.Trace_channel.fit path with
    | Ok p -> p
    | Error e -> Alcotest.failf "fit: %s" e
  in
  let quals, errors = Dna.Fastq.fold_file path ~init:[] ~f:(fun acc r -> r.Dna.Fastq.qual :: acc) in
  Sys.remove path;
  Alcotest.(check int) "no parse errors" 0 (List.length errors);
  let sum, n =
    List.fold_left
      (fun (s, n) q ->
        ( Array.fold_left (fun s qi -> s +. Simulator.Trace_channel.phred_to_p qi) s q,
          n + Array.length q ))
      (0.0, 0) quals
  in
  let empirical = sum /. float_of_int n in
  Alcotest.(check (float 1e-9))
    "fitted mean = empirical per-base rate" empirical
    profile.Simulator.Trace_channel.mean_rate;
  (* And the channel's realized rate lands near the fitted rate. *)
  let ch = Simulator.Trace_channel.create profile in
  let prof = Simulator.Channel.measure_error_profile ch (Dna.Rng.create 8) ~strand_len:120 ~trials:400 in
  let realized = Array.fold_left ( +. ) 0.0 prof /. float_of_int (Array.length prof) in
  Alcotest.(check bool)
    (Printf.sprintf "realized %.4f within 35%% of fitted %.4f" realized
       profile.Simulator.Trace_channel.mean_rate)
    true
    (abs_float (realized -. profile.Simulator.Trace_channel.mean_rate)
    < 0.35 *. profile.Simulator.Trace_channel.mean_rate)

let test_trace_fit_empty () =
  (match Simulator.Trace_channel.fit "/nonexistent/trace.fastq" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fit of a missing file must fail");
  match Simulator.Trace_channel.fit_qualities [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fit of no reads must fail"

(* ---------- PCR determinism and bias ---------- *)

let test_pcr_cycles0_identity () =
  let strands = Array.init 7 (fun i -> Dna.Strand.random (Dna.Rng.create i) 40) in
  let pop =
    Simulator.Pcr.amplify
      ~params:{ Simulator.Pcr.default_params with Simulator.Pcr.cycles = 0 }
      (Dna.Rng.create 5) strands
  in
  Alcotest.(check int) "no new variants" 7 (List.length pop);
  List.iteri
    (fun i (s, c) ->
      Alcotest.(check int) "count 1" 1 c;
      Alcotest.check strand_eq "same molecule, same order" strands.(i) s)
    pop

let test_pcr_family_stream_independence () =
  (* A family's amplification draws must not depend on what else is in
     the tube: family a amplifies identically whether it shares the
     pool with b or with c. *)
  let params =
    { Simulator.Pcr.default_params with Simulator.Pcr.cycles = 8; p_sub = 0.004 }
  in
  let a = Dna.Strand.random (Dna.Rng.create 1) 60 in
  let b = Dna.Strand.random (Dna.Rng.create 2) 60 in
  let c = Dna.Strand.random (Dna.Rng.create 3) 60 in
  let solo = Simulator.Pcr.amplify ~params (Dna.Rng.create 9) [| a |] in
  let with_b = Simulator.Pcr.amplify ~params (Dna.Rng.create 9) [| a; b |] in
  let with_c = Simulator.Pcr.amplify ~params (Dna.Rng.create 9) [| a; c |] in
  let prefix n l = List.filteri (fun i _ -> i < n) l in
  let check_prefix name other =
    let p = prefix (List.length solo) other in
    Alcotest.(check int) (name ^ ": family size") (List.length solo) (List.length p);
    List.iter2
      (fun (s1, c1) (s2, c2) ->
        Alcotest.check strand_eq (name ^ ": variant") s1 s2;
        Alcotest.(check int) (name ^ ": count") c1 c2)
      solo p
  in
  check_prefix "a|b" with_b;
  check_prefix "a|c" with_c

let test_pcr_bias_lognormal_skew () =
  (* With p_sub = 0 every family stays one variant, so per-variant
     abundance is per-origin coverage; bias must spread it. *)
  let no_sub sd =
    { Simulator.Pcr.default_params with Simulator.Pcr.cycles = 10; p_sub = 0.0; bias_sd = sd }
  in
  let strands = Array.init 60 (fun i -> Dna.Strand.random (Dna.Rng.create i) 50) in
  let skew sd =
    Simulator.Pcr.abundance_skew
      (Simulator.Pcr.amplify ~params:(no_sub sd) (Dna.Rng.create 4) strands)
  in
  let s0 = skew 0.0 and s4 = skew 0.4 in
  Alcotest.(check bool)
    (Printf.sprintf "bias broadens coverage (%.3f -> %.3f)" s0 s4)
    true (s4 > 1.5 *. s0)

let test_pcr_amplify_sample_shape () =
  let strands = Array.init 10 (fun i -> Dna.Strand.random (Dna.Rng.create i) 30) in
  let out =
    Simulator.Pcr.amplify_sample
      ~params:{ Simulator.Pcr.default_params with Simulator.Pcr.cycles = 0 }
      ~depth_factor:3.0 (Dna.Rng.create 7) strands
  in
  Alcotest.(check int) "depth_factor scales the draw" 30 (Array.length out);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "every draw is an input molecule" true
        (Array.exists (Dna.Strand.equal s) strands))
    out;
  Alcotest.(check int) "empty pool stays empty" 0
    (Array.length (Simulator.Pcr.amplify_sample (Dna.Rng.create 7) [||]))

(* ---------- scenario JSON ---------- *)

let test_scenario_json_roundtrip () =
  List.iter
    (fun sc ->
      match Simulator.Scenario.of_string (Simulator.Scenario.to_string sc) with
      | Error e -> Alcotest.failf "%s: %s" sc.Simulator.Scenario.name e
      | Ok sc' ->
          Alcotest.(check bool) (sc.Simulator.Scenario.name ^ ": round-trip") true (sc = sc'))
    Simulator.Scenario.builtins

let test_scenario_json_rejects_junk () =
  List.iter
    (fun s ->
      match Simulator.Scenario.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted junk: %s" s)
    [
      "{";
      "{}";
      {|{"name": "x", "description": "", "stages": [{"stage": "warp"}], "floors": []}|};
      {|{"name": "x", "description": "", "stages": [{"stage": "read", "channel": "q"}], "floors": []}|};
      {|{"name": "", "description": "", "stages": [], "floors": []}|};
    ]

let test_scenario_trace_path_injection () =
  let sc = Option.get (Simulator.Scenario.find "trace-replay") in
  Alcotest.(check bool) "has trace" true (Simulator.Scenario.has_trace sc);
  (match Simulator.Scenario.build sc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace path must not build");
  let path = Filename.temp_file "test_trace" ".fastq" in
  Simulator.Trace_channel.write_synthetic ~seed:7 path;
  let sc = Simulator.Scenario.with_trace_path sc path in
  (match Simulator.Scenario.build sc with
  | Error e -> Alcotest.failf "build after injection: %s" e
  | Ok b ->
      Alcotest.(check bool) "configured rate from fit" true
        (b.Simulator.Scenario.configured_error_rate > 0.0));
  Sys.remove path

(* ---------- end-to-end: Scenario_run ---------- *)

let payload n =
  let r = Dna.Rng.create 0xBEEF in
  Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256))

let run_ok ?domains ?fault ~seed sc =
  match Dnastore.Scenario_run.run ?domains ?fault ~seed ~data:(payload 600) sc with
  | Ok o -> o
  | Error e -> Alcotest.failf "run: %s" e

let test_scenario_replay_bit_identical () =
  (* The acceptance stack: aging + PCR bias + bursts, composed with a
     fault plan. Same (scenario, fault, seed) twice => bit-identical,
     both inside one cell (its own replay) and across two cells. *)
  let sc = Option.get (Simulator.Scenario.find "archival-decade") in
  List.iter
    (fun fault ->
      List.iter
        (fun seed ->
          let o1 = run_ok ~fault ~seed sc in
          let o2 = run_ok ~fault ~seed sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: the cell replayed" fault seed)
            true o1.Dnastore.Scenario_run.replayed;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: same recovery" fault seed)
            true
            (o1.Dnastore.Scenario_run.recovered_fraction
            = o2.Dnastore.Scenario_run.recovered_fraction);
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d: same bytes" fault seed)
            o1.Dnastore.Scenario_run.digest o2.Dnastore.Scenario_run.digest)
        [ 1; 2 ])
    [ "clean"; "dropout-10" ]

let test_scenario_seeds_diverge () =
  (* Different seeds must corrupt differently: the simulated read sets
     of the same stack under seeds 1 and 2 differ. *)
  let sc = Option.get (Simulator.Scenario.find "nanopore-burst") in
  let built =
    match Simulator.Scenario.build sc with Ok b -> b | Error e -> Alcotest.fail e
  in
  let strands = Array.init 10 (fun i -> Dna.Strand.random (Dna.Rng.create i) 80) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 4) in
  let reads seed =
    fst
      (Read_oracle.sequence_arrays params built.Simulator.Scenario.channel (Dna.Rng.create seed)
         strands)
  in
  let a = reads 1 and b = reads 2 in
  let same = Array.length a = Array.length b && Array.for_all2 Dna.Strand.equal a b in
  Alcotest.(check bool) "seed 1 and seed 2 reads differ" false same

let test_scenario_domains_invariant () =
  (* Pool stages and sequencing draw serially from the ambient rng
     before any parallel region, so two worker counts give the
     identical outcome. *)
  let sc = Option.get (Simulator.Scenario.find "aging-5y") in
  let o1 = run_ok ~domains:2 ~seed:3 sc in
  let o2 = run_ok ~domains:3 ~seed:3 sc in
  Alcotest.(check bool) "same recovery across domains" true
    (o1.Dnastore.Scenario_run.recovered_fraction = o2.Dnastore.Scenario_run.recovered_fraction);
  Alcotest.(check string) "same bytes across domains" o1.Dnastore.Scenario_run.digest
    o2.Dnastore.Scenario_run.digest

let test_scenario_unknown_fault () =
  let sc = Option.get (Simulator.Scenario.find "baseline-iid") in
  (match Dnastore.Scenario_run.run ~fault:"no-such-fault" ~seed:1 ~data:(payload 100) sc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault must be an error");
  let bad = { sc with Simulator.Scenario.name = "bad"; floors = [ ("no-such-fault", 0.5) ] } in
  match
    Dnastore.Scenario_run.sweep ~faults:[ "clean" ] ~seeds:[ 1 ] ~data:(payload 100) [ bad ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "floor naming an unknown fault must fail the sweep"

let test_scenario_clean_floors () =
  (* The two read-only stacks recover fully on a clean run at test
     scale; their outcome records carry coherent rate accounting. *)
  List.iter
    (fun name ->
      let sc = Option.get (Simulator.Scenario.find name) in
      let o = run_ok ~seed:1 sc in
      Alcotest.(check bool) (name ^ ": full recovery") true
        (o.Dnastore.Scenario_run.recovered_fraction = 1.0);
      Alcotest.(check bool) (name ^ ": passed its floor") true o.Dnastore.Scenario_run.floor_met;
      Alcotest.(check bool) (name ^ ": realized rate sane") true
        (o.Dnastore.Scenario_run.realized_error_rate > 0.0
        && o.Dnastore.Scenario_run.realized_error_rate
           < 3.0 *. o.Dnastore.Scenario_run.configured_error_rate))
    [ "baseline-iid"; "nanopore-burst" ]

let test_pipeline_prepare_hook () =
  (* The ?prepare hook: identity is a no-op; a raising prepare degrades
     like a simulate crash instead of raising out of run. *)
  let data = payload 400 in
  let base = Dnastore.Pipeline.run (Dna.Rng.create 7) data in
  let id = Dnastore.Pipeline.run ~prepare:(fun _ s -> s) (Dna.Rng.create 7) data in
  Alcotest.(check bool) "identity prepare changes nothing" true
    (match (base.Dnastore.Pipeline.file, id.Dnastore.Pipeline.file) with
    | Some a, Some b -> Bytes.equal a b
    | _ -> false);
  let boom = Dnastore.Pipeline.run ~prepare:(fun _ _ -> failwith "boom") (Dna.Rng.create 7) data in
  Alcotest.(check bool) "raising prepare degrades" true
    (List.exists
       (fun (s, _) -> s = Dnastore.Faults.Simulate)
       boom.Dnastore.Pipeline.stage_failures)

let () =
  Alcotest.run "scenario"
    [
      ( "pooled paths",
        [
          Alcotest.test_case "aging = boxed" `Quick test_pool_aging;
          Alcotest.test_case "burst = boxed" `Quick test_pool_burst;
          Alcotest.test_case "trace = boxed" `Quick test_pool_trace;
          Alcotest.test_case "composed stack = boxed" `Quick test_pool_composed_stack;
          Alcotest.test_case "rng state equal after transmit" `Quick
            test_rng_state_after_transmit;
          Alcotest.test_case "age_pool = boxed" `Quick test_age_pool_matches_boxed;
        ] );
      ( "aging",
        [
          Alcotest.test_case "decay math" `Quick test_aging_math;
          Alcotest.test_case "dropout rate" `Quick test_aging_dropout_rate;
          Alcotest.test_case "deterministic" `Quick test_aging_deterministic;
          Alcotest.test_case "zero years identity" `Quick test_aging_zero_years_identity;
        ] );
      ( "burst",
        [
          Alcotest.test_case "stationary state" `Quick test_burst_stationary;
          Alcotest.test_case "quiet = identity" `Quick test_burst_identity_when_quiet;
          Alcotest.test_case "errors cluster" `Quick test_burst_errors_cluster;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fit matches empirical" `Quick test_trace_fit_matches_empirical;
          Alcotest.test_case "fit rejects empty" `Quick test_trace_fit_empty;
        ] );
      ( "pcr",
        [
          Alcotest.test_case "cycles 0 identity" `Quick test_pcr_cycles0_identity;
          Alcotest.test_case "family stream independence" `Quick
            test_pcr_family_stream_independence;
          Alcotest.test_case "bias broadens coverage" `Quick test_pcr_bias_lognormal_skew;
          Alcotest.test_case "amplify_sample shape" `Quick test_pcr_amplify_sample_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip builtins" `Quick test_scenario_json_roundtrip;
          Alcotest.test_case "rejects junk" `Quick test_scenario_json_rejects_junk;
          Alcotest.test_case "trace path injection" `Quick test_scenario_trace_path_injection;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "replay bit-identical" `Quick test_scenario_replay_bit_identical;
          Alcotest.test_case "seeds diverge" `Quick test_scenario_seeds_diverge;
          Alcotest.test_case "domains invariant" `Quick test_scenario_domains_invariant;
          Alcotest.test_case "unknown fault rejected" `Quick test_scenario_unknown_fault;
          Alcotest.test_case "clean floors" `Quick test_scenario_clean_floors;
          Alcotest.test_case "pipeline prepare hook" `Quick test_pipeline_prepare_hook;
        ] );
    ]
