(* The scenario bench: sweeps the builtin scenario stacks across fault
   plans and seeds through the end-to-end pipeline and writes
   BENCH_scenarios.json, so channel-model or codec changes that silently
   shift recovery under realistic stacks have a trajectory to regress
   against.

     dune exec bench/bench_scenarios.exe                 # full sweep, writes
                                                         # BENCH_scenarios.json
     dune exec bench/bench_scenarios.exe -- --out-dir d  # write elsewhere
     dune exec bench/bench_scenarios.exe -- --smoke      # small payload/seed
                                                         # budget for CI

   Guards (any violation exits nonzero):
   - every (scenario, fault, seed) cell must recover at least its
     declared floor;
   - every cell must replay bit-identically when rerun with the same
     seed;
   - the trace-replay scenario's fitted mean error rate must agree with
     the synthetic trace's empirical per-base quality rate within 20%
     relative tolerance. *)

let smoke = ref false
let out_dir = ref "."

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out-dir" :: dir :: rest ->
        out_dir := dir;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: bench_scenarios [--smoke] [--out-dir DIR] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let () =
  let n_bytes = if !smoke then 2000 else 6000 in
  let seeds = if !smoke then [ 1; 2 ] else [ 1; 2; 3 ] in
  let faults = [ "clean"; "dropout-10"; "corruption-2" ] in
  let data =
    let r = Dna.Rng.create 0xF11E in
    Bytes.init n_bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in

  (* Trace stages replay a deterministic synthetic FASTQ written next to
     the output, so the artifact is reproducible from a clean tree. *)
  let trace_path = Filename.concat !out_dir "bench_trace.fastq" in
  Simulator.Trace_channel.write_synthetic ~seed:77 trace_path;
  let scenarios =
    List.map
      (fun sc ->
        if Simulator.Scenario.has_trace sc then Simulator.Scenario.with_trace_path sc trace_path
        else sc)
      Simulator.Scenario.builtins
  in

  (* Fit-vs-empirical guard: the fitted profile's mean must match the
     per-base rate implied by the trace's own quality bytes. *)
  (match Simulator.Trace_channel.fit trace_path with
  | Error e -> violate "trace fit failed: %s" e
  | Ok profile ->
      let quals =
        Dna.Fastq.fold_file trace_path ~init:[] ~f:(fun acc r -> r.Dna.Fastq.qual :: acc)
      in
      let sum, n =
        List.fold_left
          (fun (s, n) q ->
            ( Array.fold_left
                (fun s qi -> s +. Simulator.Trace_channel.phred_to_p qi)
                s q,
              n + Array.length q ))
          (0.0, 0) (fst quals)
      in
      let empirical = if n = 0 then 0.0 else sum /. float_of_int n in
      let fitted = profile.Simulator.Trace_channel.mean_rate in
      let rel = abs_float (fitted -. empirical) /. max 1e-9 empirical in
      if rel > 0.2 then
        violate "trace fit drift: fitted %.5f vs empirical %.5f (rel %.2f)" fitted empirical rel);

  let t0 = Unix.gettimeofday () in
  let outcomes =
    match Dnastore.Scenario_run.sweep ~faults ~seeds ~data scenarios with
    | Ok os -> os
    | Error e ->
        Printf.eprintf "bench_scenarios: sweep failed: %s\n" e;
        exit 1
  in
  let wall_s = Unix.gettimeofday () -. t0 in

  (* Floor guard. *)
  List.iter
    (fun (o : Dnastore.Scenario_run.outcome) ->
      violate "%s/%s seed %d: recovered %.4f below floor %.2f" o.Dnastore.Scenario_run.scenario
        o.fault o.seed o.recovered_fraction
        (match o.floor with Some f -> f | None -> 0.0))
    (Dnastore.Scenario_run.failures outcomes);

  (* Replay guard: rerunning one cell per scenario with its seed must
     reproduce the outcome exactly (recovered bytes included). *)
  List.iter
    (fun sc ->
      let seed = List.hd seeds in
      let go () = Dnastore.Scenario_run.run_full ~fault:"clean" ~seed ~data sc in
      match (go (), go ()) with
      | Ok (_, p), Ok (_, p') ->
          if not (Dnastore.Pipeline.replays p p') then
            violate "%s seed %d: replay diverged" sc.Simulator.Scenario.name seed
      | Error e, _ | _, Error e -> violate "%s: %s" sc.Simulator.Scenario.name e)
    scenarios;

  print_string (Dnastore.Report.scenario_summary outcomes);

  let json =
    match Dnastore.Scenario_run.outcomes_json outcomes with
    | Store_json.Obj fields ->
        Store_json.Obj
          (fields
          @ [
              ("smoke", Store_json.Bool !smoke);
              ("n_bytes", Store_json.Int n_bytes);
              ("wall_s", Store_json.Float wall_s);
            ])
    | j -> j
  in
  let out_path = Filename.concat !out_dir "BENCH_scenarios.json" in
  let oc = open_out out_path in
  output_string oc (Store_json.to_string json);
  close_out oc;
  Printf.printf "wrote %s (%d cells, %.1fs)\n" out_path (List.length outcomes) wall_s;

  match !violations with
  | [] -> ()
  | vs ->
      Printf.eprintf "%d scenario bench violation(s):\n" (List.length vs);
      List.iter (fun v -> Printf.eprintf "  %s\n" v) (List.rev vs);
      exit 1
