(* The scenarios entry: sweeps the builtin scenario stacks across fault
   plans and seeds through the end-to-end pipeline and writes
   BENCH_scenarios.json, so channel-model or codec changes that silently
   shift recovery under realistic stacks have a trajectory to regress
   against.

     dune exec bench/main.exe -- scenarios          # full sweep
     dune exec bench/main.exe -- --smoke scenarios  # small payload/seed
                                                    # budget for CI

   Guards (any violation exits nonzero):
   - every (scenario, fault, seed) cell must recover at least its
     declared floor and replay bit-identically (the sweep runs each
     cell twice; [Scenario_run.failures] names the ones that did not);
   - the trace-replay scenario's fitted mean error rate must agree with
     the synthetic trace's empirical per-base quality rate within 20%
     relative tolerance. *)

open Exp_common

let run () =
  print_string (section "Scenarios: builtin stacks x fault plans x seeds");
  let n_bytes = pick ~fast:2000 ~full:6000 in
  let seeds = pick ~fast:[ 1; 2 ] ~full:[ 1; 2; 3 ] in
  let faults = [ "clean"; "dropout-10"; "corruption-2" ] in
  let data =
    let r = Dna.Rng.create 0xF11E in
    Bytes.init n_bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in

  (* Trace stages replay a deterministic synthetic FASTQ written next to
     the output, so the artifact is reproducible from a clean tree. *)
  let trace_path = out_path "bench_trace.fastq" in
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

  let outcomes, wall_s =
    match time (fun () -> Dnastore.Scenario_run.sweep ~faults ~seeds ~data scenarios) with
    | Ok os, s -> (os, s)
    | Error e, _ -> fail "scenario sweep failed: %s" e
  in

  (* Floor and replay guard: the sweep replays every cell. *)
  List.iter
    (fun o -> violate "%s" (Dnastore.Report.scenario_failure o))
    (Dnastore.Scenario_run.failures outcomes);

  print_string (Dnastore.Report.scenario_summary outcomes);

  let json =
    match Dnastore.Scenario_run.outcomes_json outcomes with
    | Store_json.Obj fields ->
        Store_json.Obj
          (fields
          @ [
              ("smoke", Store_json.Bool smoke);
              ("n_bytes", Store_json.Int n_bytes);
              ("wall_s", Store_json.Float wall_s);
            ])
    | j -> j
  in
  write_json "BENCH_scenarios.json" json;
  Printf.printf "%d cells in %.1fs\n" (List.length outcomes) wall_s;

  match !violations with
  | [] -> ()
  | vs ->
      Printf.eprintf "%d scenario bench violation(s):\n" (List.length vs);
      List.iter (fun v -> Printf.eprintf "  %s\n" v) (List.rev vs);
      exit 1
