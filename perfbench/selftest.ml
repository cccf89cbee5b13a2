(* The benchmark's own tests, at smoke size:

     dune build @perfbench/selftest

   - every workload, untraced and traced, emits exactly the metrics
     BENCHMARK.json names, each with its unit, and no operation fails;
   - the traced run writes a Chrome trace that parses, and the pipeline
     composition agrees with [Pipeline.run] under the same seed;
   - the correctness oracle reports failures when one expected value is
     deliberately wrong. *)

module J = Store.Json

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let parse what s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: bad JSON: %s" what e)

let read path = In_channel.with_open_bin path In_channel.input_all

(* (name, unit) pairs of one BENCHMARK.json metric list. *)
let declared bench key =
  match J.member key bench with
  | Some (J.List items) ->
      List.map
        (fun item ->
          match (J.member "name" item, J.member "unit" item) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> failwith ("malformed entry in " ^ key))
        items
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

let work_root = Printf.sprintf ".perfbench_work/selftest-%d" (Unix.getpid ())

let args ~workload ~traced ~tamper =
  {
    Outcome.seed = 3;
    seconds = (if workload = "pipeline" then 0.3 else 1.5);
    traced;
    smoke = true;
    tamper;
    work_dir = Filename.concat work_root (Printf.sprintf "%s-%b-%b" workload traced tamper);
    trace_out = Filename.concat work_root (Printf.sprintf "trace-%s.json" workload);
    domains = Sysinfo.nproc ();
  }

let run ~workload ~traced ~tamper =
  let a = args ~workload ~traced ~tamper in
  Sysinfo.mkdir_p a.work_dir;
  let o = Workloads.run workload a in
  Sysinfo.rm_rf a.work_dir;
  (a, o)

let check_metrics ~workload ~traced expected (o : Outcome.t) =
  let what = Printf.sprintf "%s trace=%b" workload traced in
  let line = parse what (Output.result_line o ~traced) in
  check (what ^ ": correct") (J.member "correct" line = Some (J.Bool true));
  check (what ^ ": attempted >= 1")
    (match J.member "attempted" line with Some (J.Int n) -> n >= 1 | _ -> false);
  check (what ^ ": failed = 0") (J.member "failed" line = Some (J.Int 0));
  match J.member "metrics" line with
  | Some (J.Obj ms) ->
      check (what ^ ": metric names") (List.map fst ms = List.map fst expected);
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name ms with
          | Some m ->
              check (Printf.sprintf "%s: %s unit" what name) (J.member "unit" m = Some (J.String unit));
              let v =
                match J.member "value" m with
                | Some (J.Float f) -> f
                | Some (J.Int i) -> float_of_int i
                | _ -> nan
              in
              check (Printf.sprintf "%s: %s is a number" what name) (Float.is_finite v);
              (* End-to-end metrics are never 0. *)
              if not traced then check (Printf.sprintf "%s: %s > 0" what name) (v > 0.0)
          | None -> check (Printf.sprintf "%s: %s emitted" what name) false)
        expected
  | _ -> check (what ^ ": metrics object") false

let () =
  Dna.Par.set_default_domains (Sysinfo.nproc ());
  let bench = parse "BENCHMARK.json" (read "../BENCHMARK.json") in
  let e2e = declared bench "end_to_end" and layers = declared bench "per_layer" in
  check "catalog matches BENCHMARK.json end_to_end" (e2e = Catalog.end_to_end);
  check "catalog matches BENCHMARK.json per_layer" (layers = Catalog.per_layer);
  List.iter
    (fun workload ->
      let _, o = run ~workload ~traced:false ~tamper:false in
      check_metrics ~workload ~traced:false e2e o;
      let a, o = run ~workload ~traced:true ~tamper:false in
      check_metrics ~workload ~traced:true layers o;
      (match parse "trace" (read a.trace_out) with
      | J.Obj [ ("traceEvents", J.List (_ :: _)) ] -> ()
      | _ -> check (workload ^ ": chrome trace has events") false);
      if workload = "pipeline" then
        check "pipeline: composition matches Pipeline.run"
          (List.assoc_opt "composition_mismatches" o.report = Some 0.0);
      (* The oracle must catch a wrong expected value. *)
      let _, o = run ~workload ~traced:false ~tamper:true in
      check (workload ^ ": oracle catches a wrong expected value") (o.failed > 0))
    Workloads.names;
  Sysinfo.rm_rf ".perfbench_work";
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "perfbench selftest: ok"
