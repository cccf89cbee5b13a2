(* The repository benchmark. One workload per invocation:

     bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0

   Workloads: pipeline, serve-read, ingest (see README.md). With
   --trace 0 the result carries the end-to-end metrics; with --trace 1
   the per-layer metrics, and the spans go to a Chrome trace file.
   Before the result, stdout carries a metadata line and the workload's
   own figures; the last line is the result JSON. Exits 1 when any
   output was wrong. *)

let usage () =
  Printf.eprintf
    "usage: main.exe --workload (%s) --seed N --seconds S --trace 0|1 [--smoke]\n"
    (String.concat "|" Workloads.names);
  exit 2

type cli = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
}

let parse argv =
  let rec go c = function
    | [] -> c
    | "--workload" :: w :: rest when List.mem w Workloads.names -> go { c with workload = w } rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None -> go { c with seed = int_of_string s } rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
        go { c with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { c with traced = t = "1" } rest
    | "--smoke" :: rest -> go { c with smoke = true } rest
    | arg :: _ ->
        Printf.eprintf "perfbench: unexpected argument %S\n" arg;
        usage ()
  in
  let c =
    go
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        traced = false;
        smoke = false;
      }
      argv
  in
  if c.workload = "" || c.seconds <= 0.0 then usage ();
  c

let () =
  let c = parse (List.tl (Array.to_list Sys.argv)) in
  (* Par domains = the CPUs this process may use. *)
  let domains = Sysinfo.nproc () in
  Dna.Par.set_default_domains domains;
  let work_dir = Printf.sprintf ".perfbench_work/%s-%d" c.workload (Unix.getpid ()) in
  Sysinfo.mkdir_p work_dir;
  let args =
    {
      Outcome.seed = c.seed;
      seconds = c.seconds;
      traced = c.traced;
      smoke = c.smoke;
      tamper = false;
      work_dir;
      trace_out = Printf.sprintf ".perfbench_out/trace_%s_%d.json" c.workload c.seed;
      domains;
    }
  in
  let o =
    Fun.protect
      ~finally:(fun () ->
        Sysinfo.rm_rf work_dir;
        try Unix.rmdir (Filename.dirname work_dir) with Unix.Unix_error _ -> ())
      (fun () -> Workloads.run c.workload args)
  in
  print_endline
    (Output.meta ~workload:c.workload ~seed:c.seed ~seconds:c.seconds ~traced:c.traced ~smoke:c.smoke
       ~domains);
  print_endline (Output.report_line o);
  print_endline (Output.result_line o ~traced:c.traced);
  if o.failed > 0 then exit 1
