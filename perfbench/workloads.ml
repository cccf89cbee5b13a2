(* The benchmark's workloads by name. *)

let names = [ "pipeline"; "serve-read"; "ingest" ]

let run name (args : Outcome.args) =
  match name with
  | "pipeline" -> Pipeline_wl.run args
  | "serve-read" -> Store_wl.run Store_wl.Serve_read args
  | "ingest" -> Store_wl.run Store_wl.Ingest args
  | _ -> invalid_arg ("unknown workload " ^ name)
