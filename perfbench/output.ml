(* The lines a run prints: run metadata, the workload's own figures,
   and last the result object with the catalog metrics. *)

let meta ~workload ~seed ~seconds ~traced ~smoke ~domains =
  Json.obj
    [
      ( "meta",
        Json.obj
          [
            ("workload", Json.str workload);
            ("seed", Json.int seed);
            ("seconds", Json.num seconds);
            ("trace", Json.bool traced);
            ("smoke", Json.bool smoke);
            ("nproc", Json.int (Sysinfo.nproc ()));
            ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
            ("par_domains", Json.int domains);
            ("par_pool_size", Json.int (Dna.Par.pool_size ()));
            ("ocaml_version", Json.str Sys.ocaml_version);
            ("commit", Json.str (Sysinfo.commit ()));
            ("clock", Json.str "monotonic");
          ] );
    ]

let report_line (o : Outcome.t) =
  Json.obj
    [
      ("report", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) o.report));
      ("config", Json.obj o.config);
    ]

let result_line (o : Outcome.t) ~traced =
  let catalog = if traced then Catalog.per_layer else Catalog.end_to_end in
  let metrics = Catalog.complete catalog o.metrics in
  Json.obj
    [
      ("correct", Json.bool (o.failed = 0));
      ("attempted", Json.int o.attempted);
      ("failed", Json.int o.failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun (name, value, unit) ->
               (name, Json.obj [ ("value", Json.num value); ("unit", Json.str unit) ]))
             metrics) );
    ]
