(* The bench harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured) and the committed BENCH_*.json perf trajectories.

     dune exec bench/main.exe                      # run every entry
     dune exec bench/main.exe -- fig3 kernels      # named entries
     dune exec bench/main.exe -- --smoke recon     # shrunken workloads
     dune exec bench/main.exe -- --out-dir d store # write JSON elsewhere

   Paper experiments: fig3 (includes Table I), fig5, table2, fig6,
   depth (NW reads used against error), table3, e2e, layout, density,
   ecc, clover. Perf trajectories: kernels
   (BENCH_micro.json, BENCH_cluster.json), recon (BENCH_recon.json),
   store (BENCH_store.json), scenarios (BENCH_scenarios.json). Flags are
   parsed in [Exp_common]; each entry exits 1 when one of its guards
   fails. *)

let entries =
  [
    ("fig3", Fig3_table1.run);
    ("fig5", Fig5.run);
    ("table2", Table2.run);
    ("fig6", Fig6.run);
    ("depth", Depth.run);
    ("table3", Table3.run);
    ("e2e", E2e.run);
    ("layout", Layout_ablation.run);
    ("density", Density.run);
    ("ecc", Ecc_compare.run);
    ("clover", Clover_compare.run);
    ("kernels", Bench_kernels.run);
    ("recon", Bench_recon.run);
    ("store", Bench_store.run);
    ("scenarios", Bench_scenarios.run);
  ]

let () =
  let requested =
    match Exp_common.flags.names with [] -> List.map fst entries | names -> names
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name entries) then begin
        Printf.eprintf "unknown entry %S; available: %s\n" name
          (String.concat ", " (List.map fst entries));
        exit 2
      end)
    requested;
  let (), elapsed =
    Exp_common.time (fun () -> List.iter (fun name -> List.assoc name entries ()) requested)
  in
  (match Dna.Par.counters () with
  | [] -> ()
  | counters ->
      print_string (Dnastore.Report.section "Parallel execution counters");
      print_string (Dnastore.Report.par_counters counters));
  Printf.printf "\nbench complete in %.1fs\n" elapsed
