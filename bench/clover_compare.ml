(* Ablation — iterative-merge clustering vs Clover-style tree
   clustering (Section X, Qu et al.).

   Clover never computes an edit distance: one streaming pass assigns
   each read by a bounded-edit trie lookup of its prefix. The trade-off
   is speed and memory against robustness to prefix errors.

   Reads are staged through FASTQ and streamed back into a packed arena
   ([Scale_stream]), so the working set is one arena + one truth array
   regardless of read count — the same bounded-memory path the scale
   benchmark uses, exercised here across error rates. *)

open Exp_common

let n_strands = pick ~fast:60 ~full:200
let coverage = 10
let len = 120

let run () =
  print_string (section "Ablation: iterative-merge clustering vs Clover (tree-based)");
  Printf.printf "setting: %d strands, coverage %d, length %d (reads streamed via FASTQ)\n\n"
    n_strands coverage len;
  let rows = ref [ [ "error rate"; "merge acc"; "merge time"; "clover acc"; "clover time" ] ] in
  List.iter
    (fun error_rate ->
      let path = Filename.temp_file "dnastore_clover" ".fastq" in
      Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      @@ fun () ->
      ignore
        (Scale_stream.write_fastq ~path ~seed:31337 ~n_refs:n_strands ~coverage ~len
           ~error_rate);
      let pool, truth = Scale_stream.load_fastq ~path in
      let rng = Dna.Rng.create 31337 in
      (* Zero-copy views into the arena: auto-config, the merge engine
         and Clover all read the same packed bases. *)
      let views = Dna.Strand_pool.to_array pool in
      let params = Clustering.Cluster.default_params ~read_len:len () in
      let config = Clustering.Auto_config.configure params rng views in
      let params = Clustering.Auto_config.apply config params in
      let merge_result, merge_time =
        time (fun () -> Clustering.Cluster.run_scaled params rng views)
      in
      let clover_result, clover_time = time (fun () -> Clustering.Clover.run views) in
      let acc result = Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters in
      rows :=
        [
          Printf.sprintf "%.2f" error_rate;
          f4 (acc merge_result);
          f3 merge_time ^ "s";
          f4 (acc clover_result);
          f3 clover_time ^ "s";
        ]
        :: !rows)
    [ 0.01; 0.03; 0.06; 0.10 ];
  print_string (table (List.rev !rows));
  print_string
    "\n(Clover's single pass is fast and edit-distance-free but loses accuracy\n\
    \ as noise reaches the prefix keys; the paper's iterative-merge algorithm\n\
    \ spends edit distances to stay accurate)\n";
  print_newline ()
