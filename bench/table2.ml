(* Experiment E4 — Table II (Section VI-C).

   q-gram vs w-gram clustering across error rates 0.03..0.15 at coverage
   10: clustering accuracy, clustering time, signature calculation time
   and overall time, averaged over several runs. *)

open Exp_common

let n_strands = pick ~fast:40 ~full:150
let coverage = 10
let len = 120
let n_runs = pick ~fast:2 ~full:10
let error_rates = [ 0.03; 0.06; 0.09; 0.12; 0.15 ]

type cell = {
  mutable acc : float;
  mutable cluster_time : float;
  mutable sig_time : float;
  mutable edit_cmp : int;
}

let run () =
  print_string (section "Table II: q-gram vs w-gram clustering");
  Printf.printf "setting: %d strands, coverage %d, length %d, averaged over %d runs\n\n" n_strands
    coverage len n_runs;
  let results =
    List.map
      (fun error_rate ->
        let cells =
          List.map
            (fun kind ->
              let c = { acc = 0.0; cluster_time = 0.0; sig_time = 0.0; edit_cmp = 0 } in
              for run = 1 to n_runs do
                let rng = Dna.Rng.create (1000 + run) in
                let channel = Simulator.Iid_channel.create_rate ~error_rate in
                let strands = Array.init n_strands (fun _ -> Dna.Strand.random rng len) in
                let sp =
                  Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage)
                in
                let pool = Dna.Strand_pool.create () in
                let truth = Simulator.Sequencer.sequence_pool sp channel rng strands ~pool in
                let rs = Dna.Strand_pool.to_array pool in
                let result = cluster_auto ~kind rng rs in
                let stats = result.Clustering.Cluster.stats in
                c.acc <-
                  c.acc +. Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters;
                c.cluster_time <-
                  c.cluster_time
                  +. (stats.Clustering.Cluster.clustering_time
                     -. stats.Clustering.Cluster.signature_time);
                c.sig_time <- c.sig_time +. stats.Clustering.Cluster.signature_time;
                c.edit_cmp <- c.edit_cmp + stats.Clustering.Cluster.edit_comparisons
              done;
              let n = float_of_int n_runs in
              c.acc <- c.acc /. n;
              c.cluster_time <- c.cluster_time /. n;
              c.sig_time <- c.sig_time /. n;
              c.edit_cmp <- c.edit_cmp / n_runs;
              c)
            [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]
        in
        (error_rate, cells))
      error_rates
  in
  let rows =
    [
      [
        "Error Rate"; "Acc q-gram"; "Acc w-gram"; "Cluster(s) q"; "Cluster(s) w"; "Sig(s) q";
        "Sig(s) w"; "Overall(s) q"; "Overall(s) w"; "EditCmp q"; "EditCmp w";
      ];
    ]
    @ List.map
        (fun (er, cells) ->
          match cells with
          | [ q; w ] ->
              [
                Printf.sprintf "%.2f" er;
                f4 q.acc;
                f4 w.acc;
                f3 q.cluster_time;
                f3 w.cluster_time;
                f3 q.sig_time;
                f3 w.sig_time;
                f3 (q.cluster_time +. q.sig_time);
                f3 (w.cluster_time +. w.sig_time);
                string_of_int q.edit_cmp;
                string_of_int w.edit_cmp;
              ]
          | _ -> assert false)
        results
  in
  print_string (table rows);
  print_newline ()
