(* Experiment E3 — Figure 5 (Section VI-B).

   The automatic clustering configuration: signature distances between a
   handful of probe reads and a larger sample, plotted sorted. The curve
   shows the low plateau of same-cluster pairs, the jump, and the high
   plateau of unrelated pairs; the auto-fitted theta_low/theta_high
   bracket the jump. *)

open Exp_common

let n_strands = pick ~fast:40 ~full:100
let coverage = 10
let len = 120

let run () =
  print_string (section "Figure 5: automatic threshold configuration");
  let rng = Dna.Rng.create 55 in
  let channel = Simulator.Iid_channel.create_rate ~error_rate:0.06 in
  let strands = Array.init n_strands (fun _ -> Dna.Strand.random rng len) in
  let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
  let pool = Dna.Strand_pool.create () in
  ignore (Simulator.Sequencer.sequence_pool sp channel rng strands ~pool);
  let read_strands = Dna.Strand_pool.to_array pool in
  List.iter
    (fun kind ->
      let kname = match kind with Clustering.Signature.Qgram -> "q-gram" | _ -> "w-gram" in
      let params = Clustering.Cluster.default_params ~kind ~read_len:len () in
      let config = Clustering.Auto_config.configure params rng read_strands in
      let series = Clustering.Auto_config.figure5_series config in
      Printf.printf
        "\n%s signatures: %d sampled pairs; theta_low = %d, theta_high = %d, edit threshold = %d\n"
        kname (Array.length series) config.Clustering.Auto_config.theta_low
        config.Clustering.Auto_config.theta_high config.Clustering.Auto_config.edit_threshold;
      print_string
        (profile ~height:10 (Array.map float_of_int series));
      print_string "        (x: sampled pairs sorted by distance; y: signature distance.\n";
      print_string "         low plateau = same-cluster pairs, high plateau = unrelated pairs)\n")
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ];
  print_newline ()
