(* The paper's qualitative results as assertions: reduced, seeded
   versions of the experiments EXPERIMENTS.md records, run on the code
   the pipeline runs.

   Table II (Section VI-C): q-gram and w-gram clustering through the
   pipeline's clustering stage ([Pipeline.cluster_default]) across error
   rates 0.03..0.15 at coverage 10. This is the setting and seeds of
   [bench/main.exe --smoke table2] (40 strands of 120 nt, runs seeded
   1001 and 1002), so the bench's smoke table prints the accuracies
   checked here. The claims held: accuracy stays in a band near 1 and
   declines as the error rate grows, for both signature kinds.

   E11, clustering ablation (Section X): the paper's iterative-merge
   clustering against Clover's edit-distance-free tree, in the setting
   and seed of [bench/main.exe --smoke clover] (60 strands of 120 nt,
   coverage 10, seed 31337). The claims held: merge accuracy is at
   least Clover's at every error rate, and Clover's does not rise as
   noise reaches its prefix keys.

   Figure 6 (Section VII), at the full setting of [bench/main.exe fig6]
   (wetlab channel, 250 clusters of coverage 10, 110 nt, seed 2002): the
   NW consensus has the lowest average per-index error, then
   double-sided BMA, then BMA; BMA's errors pile up toward the strand's
   end and double-sided BMA's in its middle. The fast 60-cluster setting
   cannot separate NWA from DBMA (22.56% against 22.55%).

   E7 as a ratchet (Section IX): the retrieval of [E7.retrieval] over
   store seeds 909 and 100-123 decodes exactly on at least 16 of the 25.
   The other nine return a few wrong bytes (the known defect ROADMAP
   items 2, 9 and 13 work on); the count may rise, never fall. *)

let error_rates = [ 0.03; 0.06; 0.09; 0.12; 0.15 ]
let n_strands = 40
let coverage = 10
let len = 120
let seeds = [ 1001; 1002 ]

(* Mean clustering accuracy over [seeds] for one kind and error rate. *)
let table2_accuracy kind error_rate =
  let acc seed =
    let rng = Dna.Rng.create seed in
    let channel = Simulator.Iid_channel.create_rate ~error_rate in
    let strands = Array.init n_strands (fun _ -> Dna.Strand.random rng len) in
    let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
    let pool = Dna.Strand_pool.create () in
    let truth = Simulator.Sequencer.sequence_pool sp channel rng strands ~pool in
    let clusters = Dnastore.Pipeline.cluster_default ~kind () rng pool in
    Clustering.Metrics.accuracy ~truth clusters
  in
  List.fold_left (fun s seed -> s +. acc seed) 0.0 seeds /. float_of_int (List.length seeds)

(* One true cluster of the [n_strands * |seeds|] averaged over. *)
let one_cluster = 1.0 /. float_of_int (n_strands * List.length seeds)

let test_table2 kind () =
  let accs = List.map (fun e -> (e, table2_accuracy kind e)) error_rates in
  let name e = Printf.sprintf "error %.2f" e in
  (* The band: near-exact at the lowest rate, still well above chance at
     the highest (the full-scale table reads 0.94-0.95 there). *)
  List.iter
    (fun (e, a) ->
      Alcotest.(check bool) (Printf.sprintf "%s: accuracy %.4f in [0.85, 1]" (name e) a) true
        (a >= 0.85 && a <= 1.0))
    accs;
  let first = List.assoc 0.03 accs and last = List.assoc 0.15 accs in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.4f >= 0.98 at 0.03" first) true (first >= 0.98);
  Alcotest.(check bool)
    (Printf.sprintf "accuracy declines: %.4f at 0.15 < %.4f at 0.03" last first)
    true
    (last <= first -. 0.03);
  (* Step by step, no rise beyond one cluster's worth of noise. *)
  let rec steps = function
    | (e0, a0) :: ((e1, a1) :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "%.4f at %.2f <= %.4f at %.2f + one cluster" a1 e1 a0 e0)
          true
          (a1 <= a0 +. one_cluster);
        steps rest
    | [ _ ] | [] -> ()
  in
  steps accs

(* The Clover experiment's reads, sequenced straight into a pool (the
   bench round-trips the same reads through FASTQ), clustered both ways.
   Returns (merge accuracy, Clover accuracy). *)
let clover_accuracies error_rate =
  let seed = 31337 and n_strands = 60 in
  let rng = Dna.Rng.create seed in
  let channel = Simulator.Iid_channel.create_rate ~error_rate in
  let strands = Array.init n_strands (fun _ -> Dna.Strand.random rng len) in
  let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
  let pool = Dna.Strand_pool.create () in
  let truth = Simulator.Sequencer.sequence_pool sp channel rng strands ~pool in
  let views = Dna.Strand_pool.to_array pool in
  let rng = Dna.Rng.create seed in
  let params = Clustering.Cluster.default_params ~read_len:len () in
  let config = Clustering.Auto_config.configure params rng views in
  let merge =
    Clustering.Cluster.run_scaled (Clustering.Auto_config.apply config params) rng views
  in
  let acc (r : Clustering.Cluster.result) =
    Clustering.Metrics.accuracy ~truth r.Clustering.Cluster.clusters
  in
  (acc merge, acc (Clustering.Clover.run views))

let test_clover () =
  let accs = List.map (fun e -> (e, clover_accuracies e)) [ 0.01; 0.03; 0.06; 0.10 ] in
  List.iter
    (fun (e, (merge, clover)) ->
      Alcotest.(check bool)
        (Printf.sprintf "error %.2f: merge %.4f >= Clover %.4f" e merge clover)
        true (merge >= clover))
    accs;
  let rec steps = function
    | (e0, (_, c0)) :: ((e1, (_, c1)) :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "Clover %.4f at %.2f <= %.4f at %.2f" c1 e1 c0 e0)
          true (c1 <= c0);
        steps rest
    | [ _ ] | [] -> ()
  in
  steps accs

(* ---------- Figure 6 ---------- *)

let fig6_profile recon =
  let rng = Dna.Rng.create 2002 in
  let channel = Simulator.Wetlab_channel.create () in
  let len = 110 in
  let pairs =
    List.init 250 (fun _ ->
        let clean = Dna.Strand.random rng len in
        let reads = Array.init 10 (fun _ -> Simulator.Channel.transmit channel rng clean) in
        (clean, Recon_oracle.on_pool recon ~target_len:len reads))
  in
  Reconstruction.Recon_metrics.per_index_error pairs

(* Index of the first maximum. *)
let peak_index prof =
  let best = ref 0 in
  Array.iteri (fun i e -> if e > prof.(!best) then best := i) prof;
  !best

let test_fig6 () =
  let bma = fig6_profile Reconstruction.Bma.reconstruct_pool
  and dbma = fig6_profile Reconstruction.Bma.reconstruct_double_pool
  and nw = fig6_profile Reconstruction.Nw_consensus.reconstruct_pool in
  let avg = Reconstruction.Recon_metrics.average_error in
  Alcotest.(check bool)
    (Printf.sprintf "avg error NWA %.4f < DBMA %.4f < BMA %.4f" (avg nw) (avg dbma) (avg bma))
    true
    (avg nw < avg dbma && avg dbma < avg bma);
  let len = Array.length bma in
  let third i = 3 * i / len in
  Alcotest.(check int)
    (Printf.sprintf "DBMA peak at %d of %d lies in the middle third" (peak_index dbma) len)
    1
    (third (peak_index dbma));
  Alcotest.(check int)
    (Printf.sprintf "BMA peak at %d of %d lies in the last third" (peak_index bma) len)
    2
    (third (peak_index bma))

(* ---------- E7 ratchet ---------- *)

let e7_seeds = 909 :: List.init 24 (fun i -> 100 + i)

let test_e7_ratchet () =
  let wrong = List.map (fun seed -> (seed, fst (E7.retrieval seed))) e7_seeds in
  let exact = List.length (List.filter (fun (_, w) -> w = 0) wrong) in
  let misses =
    List.filter_map (fun (s, w) -> if w > 0 then Some (Printf.sprintf "%d:%d" s w) else None) wrong
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d seeds exact (at least 16); wrong bytes %s" exact
       (List.length e7_seeds) (String.concat " " misses))
    true (exact >= 16)

let () =
  Alcotest.run "claims"
    [
      ( "table2",
        [
          Alcotest.test_case "q-gram accuracy band, declines with error" `Quick
            (test_table2 Clustering.Signature.Qgram);
          Alcotest.test_case "w-gram accuracy band, declines with error" `Quick
            (test_table2 Clustering.Signature.Wgram);
        ] );
      ( "e11",
        [
          Alcotest.test_case "merge at least as accurate as Clover, Clover declines" `Quick
            test_clover;
        ] );
      ("fig6", [ Alcotest.test_case "avg error NWA < DBMA < BMA, peaks placed" `Quick test_fig6 ]);
      ("e7", [ Alcotest.test_case "at least 16 of 25 store seeds exact" `Slow test_e7_ratchet ]);
    ]
