(* The paper's qualitative results as assertions: reduced, seeded
   versions of the experiments EXPERIMENTS.md records, run on the code
   the pipeline runs.

   Table II (Section VI-C): q-gram and w-gram clustering through the
   pipeline's clustering stage ([Pipeline.cluster_default]) across error
   rates 0.03..0.15 at coverage 10. This is the setting and seeds of
   [bench/main.exe table2] at DNASTORE_BENCH=fast (40 strands of 120 nt,
   runs seeded 1001 and 1002), so the bench's fast table prints the
   accuracies checked here. The claims held: accuracy stays in a band
   near 1 and declines as the error rate grows, for both signature
   kinds. *)

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
    ]
