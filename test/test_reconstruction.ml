(* Tests for trace reconstruction: BMA-lookahead, double-sided BMA, the
   NW/profile consensus, and the evaluation metrics. Every algorithm runs
   through its pool-native entry point; plain read arrays are bridged
   with [Recon_oracle.on_pool]. *)

let rng () = Dna.Rng.create 1618

let strand = Alcotest.testable Dna.Strand.pp Dna.Strand.equal

let noisy_cluster r ~channel ~coverage clean =
  Array.init coverage (fun _ -> Simulator.Channel.transmit channel r clean)

let on_pool = Recon_oracle.on_pool
let bma = on_pool Reconstruction.Bma.reconstruct_pool
let dbma = on_pool Reconstruction.Bma.reconstruct_double_pool
let nw = on_pool Reconstruction.Nw_consensus.reconstruct_pool
let ensemble = on_pool Reconstruction.Ensemble.reconstruct_pool

let algorithms = [ ("bma", bma); ("dbma", dbma); ("nw", nw); ("ensemble", ensemble) ]

(* ---------- exactness on easy inputs ---------- *)

let test_noiseless_cluster_exact () =
  let r = rng () in
  List.iter
    (fun (name, recon) ->
      for _ = 1 to 20 do
        let clean = Dna.Strand.random r 80 in
        let reads = Array.make 6 clean in
        Alcotest.check strand (name ^ " exact on noiseless") clean
          (recon ~target_len:80 reads)
      done)
    algorithms

let test_single_read_cluster () =
  let r = rng () in
  let clean = Dna.Strand.random r 50 in
  List.iter
    (fun (name, recon) ->
      Alcotest.check strand (name ^ " single clean read") clean
        (recon ~target_len:50 [| clean |]))
    algorithms

let test_output_length_always_target () =
  let r = rng () in
  let ch = Simulator.Wetlab_channel.create () in
  List.iter
    (fun (name, recon) ->
      for _ = 1 to 20 do
        let clean = Dna.Strand.random r 70 in
        let reads = noisy_cluster r ~channel:ch ~coverage:5 clean in
        Alcotest.(check int) (name ^ " length") 70 (Dna.Strand.length (recon ~target_len:70 reads))
      done)
    algorithms

let test_empty_cluster_rejected () =
  List.iter
    (fun (name, recon) ->
      match recon ~target_len:10 [||] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ " accepted empty cluster"))
    algorithms

let test_majority_substitution_corrected () =
  (* One read carries a substitution; the other four outvote it. *)
  let r = rng () in
  List.iter
    (fun (name, recon) ->
      for _ = 1 to 20 do
        let clean = Dna.Strand.random r 60 in
        let codes = Dna.Strand.to_codes clean in
        let pos = Dna.Rng.int r 60 in
        codes.(pos) <- (codes.(pos) + 1) land 3;
        let bad = Dna.Strand.of_codes codes in
        let reads = [| clean; clean; bad; clean; clean |] in
        Alcotest.check strand (name ^ " outvotes substitution") clean (recon ~target_len:60 reads)
      done)
    algorithms

let test_single_deletion_realigned () =
  (* One read is missing a base; alignment must absorb it. *)
  let r = rng () in
  List.iter
    (fun (name, recon) ->
      for _ = 1 to 20 do
        let clean = Dna.Strand.random r 60 in
        let pos = Dna.Rng.int r 60 in
        let codes = Dna.Strand.to_codes clean in
        let short =
          Dna.Strand.of_codes (Array.append (Array.sub codes 0 pos) (Array.sub codes (pos + 1) (59 - pos)))
        in
        let reads = [| clean; short; clean; clean |] in
        Alcotest.check strand (name ^ " absorbs deletion") clean (recon ~target_len:60 reads)
      done)
    algorithms

(* ---------- statistical behaviour ---------- *)

let perfect_rate recon r ~channel ~coverage ~len ~trials =
  let ok = ref 0 in
  for _ = 1 to trials do
    let clean = Dna.Strand.random r len in
    let reads = noisy_cluster r ~channel ~coverage clean in
    if Dna.Strand.equal clean (recon ~target_len:len reads) then incr ok
  done;
  float_of_int !ok /. float_of_int trials

let test_iid6_coverage10_mostly_perfect () =
  let r = rng () in
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.06 in
  List.iter
    (fun (name, recon) ->
      let rate = perfect_rate recon r ~channel:ch ~coverage:10 ~len:110 ~trials:40 in
      Alcotest.(check bool)
        (Printf.sprintf "%s perfect rate %.2f >= 0.75" name rate)
        true (rate >= 0.75))
    algorithms

let test_nw_improves_with_coverage () =
  let r = rng () in
  let ch = Simulator.Wetlab_channel.create () in
  let lo = perfect_rate nw r ~channel:ch ~coverage:5 ~len:90 ~trials:30 in
  let hi = perfect_rate nw r ~channel:ch ~coverage:25 ~len:90 ~trials:30 in
  Alcotest.(check bool)
    (Printf.sprintf "coverage helps (%.2f -> %.2f)" lo hi)
    true (hi > lo)

let test_bma_error_grows_rightward () =
  (* Single-sided BMA propagates errors toward the far end (Figure 6). *)
  let r = rng () in
  let ch = Simulator.Wetlab_channel.create () in
  let pairs =
    List.init 120 (fun _ ->
        let clean = Dna.Strand.random r 100 in
        let reads = noisy_cluster r ~channel:ch ~coverage:8 clean in
        (clean, bma ~target_len:100 reads))
  in
  let profile = Reconstruction.Recon_metrics.per_index_error pairs in
  let seg lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. profile.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  Alcotest.(check bool) "last third worse than first third" true (seg 66 100 > seg 0 33)

let test_dbma_error_peaks_in_middle () =
  let r = rng () in
  let ch = Simulator.Wetlab_channel.create () in
  let pairs =
    List.init 120 (fun _ ->
        let clean = Dna.Strand.random r 100 in
        let reads = noisy_cluster r ~channel:ch ~coverage:8 clean in
        (clean, dbma ~target_len:100 reads))
  in
  let profile = Reconstruction.Recon_metrics.per_index_error pairs in
  let seg lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. profile.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  let middle = seg 35 65 and ends = (seg 0 20 +. seg 80 100) /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "middle %.3f > ends %.3f" middle ends)
    true (middle > ends)

let test_nw_flatter_than_dbma () =
  (* Figure 6: NW reduces the peak error. *)
  let r = rng () in
  let ch = Simulator.Wetlab_channel.create () in
  let collect recon =
    List.init 120 (fun _ ->
        let clean = Dna.Strand.random r 100 in
        let reads = noisy_cluster r ~channel:ch ~coverage:10 clean in
        (clean, recon ~target_len:100 reads))
  in
  let peak pairs =
    Array.fold_left max 0.0 (Reconstruction.Recon_metrics.per_index_error pairs)
  in
  let p_dbma = peak (collect dbma) in
  let p_nw = peak (collect nw) in
  Alcotest.(check bool)
    (Printf.sprintf "nw peak %.3f < dbma peak %.3f" p_nw p_dbma)
    true (p_nw < p_dbma)

(* ---------- truncated / damaged reads ---------- *)

let test_truncated_reads_tolerated () =
  let r = rng () in
  List.iter
    (fun (name, recon) ->
      let ok = ref 0 in
      for _ = 1 to 30 do
        let clean = Dna.Strand.random r 80 in
        let reads =
          Array.init 8 (fun i ->
              if i < 2 then Dna.Strand.sub clean ~pos:0 ~len:50 (* truncated tail *)
              else clean)
        in
        if Dna.Strand.equal clean (recon ~target_len:80 reads) then incr ok
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s survives truncated reads (%d/30)" name !ok)
        true (!ok >= 25))
    algorithms

let test_ensemble_at_least_as_good_as_nw () =
  (* On the wetlab channel at coverage 10 the vote should match or beat
     the best single algorithm on average error. *)
  let r = rng () in
  let ch = Simulator.Wetlab_channel.create () in
  let collect recon =
    List.init 80 (fun _ ->
        let clean = Dna.Strand.random r 90 in
        let reads = noisy_cluster r ~channel:ch ~coverage:10 clean in
        (clean, recon ~target_len:90 reads))
  in
  let avg pairs =
    Reconstruction.Recon_metrics.average_error (Reconstruction.Recon_metrics.per_index_error pairs)
  in
  let e_nw = avg (collect nw) in
  let e_ens = avg (collect ensemble) in
  Alcotest.(check bool)
    (Printf.sprintf "ensemble %.3f <= nw %.3f + slack" e_ens e_nw)
    true
    (e_ens <= e_nw +. 0.02)

(* The [outcome] fields of the pool surface: clean reads (nothing to
   trim or pad); four copies of a 60-nt strand's 50-nt prefix (ten
   positions padded with A); three clean reads plus three sharing one
   inserted base (one candidate column trimmed). *)
let test_nw_full_outcome_fields () =
  let nw_full reads =
    Recon_oracle.on_pool Reconstruction.Nw_consensus.reconstruct_pool_full ~target_len:60 reads
  in
  let check name ~trimmed ~padded expect reads =
    let out : Reconstruction.Nw_consensus.outcome = nw_full reads in
    Alcotest.(check int) (name ^ " trimmed") trimmed out.trimmed;
    Alcotest.(check int) (name ^ " padded") padded out.padded;
    Alcotest.check strand (name ^ " consensus") expect out.consensus
  in
  let clean = Dna.Strand.random (rng ()) 60 in
  check "clean" ~trimmed:0 ~padded:0 clean [| clean; clean |];
  let clean = Dna.Strand.random (Dna.Rng.create 7) 60 in
  let prefix = Dna.Strand.sub clean ~pos:0 ~len:50 in
  check "short reads" ~trimmed:0 ~padded:10
    (Dna.Strand.append prefix (Dna.Strand.of_string (String.make 10 'A')))
    (Array.make 4 prefix);
  let codes = Dna.Strand.to_codes clean in
  (* a base unlike both neighbours, so the insertion has one alignment *)
  let base = List.find (fun b -> b <> codes.(29) && b <> codes.(30)) [ 0; 1; 2; 3 ] in
  let inserted =
    Dna.Strand.of_codes (Array.concat [ Array.sub codes 0 30; [| base |]; Array.sub codes 30 30 ])
  in
  check "shared insertion" ~trimmed:1 ~padded:0 clean
    (Array.append (Array.make 3 clean) (Array.make 3 inserted))

(* ---------- metrics ---------- *)

let test_metrics_per_index () =
  let a = Dna.Strand.of_string "ACGT" in
  let b = Dna.Strand.of_string "ACGA" in
  let profile = Reconstruction.Recon_metrics.per_index_error [ (a, b); (a, a) ] in
  Alcotest.(check (array (float 1e-9))) "profile" [| 0.0; 0.0; 0.0; 0.5 |] profile;
  Alcotest.(check (float 1e-9)) "average" 0.125 (Reconstruction.Recon_metrics.average_error profile)

let test_metrics_short_reconstruction_counts_errors () =
  let a = Dna.Strand.of_string "ACGT" in
  let short = Dna.Strand.of_string "AC" in
  let profile = Reconstruction.Recon_metrics.per_index_error [ (a, short) ] in
  Alcotest.(check (array (float 1e-9))) "missing tail is wrong" [| 0.0; 0.0; 1.0; 1.0 |] profile

let test_metrics_perfect_count () =
  let a = Dna.Strand.of_string "ACGT" and b = Dna.Strand.of_string "AAAA" in
  Alcotest.(check int) "count" 2
    (Reconstruction.Recon_metrics.perfect_count [ (a, a); (a, b); (b, b) ])

let test_metrics_abs_deviation () =
  Alcotest.(check (float 1e-9)) "deviation" 0.25
    (Reconstruction.Recon_metrics.average_abs_deviation [| 0.0; 0.5 |] [| 0.5; 0.5 |]);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Reconstruction.Recon_metrics.average_abs_deviation [||] [| 0.1 |])

(* ---------- QCheck ---------- *)

let arb_cluster =
  QCheck.make
    ~print:(fun (clean, n) -> Printf.sprintf "%s x%d" (Dna.Strand.to_string clean) n)
    QCheck.Gen.(
      let* len = int_range 10 60 in
      let* n = int_range 1 8 in
      let* codes = array_size (return len) (int_range 0 3) in
      return (Dna.Strand.of_codes codes, n))

let prop_noiseless_identity =
  QCheck.Test.make ~name:"all algorithms exact on identical reads" ~count:80 arb_cluster
    (fun (clean, n) ->
      let reads = Array.make n clean in
      let len = Dna.Strand.length clean in
      List.for_all
        (fun (_, recon) -> Dna.Strand.equal clean (recon ~target_len:len reads))
        algorithms)

let prop_output_length =
  QCheck.Test.make ~name:"output length equals target" ~count:60
    (QCheck.pair arb_cluster (QCheck.int_bound 1000))
    (fun ((clean, n), seed) ->
      let r = Dna.Rng.create seed in
      let ch = Simulator.Iid_channel.create_rate ~error_rate:0.1 in
      let reads = Array.init n (fun _ -> Simulator.Channel.transmit ch r clean) in
      let len = Dna.Strand.length clean in
      List.for_all
        (fun (_, recon) -> Dna.Strand.length (recon ~target_len:len reads) = len)
        algorithms)

let () =
  Alcotest.run "reconstruction"
    [
      ( "exactness",
        [
          Alcotest.test_case "noiseless cluster" `Quick test_noiseless_cluster_exact;
          Alcotest.test_case "single read" `Quick test_single_read_cluster;
          Alcotest.test_case "output length" `Quick test_output_length_always_target;
          Alcotest.test_case "empty rejected" `Quick test_empty_cluster_rejected;
          Alcotest.test_case "majority substitution" `Quick test_majority_substitution_corrected;
          Alcotest.test_case "single deletion" `Quick test_single_deletion_realigned;
        ] );
      ( "statistical",
        [
          Alcotest.test_case "iid6 cov10 mostly perfect" `Quick test_iid6_coverage10_mostly_perfect;
          Alcotest.test_case "nw improves with coverage" `Quick test_nw_improves_with_coverage;
          Alcotest.test_case "bma error grows rightward" `Quick test_bma_error_grows_rightward;
          Alcotest.test_case "dbma peaks in middle" `Quick test_dbma_error_peaks_in_middle;
          Alcotest.test_case "nw flatter than dbma" `Quick test_nw_flatter_than_dbma;
        ] );
      ( "damage",
        [
          Alcotest.test_case "truncated reads" `Quick test_truncated_reads_tolerated;
          Alcotest.test_case "ensemble vs nw" `Quick test_ensemble_at_least_as_good_as_nw;
          Alcotest.test_case "nw outcome fields" `Quick test_nw_full_outcome_fields;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "per index" `Quick test_metrics_per_index;
          Alcotest.test_case "short reconstruction" `Quick test_metrics_short_reconstruction_counts_errors;
          Alcotest.test_case "perfect count" `Quick test_metrics_perfect_count;
          Alcotest.test_case "abs deviation" `Quick test_metrics_abs_deviation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_noiseless_identity; prop_output_length ] );
    ]
