(* Tests for the alternative modules: the PCR amplification model
   (scenario pool stacks),
   constrained coding (E9), Clover clustering (E11) and the LDPC code
   (E10). *)

let rng () = Dna.Rng.create 60221023

(* ---------- pcr ---------- *)

let test_pcr_growth () =
  let r = rng () in
  let molecules = Array.init 10 (fun _ -> Dna.Strand.random r 60) in
  let pop = Simulator.Pcr.amplify r molecules in
  let total = Simulator.Pcr.total_molecules pop in
  (* 12 cycles at 85% efficiency: about 10 * 1.85^12 = 16k molecules. *)
  Alcotest.(check bool) (Printf.sprintf "exponential growth (%d)" total) true (total > 2000);
  Alcotest.(check bool) "bounded" true (total < 100_000)

let test_pcr_no_cycles_identity () =
  let r = rng () in
  let molecules = Array.init 5 (fun _ -> Dna.Strand.random r 40) in
  let pop = Simulator.Pcr.amplify ~params:{ Simulator.Pcr.default_params with cycles = 0 } r molecules in
  Alcotest.(check int) "unchanged count" 5 (Simulator.Pcr.total_molecules pop)

let test_pcr_errors_create_variants () =
  let r = rng () in
  let molecules = [| Dna.Strand.random r 200 |] in
  let params = { Simulator.Pcr.default_params with cycles = 14; p_sub = 1e-3 } in
  let pop = Simulator.Pcr.amplify ~params r molecules in
  Alcotest.(check bool) "mutant variants appeared" true (List.length pop > 1);
  (* All variants stay within small Hamming distance of the original. *)
  List.iter
    (fun (s, _) ->
      Alcotest.(check int) "length preserved" 200 (Dna.Strand.length s))
    pop

let test_pcr_sample_proportional () =
  let r = rng () in
  let a = Dna.Strand.of_string "AAAA" and b = Dna.Strand.of_string "CCCC" in
  let pop = [ (a, 900); (b, 100) ] in
  let sampled = Simulator.Pcr.sample r pop ~n:2000 in
  let n_a = Array.to_list sampled |> List.filter (Dna.Strand.equal a) |> List.length in
  Alcotest.(check bool)
    (Printf.sprintf "a sampled ~90%% (%d/2000)" n_a)
    true
    (n_a > 1700 && n_a < 1900)

let test_pcr_skew_grows () =
  let r = rng () in
  let molecules = Array.init 50 (fun _ -> Dna.Strand.random r 60) in
  let short = Simulator.Pcr.amplify ~params:{ Simulator.Pcr.default_params with cycles = 2 } r molecules in
  let long = Simulator.Pcr.amplify ~params:{ Simulator.Pcr.default_params with cycles = 16 } r molecules in
  Alcotest.(check bool) "amplification bias accumulates" true
    (Simulator.Pcr.abundance_skew long > Simulator.Pcr.abundance_skew short)

(* ---------- constrained coding ---------- *)

let test_constrained_roundtrip () =
  let r = rng () in
  for _ = 1 to 50 do
    let n = Dna.Rng.int r 200 in
    let data = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let s = Codec.Constrained.encode data in
    match Codec.Constrained.decode ~n_bytes:n s with
    | Ok decoded -> Alcotest.(check bytes) "roundtrip" data decoded
    | Error e -> Alcotest.fail (Codec.Constrained.error_message e)
  done

let test_constrained_no_homopolymers () =
  let r = rng () in
  for _ = 1 to 50 do
    let data = Bytes.init (30 + Dna.Rng.int r 100) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    Alcotest.(check bool) "constraint holds" true
      (Codec.Constrained.satisfies_constraint (Codec.Constrained.encode data))
  done;
  (* even on pathological input *)
  Alcotest.(check bool) "all-zero input" true
    (Codec.Constrained.satisfies_constraint (Codec.Constrained.encode (Bytes.make 120 '\000')))

let test_constrained_density () =
  Alcotest.(check (float 1e-9)) "1.5 bits per nt" 1.5 Codec.Constrained.bits_per_nt;
  Alcotest.(check int) "3 bytes -> 16 nt" 16 (Codec.Constrained.encoded_length 3);
  Alcotest.(check int) "4 bytes -> 32 nt" 32 (Codec.Constrained.encoded_length 4)

let test_constrained_detects_repeat () =
  let data = Bytes.of_string "abcdef" in
  let s = Codec.Constrained.encode data in
  (* Force a repeated base: copy base 0 onto base 1. *)
  let codes = Dna.Strand.to_codes s in
  codes.(1) <- codes.(0);
  match Codec.Constrained.decode ~n_bytes:6 (Dna.Strand.of_codes codes) with
  | Error (Codec.Constrained.Repeated_base _) -> ()
  | Error e -> Alcotest.fail (Codec.Constrained.error_message e)
  | Ok _ -> Alcotest.fail "repeated base accepted"

(* ---------- clover ---------- *)

let test_clover_noiseless () =
  let r = rng () in
  let strands = Array.init 40 (fun _ -> Dna.Strand.random r 100) in
  let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 6) in
  let rs, truth = Read_oracle.sequence_arrays sp Simulator.Channel.noiseless r strands in
  let result = Clustering.Clover.run rs in
  Alcotest.(check (float 0.001)) "exact on noiseless" 1.0
    (Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters)

let test_clover_low_noise () =
  let r = rng () in
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.02 in
  let strands = Array.init 60 (fun _ -> Dna.Strand.random r 110) in
  let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 8) in
  let rs, truth = Read_oracle.sequence_arrays sp ch r strands in
  let result = Clustering.Clover.run rs in
  let purity = Clustering.Metrics.purity ~truth result.Clustering.Cluster.clusters in
  Alcotest.(check bool) (Printf.sprintf "high purity (%.3f)" purity) true (purity >= 0.95)

let test_clover_partitions_reads () =
  let r = rng () in
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.05 in
  let strands = Array.init 20 (fun _ -> Dna.Strand.random r 90) in
  let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 5) in
  let rs, _ = Read_oracle.sequence_arrays sp ch r strands in
  let result = Clustering.Clover.run rs in
  let total =
    List.fold_left (fun acc c -> acc + Array.length c) 0 result.Clustering.Cluster.clusters
  in
  Alcotest.(check int) "every read assigned exactly once" (Array.length rs) total

(* ---------- ldpc ---------- *)

let test_ldpc_encode_valid () =
  let r = rng () in
  let code = Rs.Ldpc.create ~k:96 ~m:48 () in
  for _ = 1 to 20 do
    let info = Array.init 96 (fun _ -> Dna.Rng.bool r) in
    let cw = Rs.Ldpc.encode code info in
    Alcotest.(check bool) "valid codeword" true (Rs.Ldpc.syndrome_ok code cw);
    Alcotest.(check bool) "systematic" true (Array.sub cw 0 96 = info)
  done

let test_ldpc_clean_decode () =
  let r = rng () in
  let code = Rs.Ldpc.create ~k:96 ~m:48 () in
  let info = Array.init 96 (fun _ -> Dna.Rng.bool r) in
  let cw = Rs.Ldpc.encode code info in
  match Rs.Ldpc.decode code (Rs.Ldpc.llr_bsc ~p:0.02 cw) with
  | Ok out -> Alcotest.(check bool) "identity" true (out = info)
  | Error e -> Alcotest.fail e

let test_ldpc_corrects_bsc () =
  let r = rng () in
  let code = Rs.Ldpc.create ~k:960 ~m:480 () in
  let info = Array.init 960 (fun _ -> Dna.Rng.bool r) in
  let cw = Rs.Ldpc.encode code info in
  let ok = ref 0 and trials = 10 in
  for _ = 1 to trials do
    let noisy = Array.map (fun b -> if Dna.Rng.float r < 0.015 then not b else b) cw in
    match Rs.Ldpc.decode code (Rs.Ldpc.llr_bsc ~p:0.015 noisy) with
    | Ok out when out = info -> incr ok
    | _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "1.5%% BSC corrected (%d/%d)" !ok trials) true (!ok >= 9)

let test_ldpc_corrects_erasures () =
  let r = rng () in
  let code = Rs.Ldpc.create ~k:960 ~m:480 () in
  let info = Array.init 960 (fun _ -> Dna.Rng.bool r) in
  let cw = Rs.Ldpc.encode code info in
  let ok = ref 0 and trials = 10 in
  for _ = 1 to trials do
    let noisy = Array.map (fun b -> if Dna.Rng.float r < 0.15 then None else Some b) cw in
    match Rs.Ldpc.decode code (Rs.Ldpc.llr_erasure noisy) with
    | Ok out when out = info -> incr ok
    | _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "15%% erasures corrected (%d/%d)" !ok trials) true (!ok >= 9)

let test_ldpc_overload_reported () =
  let r = rng () in
  let code = Rs.Ldpc.create ~k:960 ~m:480 () in
  let info = Array.init 960 (fun _ -> Dna.Rng.bool r) in
  let cw = Rs.Ldpc.encode code info in
  let miscorrect = ref 0 and trials = 10 in
  for _ = 1 to trials do
    let noisy = Array.map (fun b -> if Dna.Rng.float r < 0.2 then not b else b) cw in
    match Rs.Ldpc.decode code (Rs.Ldpc.llr_bsc ~p:0.2 noisy) with
    | Ok out when out <> info -> incr miscorrect
    | _ -> ()
  done;
  (* Overload must not silently return the wrong message as "valid"
     more than rarely (min-sum can converge to another codeword). *)
  Alcotest.(check bool) "rare silent miscorrection" true (!miscorrect <= 2)

let test_ldpc_bit_packing () =
  let r = rng () in
  for _ = 1 to 50 do
    let n = 1 + Dna.Rng.int r 64 in
    let b = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let bits = Rs.Ldpc.bits_of_bytes b ~bits:(8 * n) in
    Alcotest.(check bytes) "pack roundtrip" b (Rs.Ldpc.bytes_of_bits bits)
  done

(* ---------- QCheck ---------- *)

let prop_constrained_roundtrip =
  QCheck.Test.make ~name:"constrained roundtrip" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 150))
    (fun content ->
      let data = Bytes.of_string content in
      let s = Codec.Constrained.encode data in
      Codec.Constrained.satisfies_constraint s
      && (match Codec.Constrained.decode ~n_bytes:(Bytes.length data) s with
         | Ok decoded -> Bytes.equal data decoded
         | Error _ -> false))

let prop_ldpc_encode_valid =
  QCheck.Test.make ~name:"ldpc codewords satisfy all checks" ~count:50
    QCheck.(pair (int_range 16 128) (int_bound 10000))
    (fun (k, seed) ->
      let m = max 8 (k / 2) in
      let code = Rs.Ldpc.create ~k ~m () in
      let r = Dna.Rng.create seed in
      let info = Array.init k (fun _ -> Dna.Rng.bool r) in
      Rs.Ldpc.syndrome_ok code (Rs.Ldpc.encode code info))

let () =
  Alcotest.run "alternatives"
    [
      ( "pcr",
        [
          Alcotest.test_case "exponential growth" `Quick test_pcr_growth;
          Alcotest.test_case "zero cycles" `Quick test_pcr_no_cycles_identity;
          Alcotest.test_case "errors create variants" `Quick test_pcr_errors_create_variants;
          Alcotest.test_case "proportional sampling" `Quick test_pcr_sample_proportional;
          Alcotest.test_case "skew grows with cycles" `Quick test_pcr_skew_grows;
        ] );
      ( "constrained",
        [
          Alcotest.test_case "roundtrip" `Quick test_constrained_roundtrip;
          Alcotest.test_case "no homopolymers" `Quick test_constrained_no_homopolymers;
          Alcotest.test_case "density" `Quick test_constrained_density;
          Alcotest.test_case "detects repeats" `Quick test_constrained_detects_repeat;
        ] );
      ( "clover",
        [
          Alcotest.test_case "noiseless" `Quick test_clover_noiseless;
          Alcotest.test_case "low noise purity" `Quick test_clover_low_noise;
          Alcotest.test_case "partitions reads" `Quick test_clover_partitions_reads;
        ] );
      ( "ldpc",
        [
          Alcotest.test_case "encode valid" `Quick test_ldpc_encode_valid;
          Alcotest.test_case "clean decode" `Quick test_ldpc_clean_decode;
          Alcotest.test_case "corrects bsc" `Quick test_ldpc_corrects_bsc;
          Alcotest.test_case "corrects erasures" `Quick test_ldpc_corrects_erasures;
          Alcotest.test_case "overload reported" `Quick test_ldpc_overload_reported;
          Alcotest.test_case "bit packing" `Quick test_ldpc_bit_packing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_constrained_roundtrip; prop_ldpc_encode_valid ]
      );
    ]
