(* Tests for the fault-injection harness and the graceful-degradation
   decode path: every named fault plan never raises and honors its
   recovered-fraction floor on baseline-iid, fault plans replay
   bit-identically, and malformed inputs surface as structured errors
   instead of exceptions. *)

let strand = Alcotest.testable Dna.Strand.pp Dna.Strand.equal

let random_file r n = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256))

(* ---------- the plan registry under baseline-iid's floors ---------- *)

let scenario_file_bytes = 2000
let scenario_seeds = [ 1; 2 ]

(* The fault matrix: baseline-iid (the pipeline's default channel)
   carries one floor per named plan. *)
let baseline_iid = Option.get (Simulator.Scenario.find "baseline-iid")

let run_plan name seed =
  let faults =
    match List.assoc_opt name Dnastore.Faults.plans with
    | Some faults -> faults
    | None -> Alcotest.fail ("unknown fault plan " ^ name)
  in
  let plan = Dnastore.Faults.plan ~seed faults in
  let file = random_file (Dna.Rng.create (0xF11E + seed)) scenario_file_bytes in
  (file, Dnastore.Pipeline.run ~faults:plan (Dna.Rng.create seed) file)

let test_scenarios_never_raise_and_meet_floors () =
  let floors = baseline_iid.Simulator.Scenario.floors in
  Alcotest.(check (list string)) "baseline-iid floors every plan, in registry order"
    (List.map fst Dnastore.Faults.plans) (List.map fst floors);
  List.iter
    (fun (name, floor) ->
      List.iter
        (fun seed ->
          match run_plan name seed with
          | exception e ->
              Alcotest.fail
                (Printf.sprintf "%s seed %d raised %s" name seed (Printexc.to_string e))
          | _, out ->
              let frac =
                out.Dnastore.Pipeline.partial.Codec.File_codec.recovered_fraction
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d: recovered %.4f >= floor %.2f" name seed frac floor)
                true
                (frac >= floor -. 1e-9))
        scenario_seeds)
    floors

let test_scenario_replay_bit_identical () =
  List.iter
    (fun name ->
      let _, a = run_plan name 7 in
      let _, b = run_plan name 7 in
      let bytes_of out =
        match out.Dnastore.Pipeline.file with Some f -> Bytes.to_string f | None -> ""
      in
      Alcotest.(check string) (name ^ ": same decoded bytes") (bytes_of a) (bytes_of b);
      Alcotest.(check bool) (name ^ ": same partial record") true
        (a.Dnastore.Pipeline.partial = b.Dnastore.Pipeline.partial);
      Alcotest.(check int) (name ^ ": same read count") a.Dnastore.Pipeline.n_reads
        b.Dnastore.Pipeline.n_reads;
      Alcotest.(check int) (name ^ ": same cluster count") a.Dnastore.Pipeline.n_clusters
        b.Dnastore.Pipeline.n_clusters)
    [ "combined"; "dropout-20"; "undersample-50" ]

let test_stage_crash_degrades_not_raises () =
  let file = random_file (Dna.Rng.create 77) 600 in
  List.iter
    (fun stage ->
      let plan = Dnastore.Faults.plan ~seed:3 [ Dnastore.Faults.Stage_crash stage ] in
      let out = Dnastore.Pipeline.run ~faults:plan (Dna.Rng.create 3) file in
      Alcotest.(check bool)
        (Dnastore.Faults.stage_name stage ^ " crash recorded")
        true
        (List.exists (fun (s, _) -> s = stage) out.Dnastore.Pipeline.stage_failures))
    [ Dnastore.Faults.Encode; Dnastore.Faults.Simulate; Dnastore.Faults.Cluster;
      Dnastore.Faults.Reconstruct; Dnastore.Faults.Decode ]

let test_stuck_reconstruct_falls_back () =
  (* A stuck primary reconstructor must not lose the file: the fallback
     chain (NW -> BMA -> majority) still produces a consensus. *)
  let file = random_file (Dna.Rng.create 78) 600 in
  let plan = Dnastore.Faults.plan ~seed:5 [ Dnastore.Faults.Stage_stuck Dnastore.Faults.Reconstruct ] in
  let out = Dnastore.Pipeline.run ~faults:plan (Dna.Rng.create 5) file in
  Alcotest.(check bool) "stuck stage recorded" true
    (List.exists (fun (s, _) -> s = Dnastore.Faults.Reconstruct) out.Dnastore.Pipeline.stage_failures);
  Alcotest.(check bool) "file still recovered" true out.Dnastore.Pipeline.exact

(* ---------- fault-matrix golden ---------- *)

(* The 26 cells CI runs: the CLI's default payload (2000 B from
   [Rng.create 0xF11E]) under every named plan at seeds 1 and 2. One
   line per cell: plan, seed, MD5 of the decoded bytes ("" when there
   are none), recovered fraction, units R/D/L and degraded stages. A
   change that moves any decoded byte or unit status fails here. *)
let golden_line ~plan ~seed ~digest ~fraction ~units:(r, d, l) ~degraded =
  Printf.sprintf "%s %d %s %.17g %d/%d/%d %s" plan seed digest fraction r d l
    (match degraded with [] -> "-" | ss -> String.concat ";" ss)

let golden_matrix =
  [
    "clean 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "clean 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "dropout-10 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "dropout-10 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "dropout-20 1 d141475917dfdc3758aa3b5c9df634e8 0.69999999999999996 3/0/1 -";
    "dropout-20 2 535508523e065ad50f8f7f7b7cb17d49 0.14499999999999999 1/0/3 -";
    "cluster-loss-10 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "cluster-loss-10 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "truncation 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "truncation 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "corruption-2 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "corruption-2 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "undersample-70 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "undersample-70 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "undersample-50 1 9ba00fe570fca7e36e86c1d803272070 0.45300000000000001 0/4/0 -";
    "undersample-50 2 012c9192d5517ef8700c6cf20a95a7e7 0.77949999999999997 2/2/0 -";
    "combined 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "combined 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 -";
    "crash-cluster 1  0 0/0/4 cluster";
    "crash-cluster 2  0 0/0/4 cluster";
    "stuck-reconstruct 1 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 reconstruct";
    "stuck-reconstruct 2 c6682c6df3e347bcdeac4b29b2f8284f 1 4/0/0 reconstruct";
    "crash-decode 1  0 0/0/4 decode";
    "crash-decode 2  0 0/0/4 decode";
    "crash-encode 1  0 0/0/0 encode";
    "crash-encode 2  0 0/0/0 encode";
  ]

let observed_matrix () =
  let data = random_file (Dna.Rng.create 0xF11E) 2000 in
  match Dnastore.Scenario_run.sweep ~seeds:[ 1; 2 ] ~data [ baseline_iid ] with
  | Error e -> Alcotest.fail e
  | Ok outcomes ->
      List.map
        (fun (o : Dnastore.Scenario_run.outcome) ->
          golden_line ~plan:o.fault ~seed:o.seed ~digest:o.digest
            ~fraction:o.recovered_fraction ~units:o.units ~degraded:o.degraded)
        outcomes

let test_fault_matrix_golden () =
  Alcotest.(check (list string)) "fault matrix cells" golden_matrix (observed_matrix ())

(* ---------- fault-stream determinism ---------- *)

let test_injection_deterministic_and_seed_sensitive () =
  let strands = Array.init 200 (fun i -> Dna.Strand.random (Dna.Rng.create (1000 + i)) 50) in
  let survivors seed =
    let plan = Dnastore.Faults.plan ~seed [ Dnastore.Faults.Strand_dropout 0.3 ] in
    Array.to_list (Array.map Dna.Strand.to_string (Dnastore.Faults.inject_strands plan strands))
  in
  Alcotest.(check (list string)) "same plan, same survivors" (survivors 9) (survivors 9);
  Alcotest.(check bool) "different seed, different survivors" false (survivors 9 = survivors 10)

let test_injection_independent_of_ambient_rng () =
  (* The fault stream must come from the plan seed alone: whatever the
     pipeline's rng drew beforehand cannot shift the injected sites. *)
  let strands = Array.init 100 (fun i -> Dna.Strand.random (Dna.Rng.create (2000 + i)) 40) in
  let plan = Dnastore.Faults.plan ~seed:21 [ Dnastore.Faults.Strand_dropout 0.25 ] in
  let ambient = Dna.Rng.create 4 in
  let a = Dnastore.Faults.inject_strands plan strands in
  for _ = 1 to 1234 do
    ignore (Dna.Rng.float ambient)
  done;
  let b = Dnastore.Faults.inject_strands plan strands in
  Alcotest.(check int) "same survivor count" (Array.length a) (Array.length b);
  Array.iteri (fun i s -> Alcotest.check strand "same survivor" a.(i) s) b

(* ---------- malformed-input decode paths ---------- *)

let encode_file n =
  let file = random_file (Dna.Rng.create 555) n in
  (file, Codec.File_codec.encode file)

let test_index_decode_truncated () =
  let s = Codec.Index.encode { Codec.Index.unit_id = 3; column = 1 } in
  for len = 0 to Codec.Index.nt_length - 1 do
    match Codec.Index.decode (Dna.Strand.sub s ~pos:0 ~len) with
    | Error (Codec.Index.Truncated { expected; got }) ->
        Alcotest.(check int) "expected" Codec.Index.nt_length expected;
        Alcotest.(check int) "got" len got
    | Error (Codec.Index.Bad_checksum _) -> Alcotest.fail "truncation misreported as checksum"
    | Ok _ -> Alcotest.fail "truncated index accepted"
  done

let test_constrained_decode_too_short () =
  let data = Bytes.of_string "0123456789" in
  let s = Codec.Constrained.encode data in
  let short = Dna.Strand.sub s ~pos:0 ~len:(Dna.Strand.length s / 2) in
  match Codec.Constrained.decode ~n_bytes:(Bytes.length data) short with
  | Error (Codec.Constrained.Too_short _) -> ()
  | Error e -> Alcotest.fail (Codec.Constrained.error_message e)
  | Ok _ -> Alcotest.fail "short strand accepted"

let test_decode_truncated_strands_never_raise () =
  let _, enc = encode_file 700 in
  let r = Dna.Rng.create 31 in
  let truncated =
    Array.to_list
      (Array.map
         (fun s ->
           let len = 1 + Dna.Rng.int r (Dna.Strand.length s) in
           Dna.Strand.sub s ~pos:0 ~len)
         enc.Codec.File_codec.strands)
  in
  match Codec.File_codec.decode ~n_units:enc.Codec.File_codec.n_units truncated with
  | Ok (_, stats) ->
      Alcotest.(check bool) "truncation surfaced in stats" true
        (stats.Codec.File_codec.unparsable_strands > 0 || not (Codec.File_codec.fully_recovered stats))
  | Error _ -> () (* structured failure is acceptable; raising is not *)

let test_decode_corrupt_index_counted () =
  let file, enc = encode_file 400 in
  let r = Dna.Rng.create 32 in
  (* Replace the index region of 5 strands with random bases: they must
     be rejected by the checksum and counted, not misplaced. *)
  let strands = Array.copy enc.Codec.File_codec.strands in
  for i = 0 to 4 do
    let s = strands.(i) in
    strands.(i) <-
      Dna.Strand.append
        (Dna.Strand.random r Codec.Index.nt_length)
        (Dna.Strand.sub s ~pos:Codec.Index.nt_length
           ~len:(Dna.Strand.length s - Codec.Index.nt_length))
  done;
  match Codec.File_codec.decode ~n_units:enc.Codec.File_codec.n_units (Array.to_list strands) with
  | Ok (decoded, _) -> Alcotest.(check bytes) "erasures within budget" file decoded
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)

let test_decode_duplicate_unit_ids_first_wins () =
  let file, enc = encode_file 500 in
  let r = Dna.Rng.create 33 in
  (* Conflicting duplicates carrying valid indices but garbage payloads,
     fed *after* the clean strands: the first parsed copy must win. *)
  let impostors =
    List.init 10 (fun i ->
        let s = enc.Codec.File_codec.strands.(i) in
        Dna.Strand.append
          (Dna.Strand.sub s ~pos:0 ~len:Codec.Index.nt_length)
          (Dna.Strand.random r (Dna.Strand.length s - Codec.Index.nt_length)))
  in
  let strands = Array.to_list enc.Codec.File_codec.strands @ impostors in
  match Codec.File_codec.decode ~n_units:enc.Codec.File_codec.n_units strands with
  | Ok (decoded, _) -> Alcotest.(check bytes) "first copy wins" file decoded
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)

let test_decode_empty_strand_list () =
  let _, enc = encode_file 300 in
  match Codec.File_codec.decode ~n_units:enc.Codec.File_codec.n_units [] with
  | Error _ -> ()
  | Ok (decoded, stats) ->
      (* Acceptable only as an honest all-lost partial, never as a
         silently "recovered" file. *)
      let p =
        Codec.File_codec.partial ~params:Codec.Params.default ~file_len:(Bytes.length decoded)
          stats
      in
      Alcotest.(check (float 1e-9)) "nothing recovered" 0.0
        p.Codec.File_codec.recovered_fraction

let test_decode_invalid_arguments () =
  let _, enc = encode_file 300 in
  let strands = Array.to_list enc.Codec.File_codec.strands in
  (match Codec.File_codec.decode ~n_units:(-1) strands with
  | Error (Codec.File_codec.Invalid_params _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "negative n_units accepted");
  match Codec.File_codec.decode ~n_units:(Codec.Index.max_unit + 2) strands with
  | Error (Codec.File_codec.Invalid_params _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized n_units accepted"

let test_decode_fuzz_never_raises () =
  (* Seeded fuzz: random byte-flips, truncations and dropouts over the
     encoded pool. Decode must return Ok or Error, never raise. *)
  let file, enc = encode_file 700 in
  let r = Dna.Rng.create 0xFACE in
  for _ = 1 to 60 do
    let mangled =
      Array.to_list enc.Codec.File_codec.strands
      |> List.filter_map (fun s ->
             if Dna.Rng.float r < 0.1 then None (* dropout *)
             else begin
               let codes = Dna.Strand.to_codes s in
               let flips = Dna.Rng.int r 8 in
               for _ = 1 to flips do
                 let p = Dna.Rng.int r (Array.length codes) in
                 codes.(p) <- (codes.(p) + 1 + Dna.Rng.int r 3) land 3
               done;
               let s = Dna.Strand.of_codes codes in
               if Dna.Rng.float r < 0.1 then
                 Some (Dna.Strand.sub s ~pos:0 ~len:(1 + Dna.Rng.int r (Dna.Strand.length s)))
               else Some s
             end)
    in
    match Codec.File_codec.decode ~n_units:enc.Codec.File_codec.n_units mangled with
    | Ok (decoded, stats) ->
        (* When every codeword decoded, the bytes must be right: no
           silent corruption under the fuzzer either. *)
        if Codec.File_codec.fully_recovered stats then
          Alcotest.(check bytes) "fully recovered implies exact" file decoded
    | Error _ -> ()
    | exception e -> Alcotest.fail ("decode raised " ^ Printexc.to_string e)
  done

(* ---------- partial-recovery mapping ---------- *)

let test_partial_recovery_maps_lost_unit () =
  (* Drop every strand of unit 1 of a 3-unit file: its bytes must be
     reported lost, the other units' bytes recovered. *)
  let file, enc = encode_file 1400 in
  Alcotest.(check bool) "needs >= 3 units" true (enc.Codec.File_codec.n_units >= 3);
  let survivors =
    Array.to_list enc.Codec.File_codec.strands
    |> List.filter (fun s ->
           match Codec.Index.decode (Dna.Strand.sub s ~pos:0 ~len:Codec.Index.nt_length) with
           | Ok idx -> idx.Codec.Index.unit_id <> 1
           | Error _ -> true)
  in
  match Codec.File_codec.decode ~n_units:enc.Codec.File_codec.n_units survivors with
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)
  | Ok (decoded, stats) ->
      let p =
        Codec.File_codec.partial ~params:Codec.Params.default
          ~file_len:(Bytes.length decoded) stats
      in
      (match p.Codec.File_codec.unit_status.(1) with
      | Codec.File_codec.Lost -> ()
      | _ -> Alcotest.fail "unit 1 not reported lost");
      (match p.Codec.File_codec.unit_status.(0) with
      | Codec.File_codec.Recovered -> ()
      | _ -> Alcotest.fail "unit 0 not recovered");
      Alcotest.(check bool) "fraction strictly between 0 and 1" true
        (p.Codec.File_codec.recovered_fraction > 0.0
        && p.Codec.File_codec.recovered_fraction < 1.0);
      (* Every reported range must hold bytes identical to the input. *)
      List.iter
        (fun (a, b) ->
          Alcotest.(check bytes)
            (Printf.sprintf "range [%d,%d) intact" a b)
            (Bytes.sub file a (b - a))
            (Bytes.sub decoded a (b - a)))
        p.Codec.File_codec.recovered_ranges

(* ---------- typed errors in primer generation ---------- *)

let test_primer_attempt_cap_is_typed () =
  match Codec.Primer.generate ~min_distance:20 ~max_attempts:50 (Dna.Rng.create 1) 64 with
  | Error (Codec.Primer.Constraints_unsatisfiable { requested; generated; attempts }) ->
      Alcotest.(check int) "requested" 64 requested;
      Alcotest.(check bool) "partial progress reported" true (generated < requested);
      Alcotest.(check int) "attempt cap honored" 50 attempts
  | Ok _ -> Alcotest.fail "unsatisfiable constraints satisfied"

let () =
  Alcotest.run "faults"
    [
      ( "scenarios",
        [
          Alcotest.test_case "never raise, floors met" `Slow
            test_scenarios_never_raise_and_meet_floors;
          Alcotest.test_case "replay bit-identical" `Slow test_scenario_replay_bit_identical;
          Alcotest.test_case "stage crashes degrade" `Quick test_stage_crash_degrades_not_raises;
          Alcotest.test_case "stuck reconstruct falls back" `Quick
            test_stuck_reconstruct_falls_back;
          Alcotest.test_case "fault matrix golden (26 cells)" `Slow test_fault_matrix_golden;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded and seed-sensitive" `Quick
            test_injection_deterministic_and_seed_sensitive;
          Alcotest.test_case "independent of ambient rng" `Quick
            test_injection_independent_of_ambient_rng;
        ] );
      ( "malformed-input",
        [
          Alcotest.test_case "truncated index" `Quick test_index_decode_truncated;
          Alcotest.test_case "short constrained strand" `Quick test_constrained_decode_too_short;
          Alcotest.test_case "truncated strands" `Quick test_decode_truncated_strands_never_raise;
          Alcotest.test_case "corrupt index counted" `Quick test_decode_corrupt_index_counted;
          Alcotest.test_case "duplicate unit ids" `Quick test_decode_duplicate_unit_ids_first_wins;
          Alcotest.test_case "empty strand list" `Quick test_decode_empty_strand_list;
          Alcotest.test_case "invalid arguments" `Quick test_decode_invalid_arguments;
          Alcotest.test_case "fuzz never raises" `Quick test_decode_fuzz_never_raises;
        ] );
      ( "partial-recovery",
        [ Alcotest.test_case "lost unit mapped" `Quick test_partial_recovery_maps_lost_unit ] );
      ( "typed-errors",
        [
          Alcotest.test_case "primer attempt cap" `Quick test_primer_attempt_cap_is_typed;
        ] );
    ]
