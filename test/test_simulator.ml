(* Tests for the wetlab simulators: channel statistics, sequencing
   coverage, and the learned channels. *)

let rng () = Dna.Rng.create 31415

let avg_edit_rate ch r ~len ~trials =
  let total = ref 0 in
  for _ = 1 to trials do
    let clean = Dna.Strand.random r len in
    let noisy = Simulator.Channel.transmit ch r clean in
    total := !total + Dna.Distance.levenshtein clean noisy
  done;
  float_of_int !total /. float_of_int (trials * len)

(* ---------- channel basics ---------- *)

let test_noiseless_identity () =
  let r = rng () in
  for _ = 1 to 50 do
    let s = Dna.Strand.random r 50 in
    Alcotest.(check string) "identity" (Dna.Strand.to_string s)
      (Dna.Strand.to_string (Simulator.Channel.transmit Simulator.Channel.noiseless r s))
  done

let test_iid_zero_rate_identity () =
  let r = rng () in
  let ch = Simulator.Iid_channel.create { p_ins = 0.0; p_del = 0.0; p_sub = 0.0 } in
  let s = Dna.Strand.random r 80 in
  Alcotest.(check string) "no-op" (Dna.Strand.to_string s)
    (Dna.Strand.to_string (Simulator.Channel.transmit ch r s))

let test_iid_rate_calibrated () =
  (* Observed edit rate should be near the configured total rate. *)
  let r = rng () in
  List.iter
    (fun rate ->
      let ch = Simulator.Iid_channel.create_rate ~error_rate:rate in
      let measured = avg_edit_rate ch r ~len:100 ~trials:300 in
      Alcotest.(check bool)
        (Printf.sprintf "rate %.2f measured %.3f" rate measured)
        true
        (measured > 0.6 *. rate && measured < 1.2 *. rate))
    [ 0.03; 0.06; 0.12 ]

let test_iid_validation () =
  Alcotest.check_raises "negative p"
    (Invalid_argument "Iid_channel: probabilities must be nonnegative and sum to at most 1")
    (fun () -> ignore (Simulator.Iid_channel.create { p_ins = -0.1; p_del = 0.0; p_sub = 0.0 }))

let test_iid_deletion_only_shortens () =
  let r = rng () in
  let ch = Simulator.Iid_channel.create { p_ins = 0.0; p_del = 0.2; p_sub = 0.0 } in
  for _ = 1 to 50 do
    let s = Dna.Strand.random r 60 in
    let n = Simulator.Channel.transmit ch r s in
    Alcotest.(check bool) "never longer" true (Dna.Strand.length n <= 60)
  done

let test_iid_insertion_only_lengthens () =
  let r = rng () in
  let ch = Simulator.Iid_channel.create { p_ins = 0.2; p_del = 0.0; p_sub = 0.0 } in
  for _ = 1 to 50 do
    let s = Dna.Strand.random r 60 in
    let n = Simulator.Channel.transmit ch r s in
    Alcotest.(check bool) "never shorter" true (Dna.Strand.length n >= 60)
  done

let test_sub_only_preserves_length () =
  let r = rng () in
  let ch = Simulator.Iid_channel.create { p_ins = 0.0; p_del = 0.0; p_sub = 0.3 } in
  for _ = 1 to 50 do
    let s = Dna.Strand.random r 60 in
    Alcotest.(check int) "same length" 60 (Dna.Strand.length (Simulator.Channel.transmit ch r s))
  done

let test_solqc_noise_level () =
  let r = rng () in
  let ch = Simulator.Solqc_channel.create_rate ~error_rate:0.06 in
  let measured = avg_edit_rate ch r ~len:100 ~trials:300 in
  Alcotest.(check bool) "noisy but bounded" true (measured > 0.01 && measured < 0.12)

let test_wetlab_position_dependence () =
  (* The wetlab stand-in must show a rising error profile toward the 3'
     end — the property naive simulators miss. *)
  let r = rng () in
  let ch = Simulator.Wetlab_channel.create () in
  let profile = Simulator.Channel.measure_error_profile ch r ~strand_len:100 ~trials:600 in
  let seg lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. profile.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  let middle = seg 30 50 and tail = seg 80 100 in
  Alcotest.(check bool)
    (Printf.sprintf "tail %.3f > middle %.3f" tail middle)
    true (tail > middle)

let test_wetlab_bursts_present () =
  (* Deletion runs of length >= 2 must occur measurably more often than
     an i.i.d. channel of the same rate would produce. *)
  let r = rng () in
  let burst_count ch =
    let bursts = ref 0 in
    for _ = 1 to 400 do
      let clean = Dna.Strand.random r 100 in
      let noisy = Simulator.Channel.transmit ch r clean in
      let al = Dna.Alignment.align clean noisy in
      let run = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Dna.Alignment.Delete _ -> incr run
          | _ ->
              if !run >= 2 then incr bursts;
              run := 0)
        al.Dna.Alignment.script;
      if !run >= 2 then incr bursts
    done;
    !bursts
  in
  let wetlab = burst_count (Simulator.Wetlab_channel.create ()) in
  let iid = burst_count (Simulator.Iid_channel.create_rate ~error_rate:0.10) in
  Alcotest.(check bool)
    (Printf.sprintf "wetlab bursts %d > iid bursts %d" wetlab iid)
    true
    (wetlab > iid)

(* ---------- sequencer ---------- *)

let test_sequencer_fixed_coverage () =
  let r = rng () in
  let strands = Array.init 20 (fun _ -> Dna.Strand.random r 40) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 7) in
  let _, origins = Read_oracle.sequence_arrays params Simulator.Channel.noiseless r strands in
  Alcotest.(check int) "total reads" 140 (Array.length origins);
  let per = Array.make 20 0 in
  Array.iter (fun o -> per.(o) <- per.(o) + 1) origins;
  Array.iter (fun c -> Alcotest.(check int) "exactly 7 each" 7 c) per

let test_sequencer_poisson_coverage () =
  let r = rng () in
  let strands = Array.init 200 (fun _ -> Dna.Strand.random r 30) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Poisson 8.0) in
  let reads, _ = Read_oracle.sequence_arrays params Simulator.Channel.noiseless r strands in
  let mean = float_of_int (Array.length reads) /. 200.0 in
  Alcotest.(check bool) "mean near 8" true (mean > 7.0 && mean < 9.0)

let test_sequencer_dropout () =
  let r = rng () in
  let strands = Array.init 300 (fun _ -> Dna.Strand.random r 30) in
  let params =
    { (Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 2)) with
      Simulator.Sequencer.dropout = 0.5 }
  in
  let _, origins = Read_oracle.sequence_arrays params Simulator.Channel.noiseless r strands in
  let seen = Hashtbl.create 64 in
  Array.iter (fun o -> Hashtbl.replace seen o ()) origins;
  let surviving = Hashtbl.length seen in
  Alcotest.(check bool)
    (Printf.sprintf "about half dropped (%d)" surviving)
    true
    (surviving > 100 && surviving < 200)

let test_sequencer_reverse_orientation () =
  let r = rng () in
  let strands = [| Dna.Strand.of_string "AACCGGTTAACCGGTTAAAA" |] in
  let params =
    { (Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 400)) with
      Simulator.Sequencer.p_reverse = 0.5 }
  in
  let reads, _ = Read_oracle.sequence_arrays params Simulator.Channel.noiseless r strands in
  let fwd = ref 0 and rev = ref 0 in
  Array.iter
    (fun rd ->
      if Dna.Strand.equal rd strands.(0) then incr fwd
      else if Dna.Strand.equal rd (Dna.Strand.reverse_complement strands.(0)) then incr rev
      else Alcotest.fail "read is neither orientation")
    reads;
  Alcotest.(check int) "all reads accounted" 400 (!fwd + !rev);
  Alcotest.(check bool) "both orientations occur" true (!fwd > 100 && !rev > 100)

let test_shard_depth_scaling () =
  (* Selecting a small fraction of a shard concentrates the read
     budget: depth scales with sqrt(shard/selected), clamped to
     [base, 4*base]. *)
  let depth = Simulator.Sequencer.shard_depth ~base:10 in
  Alcotest.(check int) "full shard selected -> base" 10 (depth ~n_selected:512 ~n_shard:512);
  Alcotest.(check int) "quarter selected -> 2x" 20 (depth ~n_selected:128 ~n_shard:512);
  Alcotest.(check int) "tiny selection clamps at 4x" 40 (depth ~n_selected:2 ~n_shard:512);
  Alcotest.(check int) "selection larger than shard -> base" 10 (depth ~n_selected:64 ~n_shard:26);
  Alcotest.(check int) "empty selection" 0 (depth ~n_selected:0 ~n_shard:512);
  Alcotest.(check int) "zero base" 0 (Simulator.Sequencer.shard_depth ~base:0 ~n_selected:10 ~n_shard:100)

(* ---------- learned channel ---------- *)

let test_learned_channel_matches_rate () =
  (* Train on pairs from an i.i.d. channel; the learned channel must
     reproduce a similar overall error rate. *)
  let r = rng () in
  let teacher = Simulator.Iid_channel.create_rate ~error_rate:0.08 in
  let pairs = Simulator.Trainer.generate_pairs teacher r ~n:600 ~len:80 in
  let learned = Simulator.Learned_channel.create (Simulator.Learned_channel.train pairs) in
  let target = avg_edit_rate teacher r ~len:80 ~trials:300 in
  let got = avg_edit_rate learned r ~len:80 ~trials:300 in
  Alcotest.(check bool)
    (Printf.sprintf "learned %.3f ~ teacher %.3f" got target)
    true
    (abs_float (got -. target) < 0.03)

let test_learned_channel_position_profile () =
  (* Train on the position-dependent wetlab channel; the learned model
     must reproduce the rising tail. *)
  let r = rng () in
  let teacher = Simulator.Wetlab_channel.create () in
  let pairs = Simulator.Trainer.generate_pairs teacher r ~n:800 ~len:80 in
  let learned = Simulator.Learned_channel.create (Simulator.Learned_channel.train pairs) in
  let profile = Simulator.Channel.measure_error_profile learned r ~strand_len:80 ~trials:500 in
  let seg lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. profile.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  Alcotest.(check bool) "tail heavier than middle" true (seg 60 80 > seg 25 45)

let test_learned_channel_empty_rejected () =
  Alcotest.check_raises "empty dataset"
    (Invalid_argument "Learned_channel.train: empty dataset") (fun () ->
      ignore (Simulator.Learned_channel.train []))

let test_trainer_split_fractions () =
  let r = rng () in
  let pairs = List.init 100 (fun _ -> (Dna.Strand.random r 10, Dna.Strand.random r 10)) in
  let ds = Simulator.Trainer.split r pairs in
  Alcotest.(check int) "train 80" 80 (List.length ds.Simulator.Trainer.train);
  Alcotest.(check int) "val 10" 10 (List.length ds.Simulator.Trainer.validation);
  Alcotest.(check int) "test 10" 10 (List.length ds.Simulator.Trainer.test)

let test_rnn_channel_emits_reads () =
  let r = rng () in
  let model = Neural.Seq2seq.create ~hidden:8 r in
  let ch = Simulator.Rnn_channel.create model in
  for _ = 1 to 10 do
    let s = Dna.Strand.random r 20 in
    let out = Simulator.Channel.transmit ch r s in
    Alcotest.(check bool) "nonempty read" true (Dna.Strand.length out > 0)
  done

(* ---------- pooled sequencing ---------- *)

(* The arena path must replay the boxed oracle draw for draw for every
   native channel and for a channel built from a boxed model. *)
let test_sequence_pool_iid () =
  Read_oracle.check_pool_matches_boxed "iid"
    ~boxed:(Channel_oracle.iid (Simulator.Iid_channel.default_params ~error_rate:0.08))
    (Simulator.Iid_channel.create_rate ~error_rate:0.08)

let test_sequence_pool_solqc () =
  Read_oracle.check_pool_matches_boxed "solqc"
    ~boxed:(Channel_oracle.solqc (Simulator.Solqc_channel.default_params ~error_rate:0.05))
    (Simulator.Solqc_channel.create_rate ~error_rate:0.05)

let test_sequence_pool_wetlab () =
  Read_oracle.check_pool_matches_boxed "wetlab"
    ~boxed:(Channel_oracle.wetlab Simulator.Wetlab_channel.default_params)
    (Simulator.Wetlab_channel.create ())

let test_sequence_pool_noiseless () =
  Read_oracle.check_pool_matches_boxed "noiseless" ~boxed:(fun _ s -> s)
    Simulator.Channel.noiseless

let test_sequence_pool_generic_fallback () =
  (* A channel built from a boxed model re-emits the model's reads —
     still the same rng stream. *)
  let model rng s =
    ignore (Dna.Rng.float rng);
    Dna.Strand.rev s
  in
  Read_oracle.check_pool_matches_boxed "fallback" ~boxed:model
    (Simulator.Channel.create ~name:"test-boxed-only" model)

(* Property: for an ARBITRARY boxed model — randomized draw count per
   base, deletion/insertion probabilities, and a final whole-strand
   draw — the channel [Channel.create] builds from it replays the model
   draw for draw through pooled sequencing. *)
let prop_generic_fallback_matches_boxed =
  QCheck.Test.make ~name:"generic transmit_into fallback = boxed (arbitrary channel)" ~count:40
    QCheck.(
      quad (float_range 0.0 0.3) (float_range 0.0 0.3) (int_range 0 3) bool)
    (fun (p_del, p_ins, extra_draws, tail_draw) ->
      let model rng s =
        let n = Dna.Strand.length s in
        let buf = Buffer.create n in
        for i = 0 to n - 1 do
          for _ = 1 to extra_draws do
            ignore (Dna.Rng.float rng)
          done;
          let u = Dna.Rng.float rng in
          if u < p_del then ()
          else begin
            if u < p_del +. p_ins then
              Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.int rng 4);
            Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Strand.unsafe_get_code s i)
          end
        done;
        if tail_draw then ignore (Dna.Rng.int rng 2);
        Dna.Strand.of_string (Buffer.contents buf)
      in
      let ch = Simulator.Channel.create ~name:"arbitrary-boxed-only" model in
      let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 3) in
      let strands = Array.init 6 (fun i -> Dna.Strand.random (Dna.Rng.create (200 + i)) 60) in
      let boxed = Read_oracle.sequence params model (Dna.Rng.create 9) strands in
      let reads, origins = Read_oracle.sequence_arrays params ch (Dna.Rng.create 9) strands in
      Array.length boxed = Array.length origins
      && Array.for_all
           (fun ok -> ok)
           (Array.mapi
              (fun i (r : Read_oracle.read) ->
                r.origin = origins.(i) && Dna.Strand.equal r.seq reads.(i))
              boxed))

(* The read stream, pinned: for each seed, channel and coverage setting,
   the number of reads [sequence_pool] yields and a CRC-32 over every
   (origin, read) pair in order. Recorded from the serial sequencer, so
   any change to the draw order, the shuffle or a channel's stream
   shows up here. *)
let golden_channels () =
  let scenario =
    {
      Simulator.Scenario.name = "golden-iid+burst";
      description = "";
      stages =
        [
          Simulator.Scenario.Read (Simulator.Scenario.Iid 0.03);
          Simulator.Scenario.Read (Simulator.Scenario.Burst Simulator.Burst_channel.default_params);
        ];
      floors = [];
    }
  in
  let built =
    match Simulator.Scenario.build scenario with Ok b -> b | Error e -> Alcotest.fail e
  in
  let trace =
    let path = Filename.temp_file "golden_trace" ".fastq" in
    Simulator.Trace_channel.write_synthetic ~seed:7 path;
    let fitted = Simulator.Trace_channel.fit path in
    Sys.remove path;
    match fitted with Ok p -> Simulator.Trace_channel.create p | Error e -> Alcotest.fail e
  in
  [
    ("iid", Simulator.Iid_channel.create_rate ~error_rate:0.08);
    ("solqc", Simulator.Solqc_channel.create_rate ~error_rate:0.05);
    ("wetlab", Simulator.Wetlab_channel.create ());
    ("noiseless", Simulator.Channel.noiseless);
    ("scenario", built.Simulator.Scenario.channel);
    ("aging", Simulator.Aging_channel.create ());
    ("burst", Simulator.Burst_channel.create ());
    ("trace", trace);
  ]

let golden_params =
  let fixed = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 4) in
  [
    ("fixed4", fixed);
    ("fixed4-drop-rev", { fixed with Simulator.Sequencer.dropout = 0.2; p_reverse = 0.4 });
    ( "poisson3-drop-rev",
      { Simulator.Sequencer.coverage = Simulator.Sequencer.Poisson 3.0; dropout = 0.2; p_reverse = 0.4 } );
  ]

let stream_digest params channel seed =
  let strands = Array.init 12 (fun i -> Dna.Strand.random (Dna.Rng.create (100 + i)) 90) in
  let pool = Dna.Strand_pool.create () in
  let origins =
    Simulator.Sequencer.sequence_pool params channel (Dna.Rng.create seed) strands ~pool
  in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i o ->
      Buffer.add_string buf (string_of_int o);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Dna.Strand.to_string (Dna.Strand_pool.get pool i));
      Buffer.add_char buf '\n')
    origins;
  (Array.length origins, Store.Io.crc32 (Buffer.contents buf))

let golden_expected =
  [
    (0, "iid", "fixed4", 48, 0x0648a4d1);
    (0, "iid", "fixed4-drop-rev", 44, 0x3972eb07);
    (0, "iid", "poisson3-drop-rev", 44, 0x5fb6bbf2);
    (0, "solqc", "fixed4", 48, 0x6fbf0c84);
    (0, "solqc", "fixed4-drop-rev", 36, 0x73c4a7a6);
    (0, "solqc", "poisson3-drop-rev", 30, 0x5dafde42);
    (0, "wetlab", "fixed4", 48, 0x45071933);
    (0, "wetlab", "fixed4-drop-rev", 36, 0xc3fa3493);
    (0, "wetlab", "poisson3-drop-rev", 32, 0xae0b84aa);
    (0, "noiseless", "fixed4", 48, 0x1a33574a);
    (0, "noiseless", "fixed4-drop-rev", 32, 0xc48a030b);
    (0, "noiseless", "poisson3-drop-rev", 37, 0xf183470a);
    (0, "scenario", "fixed4", 48, 0x7ad5c571);
    (0, "scenario", "fixed4-drop-rev", 44, 0x3f76f756);
    (0, "scenario", "poisson3-drop-rev", 27, 0x780ebe29);
    (0, "aging", "fixed4", 48, 0x5b4b0e58);
    (0, "aging", "fixed4-drop-rev", 36, 0xc8b7148b);
    (0, "aging", "poisson3-drop-rev", 30, 0x932355fa);
    (0, "burst", "fixed4", 48, 0xab9af4ff);
    (0, "burst", "fixed4-drop-rev", 36, 0x1dcb96fa);
    (0, "burst", "poisson3-drop-rev", 31, 0xd64121d0);
    (0, "trace", "fixed4", 48, 0x5f0299e3);
    (0, "trace", "fixed4-drop-rev", 40, 0x303bde59);
    (0, "trace", "poisson3-drop-rev", 31, 0x254e3965);
    (1, "iid", "fixed4", 48, 0x8b04f633);
    (1, "iid", "fixed4-drop-rev", 28, 0x2dec820f);
    (1, "iid", "poisson3-drop-rev", 28, 0x2a1147f4);
    (1, "solqc", "fixed4", 48, 0xb8b6c344);
    (1, "solqc", "fixed4-drop-rev", 40, 0xde09e521);
    (1, "solqc", "poisson3-drop-rev", 22, 0x026b1979);
    (1, "wetlab", "fixed4", 48, 0x77633572);
    (1, "wetlab", "fixed4-drop-rev", 44, 0x0b7b7661);
    (1, "wetlab", "poisson3-drop-rev", 27, 0x3f7c8a2e);
    (1, "noiseless", "fixed4", 48, 0x2f4c88e1);
    (1, "noiseless", "fixed4-drop-rev", 40, 0xb860c593);
    (1, "noiseless", "poisson3-drop-rev", 38, 0xd440d272);
    (1, "scenario", "fixed4", 48, 0x9283ecc2);
    (1, "scenario", "fixed4-drop-rev", 44, 0x1e47fc8d);
    (1, "scenario", "poisson3-drop-rev", 36, 0xcefa1131);
    (1, "aging", "fixed4", 48, 0xeb8c0af3);
    (1, "aging", "fixed4-drop-rev", 40, 0x1ea652ea);
    (1, "aging", "poisson3-drop-rev", 28, 0xdbaaa109);
    (1, "burst", "fixed4", 48, 0x3eb179ed);
    (1, "burst", "fixed4-drop-rev", 44, 0xfd2e400d);
    (1, "burst", "poisson3-drop-rev", 25, 0xee35819f);
    (1, "trace", "fixed4", 48, 0x0507868a);
    (1, "trace", "fixed4-drop-rev", 48, 0x5ca4b5e4);
    (1, "trace", "poisson3-drop-rev", 42, 0x8171a447);
    (12345, "iid", "fixed4", 48, 0x68981ee3);
    (12345, "iid", "fixed4-drop-rev", 40, 0x1bcc2b0d);
    (12345, "iid", "poisson3-drop-rev", 25, 0x469cb94e);
    (12345, "solqc", "fixed4", 48, 0x534f9255);
    (12345, "solqc", "fixed4-drop-rev", 36, 0x2a6cb57e);
    (12345, "solqc", "poisson3-drop-rev", 36, 0xfa0aa0b5);
    (12345, "wetlab", "fixed4", 48, 0xbe9d4650);
    (12345, "wetlab", "fixed4-drop-rev", 40, 0x08b68786);
    (12345, "wetlab", "poisson3-drop-rev", 37, 0xdad69111);
    (12345, "noiseless", "fixed4", 48, 0x74bc3d6f);
    (12345, "noiseless", "fixed4-drop-rev", 32, 0xdb21220c);
    (12345, "noiseless", "poisson3-drop-rev", 26, 0xd091e22d);
    (12345, "scenario", "fixed4", 48, 0xfa550de3);
    (12345, "scenario", "fixed4-drop-rev", 40, 0xb9f6e8cc);
    (12345, "scenario", "poisson3-drop-rev", 29, 0xcac88b52);
    (12345, "aging", "fixed4", 48, 0xbaac32d6);
    (12345, "aging", "fixed4-drop-rev", 44, 0xf7a07da8);
    (12345, "aging", "poisson3-drop-rev", 31, 0xa321ed70);
    (12345, "burst", "fixed4", 48, 0x96f6feca);
    (12345, "burst", "fixed4-drop-rev", 40, 0xcffc9fd6);
    (12345, "burst", "poisson3-drop-rev", 29, 0x5669002f);
    (12345, "trace", "fixed4", 48, 0x1fc4c930);
    (12345, "trace", "fixed4-drop-rev", 40, 0xee7b2453);
    (12345, "trace", "poisson3-drop-rev", 40, 0x9b465eb0)
  ]

let test_sequence_pool_golden_stream () =
  let channels = golden_channels () in
  List.iter
    (fun (seed, cn, pn, n, crc) ->
      let got_n, got_crc =
        stream_digest (List.assoc pn golden_params) (List.assoc cn channels) seed
      in
      let what = Printf.sprintf "seed %d, %s, %s" seed cn pn in
      Alcotest.(check int) (what ^ ": read count") n got_n;
      Alcotest.(check int) (what ^ ": crc32") crc got_crc)
    golden_expected

let test_sequence_pool_dropout_reverse () =
  Read_oracle.check_pool_matches_boxed "dropout+reverse"
    ~boxed:(Channel_oracle.iid (Simulator.Iid_channel.default_params ~error_rate:0.08))
    ~params:
      {
        Simulator.Sequencer.coverage = Simulator.Sequencer.Poisson 3.0;
        dropout = 0.2;
        p_reverse = 0.4;
      }
    (Simulator.Iid_channel.create_rate ~error_rate:0.08)

let () =
  Alcotest.run "simulator"
    [
      ( "channels",
        [
          Alcotest.test_case "noiseless identity" `Quick test_noiseless_identity;
          Alcotest.test_case "iid zero rate" `Quick test_iid_zero_rate_identity;
          Alcotest.test_case "iid rate calibrated" `Quick test_iid_rate_calibrated;
          Alcotest.test_case "iid validation" `Quick test_iid_validation;
          Alcotest.test_case "deletion only shortens" `Quick test_iid_deletion_only_shortens;
          Alcotest.test_case "insertion only lengthens" `Quick test_iid_insertion_only_lengthens;
          Alcotest.test_case "substitution preserves length" `Quick test_sub_only_preserves_length;
          Alcotest.test_case "solqc noise level" `Quick test_solqc_noise_level;
          Alcotest.test_case "wetlab position dependence" `Quick test_wetlab_position_dependence;
          Alcotest.test_case "wetlab bursts" `Quick test_wetlab_bursts_present;
        ] );
      ( "sequencer",
        [
          Alcotest.test_case "fixed coverage" `Quick test_sequencer_fixed_coverage;
          Alcotest.test_case "poisson coverage" `Quick test_sequencer_poisson_coverage;
          Alcotest.test_case "dropout" `Quick test_sequencer_dropout;
          Alcotest.test_case "reverse orientation" `Quick test_sequencer_reverse_orientation;
          Alcotest.test_case "shard depth scaling" `Quick test_shard_depth_scaling;
        ] );
      ( "sequence_pool",
        [
          Alcotest.test_case "iid = boxed" `Quick test_sequence_pool_iid;
          Alcotest.test_case "solqc = boxed" `Quick test_sequence_pool_solqc;
          Alcotest.test_case "wetlab = boxed" `Quick test_sequence_pool_wetlab;
          Alcotest.test_case "noiseless = boxed" `Quick test_sequence_pool_noiseless;
          Alcotest.test_case "generic fallback = boxed" `Quick
            test_sequence_pool_generic_fallback;
          Alcotest.test_case "dropout/reverse = boxed" `Quick
            test_sequence_pool_dropout_reverse;
          Alcotest.test_case "golden stream" `Quick test_sequence_pool_golden_stream;
          QCheck_alcotest.to_alcotest prop_generic_fallback_matches_boxed;
        ] );
      ( "learned",
        [
          Alcotest.test_case "matches iid rate" `Quick test_learned_channel_matches_rate;
          Alcotest.test_case "position profile" `Quick test_learned_channel_position_profile;
          Alcotest.test_case "empty rejected" `Quick test_learned_channel_empty_rejected;
          Alcotest.test_case "trainer split" `Quick test_trainer_split_fractions;
          Alcotest.test_case "rnn channel emits" `Quick test_rnn_channel_emits_reads;
        ] );
    ]
