(* Integration tests: the full pipeline, the key-value store's
   random-access path, wetlab FASTQ ingestion, and report rendering. *)

let rng () = Dna.Rng.create 5050

let random_file r n = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256))

(* ---------- pipeline ---------- *)

let test_pipeline_end_to_end_exact () =
  let r = rng () in
  let file = random_file r 1200 in
  let out = Dnastore.Pipeline.run r file in
  Alcotest.(check bool) "exact recovery" true out.Dnastore.Pipeline.exact;
  (match out.Dnastore.Pipeline.file with
  | Some bytes -> Alcotest.(check bytes) "bytes equal" file bytes
  | None -> Alcotest.fail "no file decoded");
  Alcotest.(check bool) "reads = strands x coverage" true
    (out.Dnastore.Pipeline.n_reads = 10 * out.Dnastore.Pipeline.n_strands)

let test_pipeline_every_stage_combination () =
  (* Swap reconstruction and signature stages; all combinations must
     recover the file at the default setting (the paper's modularity
     claim, Section IX: alter one component at a time). *)
  let file = random_file (rng ()) 700 in
  List.iter
    (fun kind ->
      List.iter
        (fun (rname, recon) ->
          let r = Dna.Rng.create 17 in
          let stages =
            {
              (Dnastore.Pipeline.default_stages ()) with
              Dnastore.Pipeline.cluster = Dnastore.Pipeline.cluster_default ~kind ();
              reconstruct = recon;
            }
          in
          let out = Dnastore.Pipeline.run ~stages r file in
          Alcotest.(check bool)
            (Printf.sprintf "%s + %s exact"
               (match kind with Clustering.Signature.Qgram -> "qgram" | _ -> "wgram")
               rname)
            true out.Dnastore.Pipeline.exact)
        [
          ("bma", Reconstruction.Bma.reconstruct_pool);
          ("dbma", Reconstruction.Bma.reconstruct_double_pool);
          ("nw", Reconstruction.Nw_consensus.reconstruct_pool);
        ])
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_pipeline_gini_layout () =
  let r = rng () in
  let file = random_file r 900 in
  let out = Dnastore.Pipeline.run ~layout:Codec.Layout.Gini r file in
  Alcotest.(check bool) "gini exact" true out.Dnastore.Pipeline.exact

let test_pipeline_noiseless_channel () =
  let r = rng () in
  let file = random_file r 400 in
  let stages =
    { (Dnastore.Pipeline.default_stages ()) with Dnastore.Pipeline.channel = Simulator.Channel.noiseless }
  in
  let out = Dnastore.Pipeline.run ~stages r file in
  Alcotest.(check bool) "noiseless exact" true out.Dnastore.Pipeline.exact

let test_pipeline_timings_positive () =
  let r = rng () in
  let file = random_file r 500 in
  let out = Dnastore.Pipeline.run r file in
  let t = out.Dnastore.Pipeline.timings in
  Alcotest.(check bool) "all stages timed" true
    (t.Dnastore.Pipeline.encode_s >= 0.0 && t.simulate_s >= 0.0 && t.cluster_s > 0.0
   && t.reconstruct_s > 0.0 && t.decode_s >= 0.0);
  Alcotest.(check bool) "total is the sum" true
    (abs_float (Dnastore.Pipeline.total_s t
                -. (t.Dnastore.Pipeline.encode_s +. t.simulate_s +. t.cluster_s
                    +. t.reconstruct_s +. t.decode_s))
    < 1e-9)

let test_pipeline_parallel_domains () =
  let r = rng () in
  let file = random_file r 800 in
  let out = Dnastore.Pipeline.run ~domains:2 r file in
  Alcotest.(check bool) "parallel exact" true out.Dnastore.Pipeline.exact

(* Labels of the Par regions one pipeline run leaves behind. *)
let par_labels run =
  Dna.Par.reset_counters ();
  let out = run () in
  let counters = Dna.Par.counters () in
  Dna.Par.reset_counters ();
  (out, counters, List.map (fun c -> c.Dna.Par.label) counters)

let test_pipeline_parallel_counters_visible () =
  (* Every parallel stage must leave a labeled counter behind,
     renderable through Core.Report. Sequencing runs serially into the
     arena (no synthesis region) and clustering goes through the sharded
     index. *)
  let out, counters, labels =
    par_labels (fun () -> Dnastore.Pipeline.run ~domains:2 (rng ()) (random_file (rng ()) 500))
  in
  Alcotest.(check bool) "ran" true (out.Dnastore.Pipeline.n_reads > 0);
  List.iter
    (fun label -> Alcotest.(check bool) (label ^ " counted") true (List.mem label labels))
    [ "cluster.index"; "cluster.buckets"; "pipeline.reconstruct" ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.Dna.Par.label ^ " ran tasks") true (c.Dna.Par.tasks > 0);
      Alcotest.(check bool) (c.Dna.Par.label ^ " wall >= 0") true (c.Dna.Par.wall_s >= 0.0))
    counters;
  Alcotest.(check bool) "report nonempty" true
    (String.length (Dnastore.Report.par_counters counters) > 0)

(* Swapping stage fields changes only those stages: a custom record
   still clusters through the scaled engine's sharded index — never the
   merge engine's signature pass. *)
let test_pipeline_custom_stages_one_spine () =
  let file = random_file (rng ()) 500 in
  let stages =
    {
      (Dnastore.Pipeline.default_stages ()) with
      Dnastore.Pipeline.cluster = Dnastore.Pipeline.cluster_default ~kind:Clustering.Signature.Wgram ();
      reconstruct = Reconstruction.Bma.reconstruct_pool;
    }
  in
  let out, _, labels = par_labels (fun () -> Dnastore.Pipeline.run ~stages ~domains:2 (rng ()) file) in
  Alcotest.(check bool) "custom stages exact" true out.Dnastore.Pipeline.exact;
  Alcotest.(check bool) "cluster.index counted" true (List.mem "cluster.index" labels);
  Alcotest.(check bool) "no cluster.signatures" false (List.mem "cluster.signatures" labels)

(* The per-cluster timing percentiles must be populated and ordered
   (they regressed to zero once when the arena tasks stopped reporting
   wall times), and the allocation counter must be live. *)
let test_pipeline_pooled_timings_and_words () =
  let file = random_file (rng ()) 1100 in
  let out = Dnastore.Pipeline.run ~domains:1 (Dna.Rng.create 99) file in
  let t = out.Dnastore.Pipeline.timings in
  Alcotest.(check bool) "p50 positive" true (t.Dnastore.Pipeline.reconstruct_p50_s > 0.0);
  Alcotest.(check bool) "percentiles monotone" true
    (t.Dnastore.Pipeline.reconstruct_p50_s <= t.Dnastore.Pipeline.reconstruct_p95_s
    && t.Dnastore.Pipeline.reconstruct_p95_s <= t.Dnastore.Pipeline.reconstruct_s);
  let words = out.Dnastore.Pipeline.reconstruct_words_per_cluster in
  Alcotest.(check bool) "words counted" true (words > 0.0);
  let rendered =
    Dnastore.Report.recon_alloc ~n_clusters:out.Dnastore.Pipeline.n_clusters
      ~words_per_cluster:words
  in
  Alcotest.(check bool) "alloc report nonempty" true (String.length rendered > 0)

let test_pipeline_dropout_within_parity () =
  let r = rng () in
  let file = random_file r 600 in
  let stages =
    {
      (Dnastore.Pipeline.default_stages ()) with
      Dnastore.Pipeline.sequencing =
        {
          (Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 10)) with
          Simulator.Sequencer.dropout = 0.05;
        };
    }
  in
  let out = Dnastore.Pipeline.run ~stages r file in
  Alcotest.(check bool) "survives molecule dropout" true out.Dnastore.Pipeline.exact

(* ---------- the key-value store (Section II-F) ----------

   [Store] is the key-value store: a primer pair is the key, the
   molecules it flanks are the value, and a get is the random-access
   read path ([Pipeline.random_access]). The store's lifecycle tests
   live in test_store; these check the random-access path and the
   store's selection. *)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Store.error_message e)

let with_temp_store ~seed f =
  let dir = Filename.temp_dir "dnastore_kv_" "" in
  Fun.protect
    ~finally:(fun () -> E7.remove_tree dir)
    (fun () -> f ~dir (ok_or_fail "init" (Store.init ~dir ~seed ())))

let test_kv_put_failure_releases_pair () =
  (* A put that dies mid-encode must hand its reserved primer pair
     back, or aborted puts would leak primer space forever. A fresh
     store draws its pairs from [Rng.create seed]; replaying that
     stream names the pair the failed put reserved, and the replay is
     checked against the first put's pair. *)
  with_temp_store ~seed:16 (fun ~dir:_ store ->
      ok_or_fail "put ok" (Store.put store ~key:"ok" (Bytes.of_string "payload"));
      let replay = Dna.Rng.create 16 and registry = Codec.Primer.Registry.create () in
      let fresh () =
        match Codec.Primer.Registry.fresh ~max_attempts:1000 registry replay with
        | Ok pair -> pair
        | Error _ -> Alcotest.fail "replayed registry exhausted"
      in
      Alcotest.(check bool) "replay draws the first put's pair" true
        (Some (fresh ()) = Store.object_pair store ~key:"ok");
      let reserved = fresh () in
      let bad_params = { Codec.Params.default with Codec.Params.payload_nt = 121 } in
      (match Store.put ~params:bad_params store ~key:"bad" (Bytes.of_string "x") with
      | exception Invalid_argument _ -> ()
      | Ok () -> Alcotest.fail "encode accepted invalid params"
      | Error e -> Alcotest.fail (Store.error_message e));
      Alcotest.(check bool) "reserved pair released" false (Store.pair_reserved store reserved);
      Alcotest.(check bool) "failed key not recorded" false (Store.mem store "bad");
      (* The key (and the primer space) stay usable after the failure. *)
      ok_or_fail "retry put" (Store.put store ~key:"bad" (Bytes.of_string "now valid"));
      Alcotest.(check string) "retry decodes" "now valid"
        (Bytes.to_string (ok_or_fail "get" (Store.get store ~key:"bad"))))

(* Random access degrades as [Pipeline.run] does: a raising cluster or
   reconstruct stage is caught inside the shared read side, so the read
   answers a value and never lets the exception out. *)
let random_access_with_broken_stage stages =
  let file = Bytes.of_string (String.make 300 'r') in
  let r = Dna.Rng.create 18 in
  let pair = (Codec.Primer.generate_pairs_exn r 1).(0) in
  let params = Codec.Params.default and layout = Codec.Layout.Baseline in
  let encoded = Codec.File_codec.encode ~layout ~params file in
  let molecules = Array.map (Codec.Primer.attach pair) encoded.Codec.File_codec.strands in
  match
    Dnastore.Pipeline.random_access ~domains:1 stages ~seq_rng:r ~cluster_rng:r ~pair ~params
      ~layout ~n_units:encoded.Codec.File_codec.n_units molecules
  with
  | Ok (bytes, _), _ -> Some (Bytes.equal bytes file)
  | Error _, _ -> None
  | exception e -> Alcotest.failf "random access raised %s" (Printexc.to_string e)

let test_kv_get_cluster_stage_raises () =
  let stages =
    { (Dnastore.Pipeline.default_stages ()) with cluster = (fun _ _ -> failwith "cluster bug") }
  in
  ignore (random_access_with_broken_stage stages : bool option)

let test_kv_get_reconstruct_stage_raises () =
  let stages =
    {
      (Dnastore.Pipeline.default_stages ()) with
      reconstruct = (fun ~target_len:_ _ _ -> failwith "reconstruct bug");
    }
  in
  (* Every cluster falls back to NW -> BMA -> majority, which recovers
     this clean, well-covered file exactly. *)
  Alcotest.(check (option bool)) "fallback consensus decodes exactly" (Some true)
    (random_access_with_broken_stage stages)

(* The tolerant full-pool scan that [Primer_index.select] replaced: the
   oracle the indexed gather must agree with whenever the index covers
   the pair. *)
let scan_select (pool : Dna.Strand.t array) pair =
  Array.of_list (List.filter (fun s -> Dnastore.Primer_index.matches s pair) (Array.to_list pool))

let test_kv_indexed_select_matches_scan () =
  (* Two objects share a shard. The live handle's index grew by
     [add_range] on the second put; a reopened handle rebuilds it from
     the shard file. Both must equal a full scan of the shard, and the
     two selections must partition it. *)
  with_temp_store ~seed:17 (fun ~dir store ->
      ok_or_fail "put a" (Store.put store ~key:"a" (Bytes.of_string (String.make 300 'a')));
      ok_or_fail "put b" (Store.put store ~key:"b" (Bytes.of_string (String.make 500 'b')));
      let shard =
        match Store.shard_files store with
        | [ path ] ->
            let records, _ = Dna.Fasta.read_file path in
            Array.of_list (List.map (fun r -> r.Dna.Fasta.seq) records)
        | files -> Alcotest.failf "expected one shard, got %d" (List.length files)
      in
      let check label store =
        let selected =
          List.map
            (fun key ->
              let pair = Option.get (Store.object_pair store ~key) in
              let indexed = Store.pcr_select store ~key in
              Alcotest.(check bool)
                (Printf.sprintf "%s: indexed select = full scan for %s" label key)
                true
                (indexed = scan_select shard pair);
              Array.length indexed)
            [ "a"; "b" ]
        in
        Alcotest.(check int) (label ^ ": selections partition the shard") (Array.length shard)
          (List.fold_left ( + ) 0 selected)
      in
      check "live" store;
      check "reopened" (ok_or_fail "reopen" (Store.open_store ~dir ())))

(* Golden pin of the random-access path under E7's configuration
   ([E7.retrieval]): the image read back through a wetlab store. All
   three seeds decode exactly. Seed 118 read 4 wrong bytes (crc32
   d3151399) while every get read at the shard depth (33); its base-30
   first pass decodes, an instance of NW consensus not being monotone
   in depth. *)
let test_kv_e7_golden () =
  List.iter
    (fun (seed, expected) ->
      let wrong, crc = E7.retrieval seed in
      Alcotest.(check string) (Printf.sprintf "E7 retrieval, seed %d" seed) expected
        (Printf.sprintf "%d of %d bytes wrong, crc32 %08x" wrong E7.n crc))
    [
      (909, "0 of 2000 bytes wrong, crc32 cc578b09");
      (910, "0 of 2000 bytes wrong, crc32 cc578b09");
      (118, "0 of 2000 bytes wrong, crc32 cc578b09");
    ]

(* ---------- wetlab io ---------- *)

let test_wetlab_ingest_roundtrip () =
  let r = rng () in
  let pair = (Codec.Primer.generate_pairs_exn r 1).(0) in
  let cores = Array.init 12 (fun _ -> Dna.Strand.random r 100) in
  let tagged = Array.map (Codec.Primer.attach pair) cores in
  (* Mix orientations, export as FASTQ text, ingest. *)
  let reads =
    Array.map
      (fun s -> if Dna.Rng.bool r then Dna.Strand.reverse_complement s else s)
      tagged
  in
  let text = Dnastore.Wetlab_io.export_fastq reads in
  let ingested = Read_oracle.ingest_fastq_text [ pair ] text in
  let stats = ingested.Dnastore.Wetlab_io.pool_stats in
  Alcotest.(check int) "all records parsed" 12 stats.Dnastore.Wetlab_io.total_records;
  Alcotest.(check int) "no unmatched" 0 stats.Dnastore.Wetlab_io.no_primer_match;
  match ingested.Dnastore.Wetlab_io.pools_by_pair with
  | [ (_, pool) ] ->
      let got = Dna.Strand_pool.to_array pool in
      Alcotest.(check int) "all cores recovered" 12 (Array.length got);
      let sort a = List.sort compare (Array.to_list (Array.map Dna.Strand.to_string a)) in
      Alcotest.(check (list string)) "cores identical" (sort cores) (sort got)
  | _ -> Alcotest.fail "expected one primer bucket"

let test_wetlab_ingest_multiple_pairs () =
  let r = rng () in
  let pairs = Array.to_list (Codec.Primer.generate_pairs_exn r 2) in
  let mk pair n = Array.init n (fun _ -> Codec.Primer.attach pair (Dna.Strand.random r 80)) in
  let reads = Array.append (mk (List.nth pairs 0) 5) (mk (List.nth pairs 1) 7) in
  let text = Dnastore.Wetlab_io.export_fastq reads in
  let ingested = Read_oracle.ingest_fastq_text pairs text in
  let by_size =
    List.sort compare
      (List.map
         (fun (_, cores) -> Dna.Strand_pool.length cores)
         ingested.Dnastore.Wetlab_io.pools_by_pair)
  in
  Alcotest.(check (list int)) "grouped by pair" [ 5; 7 ] by_size

let test_wetlab_ingest_garbage_fastq () =
  let r = rng () in
  let pair = (Codec.Primer.generate_pairs_exn r 1).(0) in
  let text = "@ok\n" ^ Dna.Strand.to_string (Codec.Primer.attach pair (Dna.Strand.random r 50))
             ^ "\n+\n" ^ String.make 90 'I' ^ "\nnot a fastq line\n" in
  let ingested = Read_oracle.ingest_fastq_text [ pair ] text in
  Alcotest.(check bool) "parse errors counted" true
    (ingested.Dnastore.Wetlab_io.pool_stats.Dnastore.Wetlab_io.parse_errors >= 1)

(* The streaming file demux must agree with the in-memory one: two
   library pairs, reads in both orientations, a malformed record in the
   middle of the file and one molecule tagged with a pair outside the
   library. *)
let test_wetlab_ingest_file_pool () =
  let r = rng () in
  let pairs = Codec.Primer.generate_pairs_exn r 3 in
  let library = [ pairs.(0); pairs.(1) ] in
  let fwd i = Codec.Primer.attach pairs.(i) (Dna.Strand.random r 90) in
  let rev i = Dna.Strand.reverse_complement (fwd i) in
  let reads = [| fwd 0; rev 0; fwd 1; rev 1; rev 0; fwd 2; fwd 0; rev 1 |] in
  let text =
    Dnastore.Wetlab_io.export_fastq (Array.sub reads 0 4)
    ^ "@malformed\nACGTACGT\n+\nIII\n"
    ^ Dnastore.Wetlab_io.export_fastq (Array.sub reads 4 4)
  in
  let path = Filename.temp_file "test_ingest" ".fastq" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      let streamed = Dnastore.Wetlab_io.ingest_file_pool library path in
      let stats = streamed.Dnastore.Wetlab_io.pool_stats in
      Alcotest.(check int) "total records" 9 stats.Dnastore.Wetlab_io.total_records;
      Alcotest.(check int) "parse errors" 1 stats.parse_errors;
      Alcotest.(check int) "forward" 3 stats.forward;
      Alcotest.(check int) "reverse" 4 stats.reverse;
      Alcotest.(check int) "foreign read unmatched" 1 stats.no_primer_match;
      let in_memory = Dnastore.Wetlab_io.ingest_pool library (Dna.Strand_pool.of_strands reads) in
      let cores (ingested : Dnastore.Wetlab_io.ingested_pool) =
        List.map
          (fun ((pair : Codec.Primer.pair), pool) ->
            ( Dna.Strand.to_string pair.forward,
              Array.to_list (Array.map Dna.Strand.to_string (Dna.Strand_pool.to_array pool)) ))
          ingested.pools_by_pair
      in
      let got = cores streamed in
      Alcotest.(check (list int)) "cores per pair" [ 4; 3 ] (List.map (fun (_, c) -> List.length c) got);
      Alcotest.(check (list (pair string (list string)))) "same cores as ingest_pool"
        (cores in_memory) got)

(* The streaming file export writes exactly [export_fastq]'s bytes. *)
let test_wetlab_export_file_matches_string () =
  let r = rng () in
  let reads = Array.init 50 (fun i -> Dna.Strand.random r (i * 3)) in
  let path = Filename.temp_file "test_export" ".fastq" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (quality, reads) ->
          Dnastore.Wetlab_io.export_fastq_file ?quality path reads;
          Alcotest.(check string) "same bytes"
            (Dnastore.Wetlab_io.export_fastq ?quality reads)
            (In_channel.with_open_bin path In_channel.input_all))
        [ (None, reads); (Some 12, reads); (None, [||]) ])

(* The demux output, pinned: three library pairs plus one foreign pair,
   six molecules each, sequenced over the wetlab channel with half the
   reads reversed. For each seed: the forward/reverse/unmatched counts,
   the core count per library pair and a CRC-32 over every core in
   output order. Recorded from the scalar orient-then-strip demux, so
   any change to which pair a read lands in, its orientation or its
   core's bytes shows up here. *)
let demux_golden_digest seed =
  let pairs = Codec.Primer.generate_pairs_exn (Dna.Rng.create 77) 4 in
  let library = [ pairs.(0); pairs.(1); pairs.(2) ] in
  let core_nt = Codec.Params.strand_nt Codec.Params.default in
  let molecules =
    Array.init 24 (fun i ->
        Codec.Primer.attach pairs.(i / 6) (Dna.Strand.random (Dna.Rng.create (300 + i)) core_nt))
  in
  let params =
    { (Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 5)) with
      Simulator.Sequencer.p_reverse = 0.5 }
  in
  let pool = Dna.Strand_pool.create () in
  ignore
    (Simulator.Sequencer.sequence_pool params (Simulator.Wetlab_channel.create ())
       (Dna.Rng.create seed) molecules ~pool);
  let ingested = Dnastore.Wetlab_io.ingest_pool library pool in
  let buf = Buffer.create 4096 in
  let counts =
    List.map
      (fun ((pair : Codec.Primer.pair), cores) ->
        let idx = if pair == pairs.(0) then 0 else if pair == pairs.(1) then 1 else 2 in
        Dna.Strand_pool.iter
          (fun _ core ->
            Buffer.add_string buf (string_of_int idx);
            Buffer.add_char buf ':';
            Buffer.add_string buf (Dna.Strand.to_string core);
            Buffer.add_char buf '\n')
          cores;
        (idx, Dna.Strand_pool.length cores))
      ingested.Dnastore.Wetlab_io.pools_by_pair
  in
  let stats = ingested.Dnastore.Wetlab_io.pool_stats in
  ( stats.Dnastore.Wetlab_io.forward,
    stats.reverse,
    stats.no_primer_match,
    counts,
    Store.Io.crc32 (Buffer.contents buf) )

let demux_golden_expected =
  [
    (1, 38, 35, 47, [ (0, 25); (1, 24); (2, 24) ], 0x2300c16f);
    (2, 32, 44, 44, [ (0, 25); (1, 25); (2, 26) ], 0xcf9d280d);
    (3, 36, 40, 44, [ (0, 27); (1, 23); (2, 26) ], 0x9fa625b3);
  ]

let test_wetlab_demux_golden () =
  List.iter
    (fun (seed, fwd, rev, unmatched, counts, crc) ->
      let got_fwd, got_rev, got_unmatched, got_counts, got_crc = demux_golden_digest seed in
      let what = Printf.sprintf "seed %d" seed in
      Alcotest.(check int) (what ^ ": forward") fwd got_fwd;
      Alcotest.(check int) (what ^ ": reverse") rev got_rev;
      Alcotest.(check int) (what ^ ": no primer match") unmatched got_unmatched;
      Alcotest.(check (list (pair int int))) (what ^ ": cores per pair") counts got_counts;
      Alcotest.(check int) (what ^ ": crc32") crc got_crc)
    demux_golden_expected

let test_wetlab_fastq_quality_roundtrip () =
  let r = rng () in
  let reads = Array.init 3 (fun _ -> Dna.Strand.random r 40) in
  let text = Dnastore.Wetlab_io.export_fastq ~quality:25 reads in
  let records, errors = Dna.Fastq.parse_string text in
  Alcotest.(check int) "no parse errors" 0 (List.length errors);
  List.iter
    (fun rec_ ->
      Array.iter (fun q -> Alcotest.(check int) "quality 25" 25 q) rec_.Dna.Fastq.qual)
    records

(* ---------- par ---------- *)

let test_par_map_matches_sequential () =
  let arr = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results" (Array.map f arr)
    (Dna.Par.map_array ~domains:3 f arr);
  Alcotest.(check (array int)) "empty" [||] (Dna.Par.map_array ~domains:3 f [||])

let test_par_mapi () =
  let arr = [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "index aware" [| 10; 21; 32 |]
    (Dna.Par.mapi_array ~domains:2 (fun i x -> x + i) arr)

(* ---------- report ---------- *)

let test_report_table_alignment () =
  let t = Dnastore.Report.table [ [ "a"; "bb" ]; [ "ccc"; "d" ] ] in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check bool) "has header + rule + row" true (List.length lines >= 3);
  Alcotest.(check bool) "columns aligned" true
    (String.length (List.nth lines 0) = String.length (List.nth lines 0))

let test_report_ascii_profile () =
  let p = Dnastore.Report.ascii_profile ~height:4 ~buckets:10 (Array.init 50 (fun i -> float_of_int i)) in
  Alcotest.(check bool) "nonempty" true (String.length p > 0);
  Alcotest.(check bool) "contains bars" true (String.contains p '#')

let () =
  Alcotest.run "pipeline"
    [
      ( "pipeline",
        [
          Alcotest.test_case "end to end exact" `Quick test_pipeline_end_to_end_exact;
          Alcotest.test_case "stage combinations" `Slow test_pipeline_every_stage_combination;
          Alcotest.test_case "gini layout" `Quick test_pipeline_gini_layout;
          Alcotest.test_case "noiseless channel" `Quick test_pipeline_noiseless_channel;
          Alcotest.test_case "timings" `Quick test_pipeline_timings_positive;
          Alcotest.test_case "parallel domains" `Quick test_pipeline_parallel_domains;
          Alcotest.test_case "parallel counters visible" `Quick
            test_pipeline_parallel_counters_visible;
          Alcotest.test_case "dropout tolerated" `Quick test_pipeline_dropout_within_parity;
          Alcotest.test_case "custom stages one spine" `Quick test_pipeline_custom_stages_one_spine;
          Alcotest.test_case "pooled timings and words" `Quick
            test_pipeline_pooled_timings_and_words;
        ] );
      ( "kv-store",
        [
          Alcotest.test_case "failed put releases pair" `Quick test_kv_put_failure_releases_pair;
          Alcotest.test_case "indexed select = scan" `Quick test_kv_indexed_select_matches_scan;
          Alcotest.test_case "raising cluster stage degrades" `Quick
            test_kv_get_cluster_stage_raises;
          Alcotest.test_case "raising reconstruct stage degrades" `Quick
            test_kv_get_reconstruct_stage_raises;
          Alcotest.test_case "E7 golden (3 seeds)" `Slow test_kv_e7_golden;
        ] );
      ( "wetlab-io",
        [
          Alcotest.test_case "ingest roundtrip" `Quick test_wetlab_ingest_roundtrip;
          Alcotest.test_case "multiple pairs" `Quick test_wetlab_ingest_multiple_pairs;
          Alcotest.test_case "garbage fastq" `Quick test_wetlab_ingest_garbage_fastq;
          Alcotest.test_case "file demux = in-memory demux" `Quick test_wetlab_ingest_file_pool;
          Alcotest.test_case "fastq quality" `Quick test_wetlab_fastq_quality_roundtrip;
          Alcotest.test_case "demux golden" `Quick test_wetlab_demux_golden;
          Alcotest.test_case "fastq file export = export_fastq" `Quick
            test_wetlab_export_file_matches_string;
        ] );
      ( "par",
        [
          Alcotest.test_case "matches sequential" `Quick test_par_map_matches_sequential;
          Alcotest.test_case "mapi" `Quick test_par_mapi;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table_alignment;
          Alcotest.test_case "ascii profile" `Quick test_report_ascii_profile;
        ] );
    ]
