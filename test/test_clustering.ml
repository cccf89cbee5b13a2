(* Tests for signatures, union-find, the clustering algorithm, auto
   threshold configuration and clustering metrics. The engine under test
   is [Cluster.run_scaled], the one the pipeline's clustering stage runs;
   the boxed engine and signatures of [Cluster_oracle] are its oracle. *)

let rng () = Dna.Rng.create 2718

module Boxed = Cluster_oracle.Signature

(* Packed signature distance between two reads. *)
let index_distance ~q kind a b =
  Clustering.Signature.Index.distance (Clustering.Signature.Index.build ~q kind [| a; b |]) 0 1

(* ---------- union-find ---------- *)

let test_uf_basics () =
  let uf = Clustering.Union_find.create 5 in
  Alcotest.(check int) "initially n clusters" 5 (Clustering.Union_find.n_clusters uf);
  Clustering.Union_find.union uf 0 1;
  Clustering.Union_find.union uf 3 4;
  Alcotest.(check int) "after two unions" 3 (Clustering.Union_find.n_clusters uf);
  Alcotest.(check bool) "0 ~ 1" true (Clustering.Union_find.same uf 0 1);
  Alcotest.(check bool) "1 !~ 2" false (Clustering.Union_find.same uf 1 2);
  Clustering.Union_find.union uf 1 4;
  Alcotest.(check bool) "transitive" true (Clustering.Union_find.same uf 0 3)

let test_uf_idempotent_union () =
  let uf = Clustering.Union_find.create 3 in
  Clustering.Union_find.union uf 0 1;
  Clustering.Union_find.union uf 0 1;
  Clustering.Union_find.union uf 1 0;
  Alcotest.(check int) "count stable" 2 (Clustering.Union_find.n_clusters uf)

let test_uf_clusters_partition () =
  let r = rng () in
  let n = 60 in
  let uf = Clustering.Union_find.create n in
  for _ = 1 to 40 do
    Clustering.Union_find.union uf (Dna.Rng.int r n) (Dna.Rng.int r n)
  done;
  let clusters = Clustering.Union_find.clusters uf in
  let all = List.concat_map Array.to_list clusters in
  Alcotest.(check int) "covers all" n (List.length all);
  Alcotest.(check int) "no duplicates" n (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "cluster count matches" (Clustering.Union_find.n_clusters uf)
    (List.length clusters)

(* ---------- signatures ---------- *)

let test_signature_identical_reads () =
  let r = rng () in
  let s = Dna.Strand.random r 60 in
  List.iter
    (fun kind ->
      Alcotest.(check int) "distance zero" 0 (index_distance ~q:4 kind s s))
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_signature_separation () =
  (* Same-cluster distances must sit clearly below unrelated ones. *)
  let r = rng () in
  let mutate s =
    Dna.Strand.of_codes
      (Array.map (fun c -> if Dna.Rng.float r < 0.05 then Dna.Rng.int r 4 else c)
         (Dna.Strand.to_codes s))
  in
  List.iter
    (fun kind ->
      let same = ref 0 and diff = ref 0 and n = 40 in
      for _ = 1 to n do
        let a = Dna.Strand.random r 100 in
        let b = mutate a in
        let c = Dna.Strand.random r 100 in
        same := !same + index_distance ~q:4 kind a b;
        diff := !diff + index_distance ~q:4 kind a c
      done;
      Alcotest.(check bool)
        (Printf.sprintf "same %d << diff %d" !same !diff)
        true
        (float_of_int !same < 0.6 *. float_of_int !diff))
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_signature_mixed_kinds_rejected () =
  let s = Dna.Strand.of_string "ACGTACGTAC" in
  let q = Boxed.compute ~q:3 Clustering.Signature.Qgram s in
  let w = Boxed.compute ~q:3 Clustering.Signature.Wgram s in
  Alcotest.check_raises "mixed kinds"
    (Invalid_argument "Signature.distance: mixed signature kinds") (fun () ->
      ignore (Boxed.distance q w))

let test_signature_qgram_is_presence () =
  (* "ACGT" with q=2 contains grams AC, CG, GT and no others. *)
  match Boxed.compute ~q:2 Clustering.Signature.Qgram (Dna.Strand.of_string "ACGT") with
  | Boxed.Q bits ->
      let count = ref 0 in
      Bytes.iter (fun c -> if c = '\001' then incr count) bits;
      Alcotest.(check int) "three grams present" 3 !count;
      Alcotest.(check int) "dictionary size 16" 16 (Bytes.length bits)
  | Boxed.W _ -> Alcotest.fail "wrong kind"

let test_signature_wgram_positions () =
  (* "AACG": gram AA at 0, AC at 1, CG at 2. *)
  match Boxed.compute ~q:2 Clustering.Signature.Wgram (Dna.Strand.of_string "AACG") with
  | Boxed.W pos ->
      Alcotest.(check int) "AA at 0" 0 pos.(0);
      (* AC = code 0*4+1 = 1 *)
      Alcotest.(check int) "AC at 1" 1 pos.(1);
      (* CG = 1*4+2 = 6 *)
      Alcotest.(check int) "CG at 2" 2 pos.(6);
      (* TT = 15 absent *)
      Alcotest.(check int) "TT absent" (Clustering.Signature.absent_position ~read_len:4) pos.(15)
  | Boxed.Q _ -> Alcotest.fail "wrong kind"

(* ---------- clustering ---------- *)

let make_reads ?(n_strands = 40) ?(coverage = 8) ?(error_rate = 0.05) ?(len = 100) r =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  let strands = Array.init n_strands (fun _ -> Dna.Strand.random r len) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
  Read_oracle.sequence_arrays params ch r strands

(* The stage [Pipeline.cluster_default] runs: thresholds fitted by
   [Auto_config], then the scaled engine, both on one rng. *)
let auto_params ?(kind = Clustering.Signature.Qgram) r reads =
  let read_len = Dna.Strand.length reads.(0) in
  let params = Clustering.Cluster.default_params ~kind ~read_len () in
  let config = Clustering.Auto_config.configure params r reads in
  Clustering.Auto_config.apply config params

let run_clustering ?kind r reads =
  Clustering.Cluster.run_scaled (auto_params ?kind r reads) r reads

(* [n_refs] random references, [coverage] i.i.d. copies of each, read
   in reference order. *)
let planted_reads ?(n_refs = 24) ?(coverage = 6) ?(error_rate = 0.06) ?(len = 110) seed =
  let r = Dna.Rng.create seed in
  let channel = Simulator.Iid_channel.create_rate ~error_rate in
  let refs = Array.init n_refs (fun _ -> Dna.Strand.random r len) in
  let reads =
    Array.concat
      (Array.to_list
         (Array.map
            (fun s -> Array.init coverage (fun _ -> Simulator.Channel.transmit channel r s))
            refs))
  in
  let truth = Array.init (Array.length reads) (fun i -> i / coverage) in
  (reads, truth)

(* The engine at its fixed default thresholds. *)
let scaled_params ?(domains = 1) () =
  { (Clustering.Cluster.default_params ~read_len:110 ()) with domains }

let test_clustering_recovers_planted () =
  let r = rng () in
  let reads, truth = make_reads r in
  List.iter
    (fun kind ->
      let result = run_clustering ~kind r reads in
      let acc = Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters in
      Alcotest.(check bool)
        (Printf.sprintf "accuracy %.3f >= 0.9" acc)
        true (acc >= 0.9);
      let purity = Clustering.Metrics.purity ~truth result.Clustering.Cluster.clusters in
      Alcotest.(check bool) (Printf.sprintf "purity %.3f >= 0.98" purity) true (purity >= 0.98))
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_clustering_noiseless_exact () =
  (* With no noise, identical reads must collapse into exactly the
     underlying clusters with no edit-distance comparisons wasted. *)
  let r = rng () in
  let strands = Array.init 30 (fun _ -> Dna.Strand.random r 80) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 5) in
  let rs, truth = Read_oracle.sequence_arrays params Simulator.Channel.noiseless r strands in
  let result = run_clustering r rs in
  Alcotest.(check (float 0.01)) "accuracy 1.0" 1.0
    (Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters)

let test_clustering_empty_input () =
  let r = rng () in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let result = Clustering.Cluster.run_scaled params r [||] in
  Alcotest.(check int) "no clusters" 0 (List.length result.Clustering.Cluster.clusters)

let test_clustering_singleton_input () =
  let r = rng () in
  let reads = [| Dna.Strand.random r 100 |] in
  let result = run_clustering r reads in
  Alcotest.(check int) "one cluster" 1 (List.length result.Clustering.Cluster.clusters)

let test_clustering_stats_populated () =
  let r = rng () in
  let reads, _ = make_reads r in
  let result = run_clustering r reads in
  let s = result.Clustering.Cluster.stats in
  Alcotest.(check bool) "signature comparisons happened" true (s.Clustering.Cluster.signature_comparisons > 0);
  Alcotest.(check bool) "merges happened" true (s.Clustering.Cluster.merges > 0);
  Alcotest.(check bool) "time recorded" true (s.Clustering.Cluster.clustering_time > 0.0)

let test_clustering_parallel_same_quality () =
  (* Domains change scheduling, not merge decisions' admissibility:
     parallel run must reach comparable accuracy. *)
  let r1 = Dna.Rng.create 99 and r2 = Dna.Rng.create 99 in
  let reads, truth = make_reads (Dna.Rng.create 5) in
  let base = auto_params (Dna.Rng.create 1) reads in
  let seq_result = Clustering.Cluster.run_scaled { base with domains = 1 } r1 reads in
  let par_result = Clustering.Cluster.run_scaled { base with domains = 2 } r2 reads in
  let acc_seq = Clustering.Metrics.accuracy ~truth seq_result.Clustering.Cluster.clusters in
  let acc_par = Clustering.Metrics.accuracy ~truth par_result.Clustering.Cluster.clusters in
  Alcotest.(check bool) "both accurate" true (acc_seq >= 0.9 && acc_par >= 0.9)

let test_clustering_parallel_identical_assignment () =
  (* Stronger than "comparable accuracy": merge decisions are computed
     in pure workers and applied serially in a fixed order, so under the
     same seed the assignment must be bit-identical for every worker
     count. *)
  let reads, _ = make_reads (Dna.Rng.create 5) in
  let base = auto_params (Dna.Rng.create 1) reads in
  let run domains =
    (Clustering.Cluster.run_scaled { base with domains } (Dna.Rng.create 99) reads)
      .Clustering.Cluster.assignment
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d identical to serial" domains)
        serial (run domains))
    [ 2; 3; 5 ]

(* The boxed oracle and the scaled engine sample representatives
   differently, so one seed does not drive both through the same
   rounds; on noiseless reads both must still converge to the planted
   partition. *)
let test_oracle_partition_matches () =
  let r = rng () in
  let strands = Array.init 30 (fun _ -> Dna.Strand.random r 80) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 5) in
  let reads, _ = Read_oracle.sequence_arrays params Simulator.Channel.noiseless r strands in
  let params = auto_params (Dna.Rng.create 3) reads in
  let partition (result : Clustering.Cluster.result) =
    List.sort compare
      (List.map
         (fun members ->
           let m = Array.copy members in
           Array.sort compare m;
           m)
         result.clusters)
  in
  let scaled = Clustering.Cluster.run_scaled params (Dna.Rng.create 4) reads in
  let boxed = Cluster_oracle.run params (Dna.Rng.create 4) reads in
  Alcotest.(check int) "planted clusters" 30 (List.length scaled.clusters);
  Alcotest.(check (list (array int))) "same partition" (partition boxed) (partition scaled)

let test_index_matches_boxed_signatures () =
  let r = rng () in
  let reads = Array.init 40 (fun _ -> Dna.Strand.random r 80) in
  List.iter
    (fun kind ->
      let idx = Clustering.Signature.Index.build ~q:4 kind reads in
      let sigs = Array.map (Boxed.compute ~q:4 kind) reads in
      for i = 0 to 39 do
        for j = 0 to 39 do
          Alcotest.(check int)
            (Printf.sprintf "distance %d-%d" i j)
            (Boxed.distance sigs.(i) sigs.(j))
            (Clustering.Signature.Index.distance idx i j)
        done
      done)
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_index_sharded_build_identical () =
  let r = rng () in
  let reads = Array.init 50 (fun _ -> Dna.Strand.random r 90) in
  List.iter
    (fun kind ->
      let ref_idx = Clustering.Signature.Index.build ~domains:1 ~q:4 kind reads in
      List.iter
        (fun domains ->
          let idx = Clustering.Signature.Index.build ~domains ~q:4 kind reads in
          for i = 0 to 49 do
            for j = 0 to 49 do
              Alcotest.(check int) "sharded = serial"
                (Clustering.Signature.Index.distance ref_idx i j)
                (Clustering.Signature.Index.distance idx i j)
            done
          done)
        [ 2; 4 ])
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

(* Clustering-to-consensus handoff: the index slices [run_scaled] emits
   over a pool's views feed [reconstruct_pool] directly, and every
   cluster's consensus must be byte-identical to the boxed oracle's
   reconstruction over the same slice's materialized views. This is the
   seam the pooled pipeline spine runs on — no boxed strand per read
   between clustering and decode. *)
let test_pool_slices_reconstruct_identically () =
  let reads, _ = planted_reads 2718 in
  let pool = Dna.Strand_pool.create () in
  Array.iter (fun s -> ignore (Dna.Strand_pool.add_strand pool s)) reads;
  let result =
    Clustering.Cluster.run_scaled (scaled_params ()) (Dna.Rng.create 9)
      (Dna.Strand_pool.to_array pool)
  in
  Alcotest.(check bool) "clusters exist" true (result.Clustering.Cluster.clusters <> []);
  List.iteri
    (fun c idxs ->
      let boxed_reads = Array.map (Dna.Strand_pool.get pool) idxs in
      let pooled =
        Reconstruction.Nw_consensus.reconstruct_pool ~target_len:110 pool idxs
      in
      let boxed = Recon_oracle.nw ~target_len:110 boxed_reads in
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d consensus byte-identical" c)
        true (Dna.Strand.equal pooled boxed);
      let pooled_e = Reconstruction.Ensemble.reconstruct_pool ~target_len:110 pool idxs in
      let boxed_e = Recon_oracle.ensemble ~target_len:110 boxed_reads in
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d ensemble byte-identical" c)
        true (Dna.Strand.equal pooled_e boxed_e))
    result.Clustering.Cluster.clusters

(* ---------- the engine at its fixed default thresholds ---------- *)

let test_scaled_identical_across_domains () =
  let reads, _ = planted_reads 4242 in
  let baseline =
    Clustering.Cluster.run_scaled (scaled_params ()) (Dna.Rng.create 5) reads
  in
  List.iter
    (fun domains ->
      let result =
        Clustering.Cluster.run_scaled (scaled_params ~domains ()) (Dna.Rng.create 5) reads
      in
      Alcotest.(check (array int))
        (Printf.sprintf "assignment identical at domains=%d" domains)
        baseline.Clustering.Cluster.assignment result.Clustering.Cluster.assignment)
    [ 2; 4 ]

let test_scaled_recovers_planted () =
  let reads, truth = planted_reads 31415 in
  let result = Clustering.Cluster.run_scaled (scaled_params ()) (Dna.Rng.create 6) reads in
  let acc = Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.3f >= 0.9" acc)
    true (acc >= 0.9);
  (* Structural sanity: the clusters partition the read set. *)
  let n = Array.length reads in
  let members = List.concat_map Array.to_list result.Clustering.Cluster.clusters in
  Alcotest.(check int) "partition covers reads" n
    (List.length (List.sort_uniq compare members))

let test_scaled_empty_and_singleton () =
  let empty = Clustering.Cluster.run_scaled (scaled_params ()) (Dna.Rng.create 1) [||] in
  Alcotest.(check int) "no clusters" 0 (List.length empty.Clustering.Cluster.clusters);
  let one =
    Clustering.Cluster.run_scaled (scaled_params ()) (Dna.Rng.create 1)
      [| Dna.Strand.random (rng ()) 110 |]
  in
  Alcotest.(check int) "one cluster" 1 (List.length one.Clustering.Cluster.clusters)

(* ---------- golden partitions ---------- *)

(* The engine's output, pinned: a digest of the clusters in list order,
   the assignment and the merge count, for both signature kinds, under
   fitted thresholds (the [Pipeline.cluster_default] stage) and under
   the fixed defaults, at 1 and 2 domains. The inputs are three planted
   seeds at 6% error, the third again at 12%, and one cold-get-shaped
   input: one 26-column unit of 136 nt strands at 22 reads each. The edit-comparison counts are those of the
   all-pairs round that preceded the in-segment skip; the engine may
   make fewer, never more, and still produce the same digest. *)
let golden_inputs =
  [
    ("planted 1", fun () -> fst (planted_reads ~coverage:10 1));
    ("planted 2", fun () -> fst (planted_reads ~coverage:10 2));
    ("planted 3", fun () -> fst (planted_reads ~coverage:10 3));
    ("planted 3 at 12%", fun () -> fst (planted_reads ~coverage:10 ~error_rate:0.12 3));
    ("cold get", fun () -> fst (planted_reads ~n_refs:26 ~coverage:22 ~len:136 4));
  ]

let result_digest (result : Clustering.Cluster.result) =
  let buf = Buffer.create 8192 in
  let add_ints a =
    Array.iter
      (fun i ->
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf ' ')
      a
  in
  List.iter
    (fun members ->
      add_ints members;
      Buffer.add_char buf '\n')
    result.clusters;
  Buffer.add_char buf '|';
  add_ints result.assignment;
  Buffer.add_string buf (string_of_int result.stats.merges);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let kind_name = function Clustering.Signature.Qgram -> "qgram" | Wgram -> "wgram"

type thresholds = Fitted | Fixed

(* (input, kind, thresholds, digest, edit comparisons of the all-pairs
   round) *)
let golden_expected =
  [
    ("planted 1", Clustering.Signature.Qgram, Fitted, "d9fef64e16170dc3c8cf26f363d8b4be", 298);
    ("planted 1", Clustering.Signature.Wgram, Fitted, "ac4db5b79ae87e0ac599193be7987193", 356);
    ("planted 1", Clustering.Signature.Qgram, Fixed, "1c742926906f84d8d3171f8e526f0b55", 505);
    ("planted 1", Clustering.Signature.Wgram, Fixed, "9c8dac400d9c4dea96cadcaa8e5b1cb6", 399);
    ("planted 2", Clustering.Signature.Qgram, Fitted, "7d3c39c1ca723b804fe9d460b4d829db", 302);
    ("planted 2", Clustering.Signature.Wgram, Fitted, "7d3c39c1ca723b804fe9d460b4d829db", 333);
    ("planted 2", Clustering.Signature.Qgram, Fixed, "75925c348880959f4fa6d3323780481a", 444);
    ("planted 2", Clustering.Signature.Wgram, Fixed, "4341dd71f3751fb4b24f6a5c567efb2e", 300);
    ("planted 3", Clustering.Signature.Qgram, Fitted, "cfef02b9579c15bef3960e5016c158df", 383);
    ("planted 3", Clustering.Signature.Wgram, Fitted, "cfef02b9579c15bef3960e5016c158df", 372);
    ("planted 3", Clustering.Signature.Qgram, Fixed, "71ea3d580271e2eed4383239b5b3e5f3", 488);
    ("planted 3", Clustering.Signature.Wgram, Fixed, "2aff0f63a6b8505c3c3e2211657d469c", 353);
    ("planted 3 at 12%", Clustering.Signature.Qgram, Fitted, "10ff2c6885a8be82c70fc5668ef290e2", 269);
    ("planted 3 at 12%", Clustering.Signature.Wgram, Fitted, "10ff2c6885a8be82c70fc5668ef290e2", 273);
    ("planted 3 at 12%", Clustering.Signature.Qgram, Fixed, "9a3282dcfe6ab8bb07da2700990f58f6", 163);
    ("planted 3 at 12%", Clustering.Signature.Wgram, Fixed, "b5db16689884e01a55d1765a2edf2cdc", 24);
    ("cold get", Clustering.Signature.Qgram, Fitted, "e58e90e7d6079f1d3bf65ed112c6f1d0", 1543);
    ("cold get", Clustering.Signature.Wgram, Fitted, "e58e90e7d6079f1d3bf65ed112c6f1d0", 1463);
    ("cold get", Clustering.Signature.Qgram, Fixed, "d236fc78c30c87e50259ca6b5a3ffce3", 2288);
    ("cold get", Clustering.Signature.Wgram, Fixed, "643d76b038ad06be4d7527eecb1096d1", 1282);
  ]

let test_golden_partitions () =
  List.iter
    (fun (input, make) ->
      let reads = make () in
      let pool = Dna.Strand_pool.create () in
      Array.iter (fun s -> ignore (Dna.Strand_pool.add_strand pool s)) reads;
      List.iter
        (fun (_, kind, thresholds, digest, all_pairs_edits) ->
          List.iter
            (fun domains ->
              let what =
                Printf.sprintf "%s, %s, %s thresholds, domains=%d" input (kind_name kind)
                  (match thresholds with Fitted -> "fitted" | Fixed -> "fixed")
                  domains
              in
              let rng = Dna.Rng.create 17 in
              let params =
                match thresholds with
                | Fitted -> auto_params ~kind rng reads
                | Fixed ->
                    Clustering.Cluster.default_params ~kind
                      ~read_len:(Dna.Strand.length reads.(0)) ()
              in
              let result = Clustering.Cluster.run_scaled { params with domains } rng reads in
              Alcotest.(check string) (what ^ ": digest") digest (result_digest result);
              let edits = result.stats.edit_comparisons in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %d edit comparisons <= %d" what edits all_pairs_edits)
                true (edits <= all_pairs_edits);
              if thresholds = Fitted then
                Alcotest.(check (list (array int)))
                  (what ^ ": cluster_default = run_scaled")
                  result.clusters
                  (Dnastore.Pipeline.cluster_default ~kind ~domains () (Dna.Rng.create 17) pool))
            [ 1; 2 ])
        (List.filter (fun (name, _, _, _, _) -> name = input) golden_expected))
    golden_inputs

(* ---------- auto configuration ---------- *)

let test_auto_config_thresholds_ordered () =
  let r = rng () in
  let reads, _ = make_reads r in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let config = Clustering.Auto_config.configure params r reads in
  Alcotest.(check bool) "theta_low < theta_high" true
    (config.Clustering.Auto_config.theta_low < config.Clustering.Auto_config.theta_high);
  Alcotest.(check bool) "edit threshold positive" true
    (config.Clustering.Auto_config.edit_threshold > 0)

let test_auto_config_separates_modes () =
  (* At low error the sampled distances show the Figure 5 jump; the
     fitted thresholds must bracket same-cluster distances. *)
  let r = rng () in
  let reads, truth = make_reads ~error_rate:0.03 r in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let config = Clustering.Auto_config.configure params r reads in
  (* Measure where same-cluster signature distances actually sit. *)
  let index = Clustering.Signature.Index.build ~q:4 Clustering.Signature.Qgram reads in
  let max_same = ref 0 and checked = ref 0 in
  (try
     for i = 0 to Array.length reads - 1 do
       for j = i + 1 to min (Array.length reads - 1) (i + 20) do
         if truth.(i) = truth.(j) then begin
           max_same := max !max_same (Clustering.Signature.Index.distance index i j);
           incr checked;
           if !checked > 150 then raise Exit
         end
       done
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Printf.sprintf "theta_high %d >= typical same distance" config.Clustering.Auto_config.theta_high)
    true
    (config.Clustering.Auto_config.theta_high * 2 >= !max_same)

let test_figure5_series_sorted () =
  let r = rng () in
  let reads, _ = make_reads r in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let config = Clustering.Auto_config.configure params r reads in
  let series = Clustering.Auto_config.figure5_series config in
  let sorted = Array.copy series in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "sorted ascending" sorted series;
  Alcotest.(check bool) "nonempty" true (Array.length series > 0)

(* The boxed reference sampler: Auto_config's probe x target sampling
   done with one boxed signature per sampled read and the byte-wise
   [Cluster_oracle.Signature.distance], keeping each probe's 5 closest
   targets ordered by (distance, target). [Auto_config] itself compares
   on the packed [Signature.Index]; its samples must match this one
   exactly. *)
let boxed_sample params rng (reads : Dna.Strand.t array) ~n_probes ~n_targets =
  let n = Array.length reads in
  let n_probes = min n_probes n and n_targets = min n_targets n in
  let probes = Dna.Rng.sample_indices rng ~n ~k:n_probes in
  let targets = Dna.Rng.sample_indices rng ~n ~k:n_targets in
  let sig_of i =
    Boxed.compute ~q:params.Clustering.Cluster.gram_len params.Clustering.Cluster.kind reads.(i)
  in
  let dists = ref [] and nearest = ref [] in
  Array.iter
    (fun p ->
      let cand = ref [] in
      Array.iter
        (fun t ->
          if p <> t then begin
            let d = Boxed.distance (sig_of p) (sig_of t) in
            dists := d :: !dists;
            cand := (d, t) :: !cand
          end)
        targets;
      List.iteri
        (fun i (d, t) -> if i < 5 then nearest := (p, t, d) :: !nearest)
        (List.sort compare !cand))
    probes;
  { Clustering.Auto_config.all = Array.of_list !dists; nearest = Array.of_list !nearest }

let test_auto_config_matches_boxed_sampler () =
  (* Thresholds are those the boxed sampler produced for these reads and
     seeds; at 12% the signature modes overlap and the thresholds come
     from the edit-verified nearest pairs. *)
  List.iter
    (fun (kind, error_rate, (theta_low, theta_high, edit_threshold)) ->
      let name =
        Printf.sprintf "%s at %.0f%%" (kind_name kind) (100. *. error_rate)
      in
      let reads, _ = make_reads ~error_rate (Dna.Rng.create 31) in
      let params = Clustering.Cluster.default_params ~kind ~read_len:100 () in
      let packed =
        Clustering.Auto_config.sample_distances params (Dna.Rng.create 7) reads ~n_probes:24
          ~n_targets:300
      in
      let boxed = boxed_sample params (Dna.Rng.create 7) reads ~n_probes:24 ~n_targets:300 in
      Alcotest.(check (array int)) (name ^ ": all") boxed.all packed.all;
      Alcotest.(check (array (triple int int int))) (name ^ ": nearest") boxed.nearest packed.nearest;
      let config = Clustering.Auto_config.configure params (Dna.Rng.create 7) reads in
      Alcotest.(check (array int)) (name ^ ": distances") boxed.all config.distances;
      Alcotest.(check (triple int int int))
        (name ^ ": thresholds")
        (theta_low, theta_high, edit_threshold)
        (config.theta_low, config.theta_high, config.edit_threshold))
    [
      (Clustering.Signature.Qgram, 0.03, (20, 44, 19));
      (Clustering.Signature.Qgram, 0.12, (62, 95, 40));
      (Clustering.Signature.Wgram, 0.03, (1503, 3460, 19));
      (Clustering.Signature.Wgram, 0.12, (4210, 7116, 36));
    ]

(* ---------- metrics ---------- *)

let test_metrics_perfect_clustering () =
  let truth = [| 0; 0; 1; 1; 2 |] in
  let clusters = [ [| 0; 1 |]; [| 2; 3 |]; [| 4 |] ] in
  Alcotest.(check (float 1e-9)) "accuracy 1" 1.0 (Clustering.Metrics.accuracy ~truth clusters);
  Alcotest.(check (float 1e-9)) "purity 1" 1.0 (Clustering.Metrics.purity ~truth clusters);
  Alcotest.(check (float 1e-9)) "rand 1" 1.0 (Clustering.Metrics.rand_index ~truth clusters)

let test_metrics_split_cluster () =
  let truth = [| 0; 0; 0; 0 |] in
  let clusters = [ [| 0; 1 |]; [| 2; 3 |] ] in
  (* No computed cluster covers the whole true cluster. *)
  Alcotest.(check (float 1e-9)) "accuracy 0" 0.0 (Clustering.Metrics.accuracy ~truth clusters);
  (* gamma 0.5: a half-cluster suffices *)
  Alcotest.(check (float 1e-9)) "gamma 0.5 recovers" 1.0
    (Clustering.Metrics.accuracy ~gamma:0.5 ~truth clusters);
  Alcotest.(check (float 1e-9)) "purity still 1" 1.0 (Clustering.Metrics.purity ~truth clusters)

let test_metrics_merged_cluster () =
  let truth = [| 0; 0; 1; 1 |] in
  let clusters = [ [| 0; 1; 2; 3 |] ] in
  Alcotest.(check (float 1e-9)) "accuracy 0" 0.0 (Clustering.Metrics.accuracy ~truth clusters);
  Alcotest.(check (float 1e-9)) "purity 0.5" 0.5 (Clustering.Metrics.purity ~truth clusters)

let test_metrics_foreign_element_blocks_recovery () =
  let truth = [| 0; 0; 1 |] in
  let clusters = [ [| 0; 1; 2 |] ] in
  Alcotest.(check (float 1e-9)) "not recovered with foreign read" 0.0
    (Clustering.Metrics.accuracy ~gamma:0.5 ~truth clusters)

(* ---------- QCheck ---------- *)

let prop_uf_union_monotone =
  QCheck.Test.make ~name:"union never increases cluster count" ~count:100
    QCheck.(pair (int_range 2 40) (list (pair (int_bound 39) (int_bound 39))))
    (fun (n, unions) ->
      let uf = Clustering.Union_find.create n in
      List.for_all
        (fun (a, b) ->
          let a = a mod n and b = b mod n in
          let before = Clustering.Union_find.n_clusters uf in
          Clustering.Union_find.union uf a b;
          let after = Clustering.Union_find.n_clusters uf in
          after = before || after = before - 1)
        unions)

(* Symmetric, and equal to the boxed oracle's distance. *)
let prop_signature_distance_symmetric =
  QCheck.Test.make ~name:"signature distance symmetric" ~count:100
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 4 40) (int_bound 3))
              (list_of_size (QCheck.Gen.int_range 4 40) (int_bound 3)))
    (fun (a, b) ->
      let sa = Dna.Strand.of_codes (Array.of_list a) in
      let sb = Dna.Strand.of_codes (Array.of_list b) in
      List.for_all
        (fun kind ->
          let idx = Clustering.Signature.Index.build ~q:3 kind [| sa; sb |] in
          let d = Clustering.Signature.Index.distance idx 0 1 in
          d = Clustering.Signature.Index.distance idx 1 0
          && d = Boxed.distance (Boxed.compute ~q:3 kind sa) (Boxed.compute ~q:3 kind sb))
        [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ])


let () =
  Alcotest.run "clustering"
    [
      ( "union-find",
        [
          Alcotest.test_case "basics" `Quick test_uf_basics;
          Alcotest.test_case "idempotent union" `Quick test_uf_idempotent_union;
          Alcotest.test_case "clusters partition" `Quick test_uf_clusters_partition;
        ] );
      ( "signature",
        [
          Alcotest.test_case "identical reads" `Quick test_signature_identical_reads;
          Alcotest.test_case "separation" `Quick test_signature_separation;
          Alcotest.test_case "mixed kinds rejected" `Quick test_signature_mixed_kinds_rejected;
          Alcotest.test_case "qgram presence" `Quick test_signature_qgram_is_presence;
          Alcotest.test_case "wgram positions" `Quick test_signature_wgram_positions;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "recovers planted" `Quick test_clustering_recovers_planted;
          Alcotest.test_case "noiseless exact" `Quick test_clustering_noiseless_exact;
          Alcotest.test_case "empty input" `Quick test_clustering_empty_input;
          Alcotest.test_case "singleton input" `Quick test_clustering_singleton_input;
          Alcotest.test_case "stats populated" `Quick test_clustering_stats_populated;
          Alcotest.test_case "parallel same quality" `Quick test_clustering_parallel_same_quality;
          Alcotest.test_case "parallel identical assignment" `Quick
            test_clustering_parallel_identical_assignment;
          Alcotest.test_case "oracle partition = run_scaled" `Quick
            test_oracle_partition_matches;
          Alcotest.test_case "index = boxed signatures" `Quick
            test_index_matches_boxed_signatures;
          Alcotest.test_case "index sharded build identical" `Quick
            test_index_sharded_build_identical;
          Alcotest.test_case "pool slices reconstruct identically" `Quick
            test_pool_slices_reconstruct_identically;
          Alcotest.test_case "golden partitions" `Quick test_golden_partitions;
        ] );
      ( "scaled",
        [
          Alcotest.test_case "identical across domains" `Quick
            test_scaled_identical_across_domains;
          Alcotest.test_case "recovers planted" `Quick test_scaled_recovers_planted;
          Alcotest.test_case "empty/singleton" `Quick test_scaled_empty_and_singleton;
        ] );
      ( "auto-config",
        [
          Alcotest.test_case "thresholds ordered" `Quick test_auto_config_thresholds_ordered;
          Alcotest.test_case "separates modes" `Quick test_auto_config_separates_modes;
          Alcotest.test_case "figure5 series" `Quick test_figure5_series_sorted;
          Alcotest.test_case "matches boxed sampler" `Quick test_auto_config_matches_boxed_sampler;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "perfect clustering" `Quick test_metrics_perfect_clustering;
          Alcotest.test_case "split cluster" `Quick test_metrics_split_cluster;
          Alcotest.test_case "merged cluster" `Quick test_metrics_merged_cluster;
          Alcotest.test_case "foreign element" `Quick test_metrics_foreign_element_blocks_recovery;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_uf_union_monotone; prop_signature_distance_symmetric ] );
    ]
