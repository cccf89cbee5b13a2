(* The kernels entry: times the edit-distance kernels and the primer
   locators against their scalar reference DPs and the pipeline's other
   hot kernels alone (micro tier, BENCH_micro.json), then a
   clustering-scale workload (BENCH_cluster.json), so future changes
   have a perf trajectory to regress against.

     dune exec bench/main.exe -- kernels                          # full run
     dune exec bench/main.exe -- --smoke --scale-reads 20000 kernels

   Each JSON entry records the case name, ns/op (micro and per-call
   macro) or seconds total (whole clustering runs), and, where a scalar
   oracle runs the same workload, the speedup against it. The entry
   exits 1 when a kernel disagrees with its reference or a scale-tier
   guard fails. *)

open Exp_common

(* ---------- Workloads ---------- *)

let read_len = 120
let error_rate = 0.06

let sibling rng s =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  Simulator.Channel.transmit ch rng s

(* Per-case micro workloads as (reference, production) thunks; each is
   timed both ways and the myers entry carries its speedup over the
   scalar reference. *)
let micro_cases rng =
  let a = Dna.Strand.random rng read_len in
  let b = sibling rng a in
  let c = Dna.Strand.random rng read_len in
  let la = Dna.Strand.random rng 300 in
  let lb = sibling rng la in
  let bound = 40 in
  let lev x y =
    ((fun () -> Kernel_oracle.levenshtein x y), fun () -> Dna.Distance.levenshtein x y)
  in
  let leq x y =
    let d = function Some d -> d | None -> -1 in
    ( (fun () -> d (Kernel_oracle.levenshtein_leq ~bound x y)),
      fun () -> d (Dna.Distance.levenshtein_leq ~bound x y) )
  in
  [
    ("levenshtein/siblings-120nt", lev a b);
    ("levenshtein/unrelated-120nt", lev a c);
    ("levenshtein/siblings-300nt", lev la lb);
    ("levenshtein_leq/bound-40-siblings-120nt", leq a b);
    ("levenshtein_leq/bound-40-unrelated-120nt", leq a c);
  ]

(* Primer locator cases on noisy default molecules (20 nt primers around
   a 136 nt core), half of them reversed. One op is one call on the next
   read of the set. Before timing, every read is run through both sides,
   and any disagreement exits 1. *)
let primer_molecule_nt = Codec.Params.strand_nt Codec.Params.default + (2 * Codec.Primer.primer_length)

let primer_cases rng =
  let pair = (Codec.Primer.generate_pairs_exn rng 1).(0) in
  let reads =
    Array.init 64 (fun i ->
        let core = Dna.Strand.random rng (Codec.Params.strand_nt Codec.Params.default) in
        let read = sibling rng (Codec.Primer.attach pair core) in
        if i mod 2 = 1 then Dna.Strand.reverse_complement read else read)
  in
  let slack = Codec.Primer.slack and max_edits = Codec.Primer.max_edits in
  (* The demux the kernel replaced: orient on a reverse-complemented
     copy, then strip with both scalar locators. *)
  let demux_reference read =
    let head = Kernel_oracle.locate_prefix ~slack ~max_edits pair.forward in
    let strip r dir =
      match (head r, Kernel_oracle.locate_suffix ~slack ~max_edits pair.reverse r) with
      | Some (s, _), Some (e, _) when e > s -> Some (Dna.Strand.sub r ~pos:s ~len:(e - s), dir)
      | _ -> None
    in
    let rc = Dna.Strand.reverse_complement read in
    match (head read, head rc) with
    | Some (_, fd), Some (_, rd) when fd <= rd -> strip read Codec.Primer.Forward
    | Some _, None -> strip read Codec.Primer.Forward
    | _, Some _ -> strip rc Codec.Primer.Reverse
    | None, None -> None
  in
  let demux = Codec.Primer.find_core (Codec.Primer.key pair) in
  (* [find_core]'s answer in the reference's form: the normalized core. *)
  let demux_core read =
    Option.map
      (fun (pos, len, dir) ->
        let s = Dna.Strand.sub read ~pos ~len in
        ((if dir = Codec.Primer.Forward then s else Dna.Strand.reverse_complement s), dir))
      (demux read)
  in
  let same_core a b =
    match (a, b) with
    | None, None -> true
    | Some (x, d), Some (y, e) -> d = e && Dna.Strand.equal x y
    | _ -> false
  in
  let next =
    let i = ref 0 in
    fun () ->
      i := (!i + 1) land 63;
      reads.(!i)
  in
  let case name ~agree reference production =
    if not (Array.for_all agree reads) then
      fail "primer locator disagrees with the reference: %s" name;
    ( name,
      ( (fun () ->
          ignore (reference (next ()));
          0),
        fun () ->
          ignore (production (next ()));
          0 ) )
  in
  let locate f pattern read = f ~slack ~max_edits pattern read in
  let prefix_reference = locate Kernel_oracle.locate_prefix pair.forward
  and prefix = locate Codec.Primer.locate_prefix pair.forward
  and suffix_reference = locate Kernel_oracle.locate_suffix pair.reverse
  and suffix = locate Codec.Primer.locate_suffix pair.reverse in
  [
    case "primer_locate/prefix-176nt"
      ~agree:(fun r -> prefix r = prefix_reference r)
      prefix_reference prefix;
    case "primer_locate/suffix-176nt"
      ~agree:(fun r -> suffix r = suffix_reference r)
      suffix_reference suffix;
    case "primer_locate/demux-176nt"
      ~agree:(fun r -> same_core (demux_core r) (demux_reference r))
      demux_reference demux;
  ]

(* Kernels with no reference to race, timed alone: the RNG draws behind
   the channel, the anchor search behind clustering's partition keys,
   the packed signature index ([compute] builds a one-read index,
   [distance] compares two reads of a built one), Reed-Solomon
   encode/decode and the three consensus algorithms on one
   coverage-10 cluster. *)
let solo_cases rng =
  let a = Dna.Strand.random rng read_len in
  let b = sibling rng a in
  let anchor3 = Dna.Strand.random rng 3 in
  let index kind reads = Clustering.Signature.Index.build ~q:4 kind reads in
  let q_index = index Clustering.Signature.Qgram [| a; b |]
  and w_index = index Clustering.Signature.Wgram [| a; b |] in
  let distance index () = ignore (Clustering.Signature.Index.distance index 0 1) in
  let rs_code = Rs.create ~k:20 ~nsym:6 in
  let rs_msg = Array.init 20 (fun i -> (i * 37) land 0xff) in
  let rs_noisy = Rs.encode_arr rs_code rs_msg in
  rs_noisy.(3) <- rs_noisy.(3) lxor 0x55;
  rs_noisy.(15) <- rs_noisy.(15) lxor 0xaa;
  let cluster = Dna.Strand_pool.of_strands (Array.init 10 (fun _ -> sibling rng a)) in
  let slice = Array.init 10 Fun.id in
  let recon f () = ignore (f ~target_len:read_len cluster slice) in
  [
    ("rng/float", fun () -> ignore (Dna.Rng.float rng));
    ("rng/int", fun () -> ignore (Dna.Rng.int rng 1000));
    ("strand/find-anchor3", fun () -> ignore (Dna.Strand.find a ~pattern:anchor3));
    ("signature/qgram-compute", fun () -> ignore (index Clustering.Signature.Qgram [| a |]));
    ("signature/wgram-compute", fun () -> ignore (index Clustering.Signature.Wgram [| a |]));
    ("signature/qgram-distance", distance q_index);
    ("signature/wgram-distance", distance w_index);
    ("rs/encode-26", fun () -> ignore (Rs.encode_arr rs_code rs_msg));
    ("rs/decode-2-errors", fun () -> ignore (Rs.decode_arr rs_code rs_noisy));
    ("recon/bma-cov10", recon Reconstruction.Bma.reconstruct_pool);
    ("recon/dbma-cov10", recon Reconstruction.Bma.reconstruct_double_pool);
    ("recon/nwa-cov10", recon Reconstruction.Nw_consensus.reconstruct_pool);
  ]

let run_micro () =
  let rng = Dna.Rng.create 123 in
  let raced =
    List.concat_map
      (fun (name, (reference, production)) ->
        let ns_scalar = ns_per_op reference in
        let ns_myers = ns_per_op production in
        Printf.printf "%-42s reference %10.1f ns   myers %8.1f ns   %6.1fx\n" name ns_scalar
          ns_myers (ns_scalar /. ns_myers);
        [
          entry (name ^ "/reference")
            [ ("ns_per_op", num ns_scalar); ("speedup_vs_scalar", num 1.0) ];
          entry (name ^ "/myers")
            [ ("ns_per_op", num ns_myers); ("speedup_vs_scalar", num (ns_scalar /. ns_myers)) ];
        ])
      (micro_cases rng @ primer_cases rng)
  in
  let solo =
    List.map
      (fun (name, f) ->
        let ns = ns_per_op f in
        Printf.printf "%-42s %10.1f ns\n" name ns;
        entry name [ ("ns_per_op", num ns) ])
      (solo_cases rng)
  in
  write_bench "BENCH_micro.json"
    ~config:
      [
        ("read_len", Store_json.Int read_len);
        ("primer_molecule_nt", Store_json.Int primer_molecule_nt);
        ("error_rate", Store_json.Float error_rate);
      ]
    (raced @ solo)

(* Clustering-scale macro benchmark: [n_refs] reference strands at
   [coverage] noisy reads each. The merge test in isolation: [rounds]
   sweeps over every within-cluster sibling pair plus as many unrelated
   pairs, through [levenshtein_leq ~bound] exactly as the clustering
   inner loop calls it (cached Eq masks get reused across a strand's
   comparisons, as they are inside a clustering round), timed against
   the scalar reference on the same pairs. *)
let run_cluster () =
  let n_refs = pick ~fast:6 ~full:120 in
  let coverage = pick ~fast:3 ~full:10 in
  let rounds = pick ~fast:1 ~full:5 in
  let bound = 40 in
  let rng = Dna.Rng.create 7 in
  let refs = Array.init n_refs (fun _ -> Dna.Strand.random rng read_len) in
  let reads = Array.concat (Array.to_list (Array.map (fun r -> Array.init coverage (fun _ -> sibling rng r)) refs)) in
  let n_reads = Array.length reads in
  (* Sibling pairs within each cluster, and an equal number of unrelated
     cross-cluster pairs. *)
  let pairs = ref [] in
  Array.iteri
    (fun ci _ ->
      for i = 0 to coverage - 1 do
        for j = i + 1 to coverage - 1 do
          pairs := (reads.((ci * coverage) + i), reads.((ci * coverage) + j)) :: !pairs;
          let other = (ci + 1 + Dna.Rng.int rng (n_refs - 1)) mod n_refs in
          pairs :=
            (reads.((ci * coverage) + i), reads.((other * coverage) + j)) :: !pairs
        done
      done)
    refs;
  let pairs = Array.of_list !pairs in
  let n_calls = rounds * Array.length pairs in
  let time_leq leq =
    let acc, s =
      time (fun () ->
          let acc = ref 0 in
          for _ = 1 to rounds do
            Array.iter
              (fun (a, b) ->
                match leq ~bound a b with
                | Some d -> acc := !acc + d
                | None -> ())
              pairs
          done;
          !acc)
    in
    (s, acc)
  in
  let s_scalar, chk_scalar = time_leq Kernel_oracle.levenshtein_leq in
  let s_myers, chk_myers = time_leq Dna.Distance.levenshtein_leq in
  if chk_scalar <> chk_myers then
    fail "kernel disagrees with the reference in macro leq workload (%d vs %d)" chk_scalar
      chk_myers;
  let leq_speedup = s_scalar /. s_myers in
  Printf.printf "macro leq: %d calls  scalar %.3fs  myers %.3fs  %.1fx\n" n_calls s_scalar
    s_myers leq_speedup;
  let leq_entry name s speedup =
    entry name
      [
        ("ns_per_op", num (s *. 1e9 /. float_of_int n_calls));
        ("s_total", num s);
        ("speedup_vs_scalar", num speedup);
      ]
  in
  ( [
      ("read_len", Store_json.Int read_len);
      ("error_rate", Store_json.Float error_rate);
      ("n_refs", Store_json.Int n_refs);
      ("coverage", Store_json.Int coverage);
      ("n_reads", Store_json.Int n_reads);
      ("rounds", Store_json.Int rounds);
      ("bound", Store_json.Int bound);
    ],
    [
      leq_entry "levenshtein_leq/scalar" s_scalar 1.0;
      leq_entry "levenshtein_leq/bitparallel" s_myers leq_speedup;
    ] )

(* ---------- Clustering at scale ----------

   The end-to-end read path the packed representation exists for:
   generate a simulated read set straight to FASTQ, stream it back into
   one packed arena (bounded memory — the read set never exists as
   boxed objects), and cluster it two ways on identical reads:

   - packed: [Cluster.run_scaled] over the pool's views — the flat
     engine and packed signature index the pipeline runs;
   - boxed: [Cluster_oracle.run] — the per-read-boxed engine the packed
     one replaced, same kernels, so the delta is the engine and
     representation.

   (Clover's accuracy against the merge engine is the E11 claim in
   test/test_claims.ml, at the Clover experiment's fast setting.)

   Also measured: minor-heap words allocated per read by the simulator
   channel loop, the boxed iid model ([Channel_oracle.iid]) vs the
   pooled transmit_into. *)

let scale_params () =
  (* partition_len 8 spreads 1M representatives across 65536 integer
     keys (~15 per bucket in round one); anchors stay at the default 3
     so most reads contain one. *)
  {
    (Clustering.Cluster.default_params ~read_len ()) with
    Clustering.Cluster.rounds = 16;
    stall_rounds = 4;
    partition_len = 8;
    domains = 1;
  }

let channel_alloc ~seed =
  let k = pick ~fast:2_000 ~full:20_000 in
  let rng = Dna.Rng.create seed in
  let clean = Dna.Strand.random rng read_len in
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  let boxed_iid = Channel_oracle.iid (Simulator.Iid_channel.default_params ~error_rate) in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to k do
    sink := !sink + Dna.Strand.length (boxed_iid rng clean)
  done;
  let boxed = (Gc.minor_words () -. w0) /. float_of_int k in
  let pool =
    Dna.Strand_pool.create ~capacity_bases:(k * (read_len + 16)) ~capacity_reads:(k + 1) ()
  in
  let w1 = Gc.minor_words () in
  for _ = 1 to k do
    Simulator.Channel.transmit_into ch rng clean pool;
    ignore (Dna.Strand_pool.commit pool)
  done;
  let pooled = (Gc.minor_words () -. w1) /. float_of_int k in
  ignore !sink;
  Printf.printf "channel alloc: boxed %.1f words/read   pooled %.2f words/read\n" boxed
    pooled;
  (boxed, pooled)

(* Guards: the packed engine is not slower than the boxed one it
   replaced on the same reads; both accuracies are fractions; the
   pooled channel loop allocates less per read than the boxed one and,
   with the unboxed RNG state allocating only the boxed float of each
   per-base draw (240 words per 120-nt read), at most 400 words. *)
let run_scale () =
  let seed = Option.value flags.seed ~default:1 in
  let n_target =
    match flags.scale_reads with Some n -> n | None -> pick ~fast:6_000 ~full:1_000_000
  in
  let coverage = 8 in
  let n_refs = max 1 (n_target / coverage) in
  let path = Filename.temp_file "dnastore_scale" ".fastq" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let n_written, s_gen =
    time (fun () ->
        Scale_stream.write_fastq ~path ~seed ~n_refs ~coverage ~len:read_len ~error_rate)
  in
  let (pool, truth), s_load = time (fun () -> Scale_stream.load_fastq ~path) in
  Printf.printf "scale: %d reads generated in %.1fs, streamed back in %.1fs\n" n_written
    s_gen s_load;
  let params = scale_params () in
  let accuracy (r : Clustering.Cluster.result) =
    Clustering.Metrics.accuracy ~truth r.Clustering.Cluster.clusters
  in
  (* Both engines read the same packed bases through zero-copy views. *)
  let views = Dna.Strand_pool.to_array pool in
  let packed, s_packed =
    time (fun () -> Clustering.Cluster.run_scaled params (Dna.Rng.create (seed + 101)) views)
  in
  let rss_packed = Scale_stream.peak_rss_mb () in
  let acc_packed = accuracy packed in
  let boxed, s_boxed =
    time (fun () -> Cluster_oracle.run params (Dna.Rng.create (seed + 101)) views)
  in
  let acc_boxed = accuracy boxed in
  Printf.printf "scale cluster (%d reads): packed %.2fs acc %.4f | boxed %.2fs acc %.4f (%.1fx)\n"
    n_written s_packed acc_packed s_boxed acc_boxed (s_boxed /. s_packed);
  let alloc_boxed, alloc_pooled = channel_alloc ~seed in
  if s_packed > s_boxed then
    fail "packed engine slower than boxed: %.2fs > %.2fs" s_packed s_boxed;
  List.iter
    (fun (name, acc) ->
      if not (acc >= 0.0 && acc <= 1.0) then fail "bad accuracy %g in cluster_scale/%s" acc name)
    [ ("packed", acc_packed); ("boxed", acc_boxed) ];
  if alloc_pooled >= alloc_boxed then
    fail "pooled channel loop does not allocate less than boxed (%.0f >= %.0f words/read)"
      alloc_pooled alloc_boxed;
  if alloc_pooled > 400.0 then
    fail "pooled channel loop allocates %.0f words/read (> 400)" alloc_pooled;
  let n_reads = ("n_reads", Store_json.Int n_written) in
  ( [
      ("scale_reads", Store_json.Int n_written);
      ("scale_coverage", Store_json.Int coverage);
      ("scale_seed", Store_json.Int seed);
      ("scale_rounds", Store_json.Int params.Clustering.Cluster.rounds);
      ("scale_partition_len", Store_json.Int params.Clustering.Cluster.partition_len);
    ],
    [
      entry "cluster_scale/packed"
        [
          ("s_total", num s_packed);
          ("speedup_vs_scalar", num (s_boxed /. s_packed));
          ("accuracy", num acc_packed);
          ("peak_rss_mb", num rss_packed);
          n_reads;
        ];
      entry "cluster_scale/boxed"
        [
          ("s_total", num s_boxed);
          ("speedup_vs_scalar", num 1.0);
          ("accuracy", num acc_boxed);
          n_reads;
        ];
      entry "cluster_scale/stream_load"
        [ ("s_total", num s_load); ("speedup_vs_scalar", num 1.0); n_reads ];
      entry "channel_alloc/transmit_into"
        [
          ("speedup_vs_scalar", num (alloc_boxed /. Float.max 1e-9 alloc_pooled));
          ("words_per_read_boxed", num alloc_boxed);
          ("words_per_read_pooled", num alloc_pooled);
        ];
    ] )

let run () =
  print_string (section "Kernels: micro tier, macro leq, clustering at scale");
  run_micro ();
  let cluster_config, cluster_entries = run_cluster () in
  let scale_config, scale_entries = run_scale () in
  write_bench "BENCH_cluster.json" ~config:(cluster_config @ scale_config)
    (cluster_entries @ scale_entries)
