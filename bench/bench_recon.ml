(* The recon entry: times the bit-parallel alignment kernel against the
   full-matrix reference ([Kernel_oracle.align]) and pool-native
   consensus against the boxed oracle ([Recon_oracle]), and writes
   BENCH_recon.json so future perf changes have a trajectory to regress
   against.

     dune exec bench/main.exe -- recon            # full run
     dune exec bench/main.exe -- --smoke recon    # tiny budget: checks the
                                                  # harness and JSON, not timing

   Two tiers, each with an exactness guard (any output difference from
   the reference is a bug and fails the bench):

   - align: ns/op for sibling pairs at 120nt, 136nt (the strand every
     trip and get aligns, three 63-bit blocks) and 300nt, [Alignment.align]
     against [Kernel_oracle.align], with identical score and
     script required;
   - trip slices: one pipeline trip's clusters reconstructed pool-native
     and by the boxed oracle, with identical consensus required; each
     row is the median and IQR over 7 alternating sweeps.

   The entry also fails if the bit-parallel kernel is slower than the
   full matrix on the 120nt align case (threshold 1.0, relaxed to 0.8
   under --smoke where timings are noise). *)

open Exp_common

(* ---------- Workloads ---------- *)

let read_len = 120
let error_rate = 0.06

let sibling rng s =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  Simulator.Channel.transmit ch rng s

let check_same_alignment name (f : Dna.Alignment.t) (b : Dna.Alignment.t) =
  if f.Dna.Alignment.score <> b.Dna.Alignment.score || f.script <> b.script then
    fail "kernel disagrees with the reference on %s (full score %d, bit-parallel %d)" name
      f.Dna.Alignment.score b.Dna.Alignment.score

(* Tier 1: the pairwise kernel on sibling reads. Before a row is timed,
   the kernel must match the full matrix on the timed pair and on 32
   more pairs of its length, siblings and unrelated strands in turn
   (drawn from their own stream, so the timed pairs stay the same).
   Returns the 120nt speedup for the regression guard. *)
let run_align () =
  let rng = Dna.Rng.create 123 in
  let check_rng = Dna.Rng.create 124 in
  let cases =
    List.map
      (fun len ->
        let a = Dna.Strand.random rng len in
        let b = sibling rng a in
        (Printf.sprintf "align/siblings-%dnt" len, a, b))
      [ read_len; Codec.Params.strand_nt Codec.Params.default; 300 ]
  in
  let results =
    List.map
      (fun (name, a, b) ->
        check_same_alignment name (Kernel_oracle.align a b) (Dna.Alignment.align a b);
        let len = Dna.Strand.length a in
        for k = 1 to 32 do
          let x = Dna.Strand.random check_rng len in
          let y = if k land 1 = 0 then sibling check_rng x else Dna.Strand.random check_rng len in
          check_same_alignment name (Kernel_oracle.align x y) (Dna.Alignment.align x y)
        done;
        let ns_full = ns_per_op (fun () -> Kernel_oracle.align a b) in
        let ns_bit = ns_per_op (fun () -> Dna.Alignment.align a b) in
        let speedup = ns_full /. ns_bit in
        Printf.printf "%-28s full %10.1f ns   bit-parallel %10.1f ns   %5.1fx\n" name ns_full
          ns_bit speedup;
        (name, ns_full, ns_bit, speedup))
      cases
  in
  let entries =
    List.concat_map
      (fun (name, ns_full, ns_bit, speedup) ->
        [
          entry (name ^ "/full") [ ("ns_per_op", num ns_full); ("speedup_vs_full", num 1.0) ];
          entry (name ^ "/bitparallel")
            [ ("ns_per_op", num ns_bit); ("speedup_vs_full", num speedup) ];
        ])
      results
  in
  let speedup_120 = match results with (_, _, _, s) :: _ -> s | [] -> 0.0 in
  (entries, speedup_120)

(* Tier 2: pool-native consensus against the boxed oracle on the same
   clusters. One pipeline trip — encode, sequence into one arena,
   default clustering, sorted slices: the calls [Pipeline.run] makes —
   yields the clusters. Each is reconstructed by
   [Nw_consensus.reconstruct_pool] over its index slice and by the boxed
   [Recon_oracle.nw] over its views, materialized once outside the
   timed region. The two sides alternate over [reps] sweeps; every row
   reports the median and interquartile range over the sweeps, and the
   speedup is the median of the per-sweep boxed/pool ratios.

   Guards: identical consensus on every cluster (always); the pool path
   allocates strictly fewer minor words per cluster (always); the pool
   path is not slower in total at the median (full run — relaxed to 2x
   under --smoke, where a 128-byte file gives timing noise, not
   timing). *)
let run_oracle () =
  let file_bytes = pick ~fast:128 ~full:2048 in
  let data =
    let r = Dna.Rng.create 11 in
    Bytes.init file_bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  let reps = pick ~fast:1 ~full:7 in
  let params = Codec.Params.default in
  let target_len = Codec.Params.strand_nt params in
  let rng = Dna.Rng.create 5 in
  let stages = Dnastore.Pipeline.default_stages ~error_rate () in
  let encoded = Codec.File_codec.encode ~params data in
  let pool = Dna.Strand_pool.create () in
  ignore
    (Simulator.Sequencer.sequence_pool stages.Dnastore.Pipeline.sequencing stages.channel rng
       encoded.Codec.File_codec.strands ~pool);
  let slices = Array.of_list (stages.cluster rng pool) in
  Dnastore.Pipeline.sort_cluster_slices pool slices;
  let slices = Array.of_list (List.filter (fun s -> Array.length s > 0) (Array.to_list slices)) in
  let views = Array.map (Array.map (Dna.Strand_pool.get pool)) slices in
  let n = Array.length slices in
  let pool_recon i = Reconstruction.Nw_consensus.reconstruct_pool ~target_len pool slices.(i) in
  let boxed_recon i = Recon_oracle.nw ~target_len views.(i) in
  for i = 0 to n - 1 do
    let p = pool_recon i and b = boxed_recon i in
    if not (Dna.Strand.equal p b) then
      fail "pool and boxed consensus differ on cluster %d of %d: pool %s, boxed %s" i n
        (Dna.Strand.to_string p) (Dna.Strand.to_string b)
  done;
  (* One sweep over every cluster: per-cluster seconds and minor words,
     measured around the consensus call alone. *)
  let sweep recon =
    let times = Array.make n 0.0 and words = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let w0 = Gc.minor_words () in
      let (), dt = time (fun () -> ignore (Sys.opaque_identity (recon i))) in
      times.(i) <- dt;
      words.(i) <- Gc.minor_words () -. w0
    done;
    (times, words)
  in
  let sum = Array.fold_left ( +. ) 0.0 in
  let runs = List.init reps (fun _ -> (sweep pool_recon, sweep boxed_recon)) in
  let pct = Dnastore.Pipeline.percentile in
  (* Median and interquartile range of one figure over the sweeps. *)
  let spread f =
    let xs = Array.of_list (List.map f runs) in
    (pct xs 0.50, pct xs 0.75 -. pct xs 0.25)
  in
  let pool_side f ((t, _), _) = f t and boxed_side f (_, (t, _)) = f t in
  let words_per_cluster w = sum w /. float_of_int n in
  let wp, _ = spread (fun ((_, w), _) -> words_per_cluster w)
  and wb, _ = spread (fun (_, (_, w)) -> words_per_cluster w) in
  let sp, _ = spread (pool_side sum) and sb, _ = spread (boxed_side sum) in
  let speedup, speedup_iqr = spread (fun r -> boxed_side sum r /. pool_side sum r) in
  Printf.printf
    "trip slices (%d clusters, median of %d sweeps): pool %.3fs, boxed %.3fs, %.2fx (IQR %.2f); \
     %.0f vs %.0f words/cluster\n"
    n reps sp sb speedup speedup_iqr wp wb;
  if wp >= wb then fail "pool consensus did not allocate fewer words/cluster (%.0f >= %.0f)" wp wb;
  let slack = pick ~fast:2.0 ~full:1.0 in
  if sp > slack *. sb then
    fail "pool consensus slower than boxed at the median (%.3fs > %.1fx * %.3fs)" sp slack sb;
  (* Rows per figure: median and IQR over the sweeps for each side, and
     on the pool row the median and IQR of the per-sweep speedups. *)
  let stage name f =
    let row suffix side extra =
      let median, iqr = spread (side f) in
      entry (name ^ suffix)
        ([ ("repeats", Store_json.Int reps); ("median_s", num median); ("iqr_s", num iqr) ]
        @ extra)
    in
    let speedup, speedup_iqr = spread (fun r -> boxed_side f r /. pool_side f r) in
    [
      row "/boxed" boxed_side [];
      row "/pool" pool_side [ ("speedup_median", num speedup); ("speedup_iqr", num speedup_iqr) ];
    ]
  in
  let entries =
    stage "trip_slices/reconstruct_s" sum
    @ stage "trip_slices/cluster_p50_s" (fun t -> pct t 0.50)
    @ stage "trip_slices/cluster_p95_s" (fun t -> pct t 0.95)
  in
  let extras =
    [
      ("trip_clusters", Store_json.Int n);
      ("pool_words_per_cluster", num wp);
      ("boxed_words_per_cluster", num wb);
    ]
  in
  (entries, extras)

let run () =
  print_string (section "Reconstruction: align kernel, pool vs boxed consensus");
  let align_entries, speedup_120 = run_align () in
  let oracle_entries, oracle_extras = run_oracle () in
  write_bench "BENCH_recon.json"
    ~config:
      ([ ("read_len", Store_json.Int read_len); ("error_rate", Store_json.Float error_rate) ]
      @ oracle_extras)
    (align_entries @ oracle_entries);
  let threshold = pick ~fast:0.8 ~full:1.0 in
  if speedup_120 < threshold then
    fail "bit-parallel slower than full on %dnt align (%.2fx < %.2fx)" read_len speedup_120
      threshold
