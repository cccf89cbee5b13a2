(* The reconstruction bench: times the bit-parallel alignment kernel
   against the full-matrix reference ([Kernel_oracle.align]) and
   pool-native consensus against the boxed oracle ([Recon_oracle]), and
   writes BENCH_recon.json so future perf changes have a trajectory to
   regress against.

     dune exec bench/bench_recon.exe                 # full run, writes
                                                     # BENCH_recon.json in CWD
     dune exec bench/bench_recon.exe -- --out-dir d  # write elsewhere
     dune exec bench/bench_recon.exe -- --smoke      # tiny budget: checks the
                                                     # harness and JSON, not timing

   Two tiers, each with an exactness guard (any output difference from
   the reference is a bug and fails the bench):

   - align: ns/op for sibling pairs at 120nt and 300nt, [Alignment.align]
     against [Kernel_oracle.align], with identical score and
     script required;
   - trip slices: one pipeline trip's clusters reconstructed pool-native
     and by the boxed oracle, with identical consensus required.

   The job also fails if the bit-parallel kernel is slower than the full
   matrix on the 120nt align case (threshold 1.0, relaxed to 0.8 under
   --smoke where timings are noise). *)

let smoke = ref false
let out_dir = ref "."

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out-dir" :: dir :: rest ->
        out_dir := dir;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: bench_recon [--smoke] [--out-dir DIR] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

(* ---------- Timing ---------- *)

let ns_per_op f =
  let min_time = if !smoke then 0.002 else 0.25 in
  ignore (f ());
  let rec calibrate n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time || n >= 1_000_000_000 then dt *. 1e9 /. float_of_int n else calibrate (n * 4)
  in
  calibrate 1

(* ---------- JSON ---------- *)

type entry = { name : string; ns_per_op : float option; s_total : float option; speedup : float }

let entry ?ns ?s ~speedup name = { name; ns_per_op = ns; s_total = s; speedup }

let json_entry e =
  let fields =
    [ Printf.sprintf "\"name\": %S" e.name ]
    @ (match e.ns_per_op with
      | Some ns -> [ Printf.sprintf "\"ns_per_op\": %.1f" ns ]
      | None -> [])
    @ (match e.s_total with
      | Some s -> [ Printf.sprintf "\"s_total\": %.4f" s ]
      | None -> [])
    @ [ Printf.sprintf "\"speedup_vs_full\": %.2f" e.speedup ]
  in
  "    {" ^ String.concat ", " fields ^ "}"

let write_json path ~config entries =
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      output_string oc
        ("  \"config\": {"
        ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) config)
        ^ "},\n");
      output_string oc "  \"entries\": [\n";
      output_string oc (String.concat ",\n" (List.map json_entry entries));
      output_string oc "\n  ]\n}\n");
  Printf.printf "wrote %s\n" path

(* ---------- Workloads ---------- *)

let read_len = 120
let error_rate = 0.06

let sibling rng s =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  Simulator.Channel.transmit ch rng s

let check_same_alignment name (f : Dna.Alignment.t) (b : Dna.Alignment.t) =
  if f.Dna.Alignment.score <> b.Dna.Alignment.score || f.script <> b.script then begin
    Printf.eprintf "kernel disagrees with the reference on %s (full score %d, bit-parallel %d)\n"
      name f.Dna.Alignment.score b.Dna.Alignment.score;
    exit 1
  end

(* Tier 1: the pairwise kernel on sibling reads. Returns the 120nt
   speedup for the regression guard. *)
let run_align () =
  let rng = Dna.Rng.create 123 in
  let cases =
    List.map
      (fun len ->
        let a = Dna.Strand.random rng len in
        let b = sibling rng a in
        (Printf.sprintf "align/siblings-%dnt" len, a, b))
      [ read_len; 300 ]
  in
  let results =
    List.map
      (fun (name, a, b) ->
        check_same_alignment name (Kernel_oracle.align a b) (Dna.Alignment.align a b);
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
          entry ~ns:ns_full ~speedup:1.0 (name ^ "/full");
          entry ~ns:ns_bit ~speedup (name ^ "/bitparallel");
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
   timed region. The two sides alternate over [reps] sweeps; each
   side reports its fastest sweep.

   Guards: identical consensus on every cluster (always); the pool path
   allocates strictly fewer minor words per cluster (always); the pool
   path is not slower in total (full run — relaxed to 2x under --smoke,
   where a 128-byte file gives timing noise, not timing). *)
let run_oracle () =
  let file_bytes = if !smoke then 128 else 2048 in
  let data =
    let r = Dna.Rng.create 11 in
    Bytes.init file_bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  let reps = if !smoke then 1 else 5 in
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
    if not (Dna.Strand.equal p b) then begin
      Printf.eprintf "pool and boxed consensus differ on cluster %d of %d:\n  pool  %s\n  boxed %s\n"
        i n (Dna.Strand.to_string p) (Dna.Strand.to_string b);
      exit 1
    end
  done;
  (* One sweep over every cluster: per-cluster wall seconds and minor
     words, measured around the consensus call alone. *)
  let sweep recon =
    let times = Array.make n 0.0 and words = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (recon i));
      times.(i) <- Unix.gettimeofday () -. t0;
      words.(i) <- Gc.minor_words () -. w0
    done;
    (times, words)
  in
  let sum = Array.fold_left ( +. ) 0.0 in
  let runs = List.init reps (fun _ -> (sweep pool_recon, sweep boxed_recon)) in
  let fastest side =
    List.fold_left
      (fun best r ->
        let ((t, _) as r) = side r in
        match best with Some (bt, _) when sum bt <= sum t -> best | _ -> Some r)
      None runs
    |> Option.get
  in
  let tp, words_p = fastest fst and tb, words_b = fastest snd in
  let wp = sum words_p /. float_of_int n and wb = sum words_b /. float_of_int n in
  let sp = sum tp and sb = sum tb in
  let pct = Dnastore.Pipeline.percentile in
  Printf.printf
    "trip slices (%d clusters): pool %.3fs (p50 %.2f ms, p95 %.2f ms, %.0f words/cluster)\n\
    \                           boxed %.3fs (p50 %.2f ms, p95 %.2f ms, %.0f words/cluster)  %.2fx, %.1fx fewer words\n"
    n sp (1000.0 *. pct tp 0.50) (1000.0 *. pct tp 0.95) wp sb (1000.0 *. pct tb 0.50)
    (1000.0 *. pct tb 0.95) wb (sb /. sp)
    (if wp > 0.0 then wb /. wp else infinity);
  if wp >= wb then begin
    Printf.eprintf "pool consensus did not allocate fewer words/cluster (%.0f >= %.0f)\n" wp wb;
    exit 1
  end;
  let slack = if !smoke then 2.0 else 1.0 in
  if sp > slack *. sb then begin
    Printf.eprintf "pool consensus slower than boxed (%.3fs > %.1fx * %.3fs)\n" sp slack sb;
    exit 1
  end;
  let stage name boxed_v pool_v =
    [
      entry ~s:boxed_v ~speedup:1.0 (name ^ "/boxed");
      entry ~s:pool_v ~speedup:(if pool_v > 0.0 then boxed_v /. pool_v else 1.0) (name ^ "/pool");
    ]
  in
  let entries =
    stage "trip_slices/reconstruct_s" sb sp
    @ stage "trip_slices/cluster_p50_s" (pct tb 0.50) (pct tp 0.50)
    @ stage "trip_slices/cluster_p95_s" (pct tb 0.95) (pct tp 0.95)
  in
  let extras =
    [
      ("trip_clusters", string_of_int n);
      ("pool_words_per_cluster", Printf.sprintf "%.1f" wp);
      ("boxed_words_per_cluster", Printf.sprintf "%.1f" wb);
    ]
  in
  (entries, extras)

let () =
  let align_entries, speedup_120 = run_align () in
  let oracle_entries, oracle_extras = run_oracle () in
  write_json
    (Filename.concat !out_dir "BENCH_recon.json")
    ~config:
      ([
         ("read_len", string_of_int read_len);
         ("error_rate", string_of_float error_rate);
         ("smoke", string_of_bool !smoke);
       ]
      @ oracle_extras)
    (align_entries @ oracle_entries);
  let threshold = if !smoke then 0.8 else 1.0 in
  if speedup_120 < threshold then begin
    Printf.eprintf "bit-parallel slower than full on %dnt align (%.2fx < %.2fx)\n" read_len
      speedup_120 threshold;
    exit 1
  end
