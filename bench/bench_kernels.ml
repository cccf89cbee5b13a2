(* The bench-regression harness: times the edit-distance kernels and the
   primer locators against their scalar reference DPs (micro) and a
   clustering-scale workload (macro), and writes the results as JSON so
   future changes have a perf trajectory to regress against. It exits 1
   when a kernel disagrees with its reference.

     dune exec bench/bench_kernels.exe                 # full run, writes
                                                       # BENCH_micro.json and
                                                       # BENCH_cluster.json in CWD
     dune exec bench/bench_kernels.exe -- --out-dir d  # write elsewhere
     dune exec bench/bench_kernels.exe -- --smoke      # tiny budget: checks the
                                                       # harness and JSON, not timing

   Each JSON entry records the case name, ns/op (micro and per-call
   macro) or seconds total (whole clustering runs), and the speedup
   against the scalar oracle on the same workload. *)

let smoke = ref false
let out_dir = ref "."
let seed = ref 1
let scale_reads = ref 0 (* 0: pick by mode (smoke 6k, full 1M) *)

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out-dir" :: dir :: rest ->
        out_dir := dir;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string s;
        parse rest
    | "--scale-reads" :: s :: rest ->
        scale_reads := int_of_string s;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: bench_kernels [--smoke] [--out-dir DIR] [--seed N] [--scale-reads N] (got %S)\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

(* ---------- Timing ---------- *)

(* ns per call of [f], by doubling the batch size until it fills
   [min_time] of wall clock. The smoke budget only proves the harness
   runs and the JSON is well-formed. *)
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

type entry = {
  name : string;
  ns_per_op : float option;
  s_total : float option;
  speedup : float;
  extra : (string * float) list;  (* accuracy, peak RSS, words/read, ... *)
}

let entry ?ns ?s ?(extra = []) ~speedup name =
  { name; ns_per_op = ns; s_total = s; speedup; extra }

let json_entry e =
  let fields =
    [ Printf.sprintf "\"name\": %S" e.name ]
    @ (match e.ns_per_op with
      | Some ns -> [ Printf.sprintf "\"ns_per_op\": %.1f" ns ]
      | None -> [])
    @ (match e.s_total with
      | Some s -> [ Printf.sprintf "\"s_total\": %.4f" s ]
      | None -> [])
    @ [ Printf.sprintf "\"speedup_vs_scalar\": %.2f" e.speedup ]
    @ List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.6g" k v) e.extra
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
    if not (Array.for_all agree reads) then begin
      Printf.eprintf "primer locator disagrees with the reference: %s\n" name;
      exit 1
    end;
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

let run_micro () =
  let rng = Dna.Rng.create 123 in
  let entries =
    List.concat_map
      (fun (name, (reference, production)) ->
        let ns_scalar = ns_per_op reference in
        let ns_myers = ns_per_op production in
        Printf.printf "%-42s reference %10.1f ns   myers %8.1f ns   %6.1fx\n" name ns_scalar
          ns_myers (ns_scalar /. ns_myers);
        [
          entry ~ns:ns_scalar ~speedup:1.0 (name ^ "/reference");
          entry ~ns:ns_myers ~speedup:(ns_scalar /. ns_myers) (name ^ "/myers");
        ])
      (micro_cases rng @ primer_cases rng)
  in
  write_json
    (Filename.concat !out_dir "BENCH_micro.json")
    ~config:
      [
        ("read_len", string_of_int read_len);
        ("primer_molecule_nt", string_of_int primer_molecule_nt);
        ("error_rate", string_of_float error_rate);
        ("hardware_domains", string_of_int (Domain.recommended_domain_count ()));
        ("smoke", string_of_bool !smoke);
      ]
    entries

(* Clustering-scale macro benchmark: [n_refs] reference strands at
   [coverage] noisy reads each. The merge test in isolation: [rounds]
   sweeps over every within-cluster sibling pair plus as many unrelated
   pairs, through [levenshtein_leq ~bound] exactly as the clustering
   inner loop calls it (cached Eq masks get reused across a strand's
   comparisons, as they are inside a clustering round), timed against
   the scalar reference on the same pairs. *)
let run_cluster () =
  let n_refs = if !smoke then 6 else 120 in
  let coverage = if !smoke then 3 else 10 in
  let rounds = if !smoke then 1 else 5 in
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
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 in
    for _ = 1 to rounds do
      Array.iter
        (fun (a, b) ->
          match leq ~bound a b with
          | Some d -> acc := !acc + d
          | None -> ())
        pairs
    done;
    (Unix.gettimeofday () -. t0, !acc)
  in
  let s_scalar, chk_scalar = time_leq Kernel_oracle.levenshtein_leq in
  let s_myers, chk_myers = time_leq Dna.Distance.levenshtein_leq in
  if chk_scalar <> chk_myers then begin
    Printf.eprintf "kernel disagrees with the reference in macro leq workload (%d vs %d)\n"
      chk_scalar chk_myers;
    exit 1
  end;
  let leq_speedup = s_scalar /. s_myers in
  Printf.printf "macro leq: %d calls  scalar %.3fs  myers %.3fs  %.1fx\n" n_calls s_scalar
    s_myers leq_speedup;
  ( [
      ("read_len", string_of_int read_len);
      ("error_rate", string_of_float error_rate);
      ("n_refs", string_of_int n_refs);
      ("coverage", string_of_int coverage);
      ("n_reads", string_of_int n_reads);
      ("rounds", string_of_int rounds);
      ("bound", string_of_int bound);
      ("hardware_domains", string_of_int (Domain.recommended_domain_count ()));
      ("smoke", string_of_bool !smoke);
    ],
    [
      entry ~s:s_scalar
        ~ns:(s_scalar *. 1e9 /. float_of_int n_calls)
        ~speedup:1.0 "levenshtein_leq/scalar";
      entry ~s:s_myers
        ~ns:(s_myers *. 1e9 /. float_of_int n_calls)
        ~speedup:leq_speedup "levenshtein_leq/bitparallel";
    ] )

(* ---------- Clustering at scale ----------

   The end-to-end read path the packed representation exists for:
   generate a simulated read set straight to FASTQ, stream it back into
   one packed arena (bounded memory — the read set never exists as
   boxed objects), and cluster it three ways on identical reads:

   - packed: [Cluster.run_scaled] over the pool's views — the flat
     engine and packed signature index the pipeline runs;
   - boxed: [Cluster_oracle.run] — the per-read-boxed engine the packed
     one replaced, same kernels, so the delta is the engine and
     representation;
   - clover: the trie-based streaming baseline, for accuracy context.

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

let channel_alloc () =
  let k = if !smoke then 2_000 else 20_000 in
  let rng = Dna.Rng.create !seed in
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

let run_scale () =
  let n_target =
    if !scale_reads > 0 then !scale_reads else if !smoke then 6_000 else 1_000_000
  in
  let coverage = 8 in
  let n_refs = max 1 (n_target / coverage) in
  let path = Filename.temp_file "dnastore_scale" ".fastq" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let n_written =
    Scale_stream.write_fastq ~path ~seed:!seed ~n_refs ~coverage ~len:read_len ~error_rate
  in
  let s_gen = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let pool, truth = Scale_stream.load_fastq ~path in
  let s_load = Unix.gettimeofday () -. t0 in
  Printf.printf "scale: %d reads generated in %.1fs, streamed back in %.1fs\n" n_written
    s_gen s_load;
  let params = scale_params () in
  let accuracy (r : Clustering.Cluster.result) =
    Clustering.Metrics.accuracy ~truth r.Clustering.Cluster.clusters
  in
  let t0 = Unix.gettimeofday () in
  let packed =
    Clustering.Cluster.run_scaled params
      (Dna.Rng.create (!seed + 101))
      (Dna.Strand_pool.to_array pool)
  in
  let s_packed = Unix.gettimeofday () -. t0 in
  let rss_packed = Scale_stream.peak_rss_mb () in
  let acc_packed = accuracy packed in
  (* The boxed engine and Clover read the same packed bases through
     zero-copy views; only the engines differ. *)
  let views = Dna.Strand_pool.to_array pool in
  let t0 = Unix.gettimeofday () in
  let clover = Clustering.Clover.run views in
  let s_clover = Unix.gettimeofday () -. t0 in
  let acc_clover = accuracy clover in
  let t0 = Unix.gettimeofday () in
  let boxed = Cluster_oracle.run params (Dna.Rng.create (!seed + 101)) views in
  let s_boxed = Unix.gettimeofday () -. t0 in
  let acc_boxed = accuracy boxed in
  Printf.printf
    "scale cluster (%d reads): packed %.2fs acc %.4f | boxed %.2fs acc %.4f (%.1fx) | clover %.2fs acc %.4f\n"
    n_written s_packed acc_packed s_boxed acc_boxed (s_boxed /. s_packed) s_clover
    acc_clover;
  let alloc_boxed, alloc_pooled = channel_alloc () in
  ( [
      ("scale_reads", string_of_int n_written);
      ("scale_coverage", string_of_int coverage);
      ("scale_seed", string_of_int !seed);
      ("scale_rounds", string_of_int params.Clustering.Cluster.rounds);
      ("scale_partition_len", string_of_int params.Clustering.Cluster.partition_len);
    ],
    [
      entry ~s:s_packed
        ~speedup:(s_boxed /. s_packed)
        ~extra:
          [
            ("accuracy", acc_packed);
            ("peak_rss_mb", rss_packed);
            ("n_reads", float_of_int n_written);
          ]
        "cluster_scale/packed";
      entry ~s:s_boxed ~speedup:1.0
        ~extra:[ ("accuracy", acc_boxed); ("n_reads", float_of_int n_written) ]
        "cluster_scale/boxed";
      entry ~s:s_clover
        ~speedup:(s_boxed /. s_clover)
        ~extra:[ ("accuracy", acc_clover); ("n_reads", float_of_int n_written) ]
        "cluster_scale/clover";
      entry ~s:s_load ~speedup:1.0
        ~extra:[ ("n_reads", float_of_int n_written) ]
        "cluster_scale/stream_load";
      entry ~speedup:(alloc_boxed /. Float.max 1e-9 alloc_pooled)
        ~extra:
          [
            ("words_per_read_boxed", alloc_boxed);
            ("words_per_read_pooled", alloc_pooled);
          ]
        "channel_alloc/transmit_into";
    ] )

let () =
  run_micro ();
  let cluster_config, cluster_entries = run_cluster () in
  let scale_config, scale_entries = run_scale () in
  write_json
    (Filename.concat !out_dir "BENCH_cluster.json")
    ~config:(cluster_config @ scale_config)
    (cluster_entries @ scale_entries)
