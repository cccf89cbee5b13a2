(* Shared plumbing for every bench entry: the one flag set, the one
   timer, the one JSON writer, plus workload sizes, channel
   constructors, cluster/reconstruct runners and printing helpers. Every
   paper experiment prints the same rows/series as the corresponding
   table or figure of the paper; EXPERIMENTS.md records
   paper-vs-measured. *)

(* ---------- Flags ----------

   Parsed once, while this module initializes: the experiment modules
   read [pick] at top level, so the flags are known before they load.
   A malformed or unknown flag prints the usage line and exits 2. *)

let usage = "usage: main.exe [--smoke] [--out-dir DIR] [--seed N] [--scale-reads N] [ENTRY...]"

type flags = {
  smoke : bool;  (* shrink every workload: checks the harness and JSON, not timing *)
  out_dir : string;  (* where BENCH_*.json land *)
  seed : int option;  (* the kernels scale tier's read set; None: its committed seed, 1 *)
  scale_reads : int option;  (* that tier's read count; None: picked by --smoke *)
  names : string list;  (* entries to run, in order; [] runs all *)
}

let flags =
  let bad arg =
    Printf.eprintf "%s (got %S)\n" usage arg;
    exit 2
  in
  let int_value flag ~min v =
    match int_of_string_opt v with Some n when n >= min -> n | _ -> bad (flag ^ " " ^ v)
  in
  let rec parse f = function
    | [] -> { f with names = List.rev f.names }
    | "--smoke" :: rest -> parse { f with smoke = true } rest
    | "--out-dir" :: dir :: rest -> parse { f with out_dir = dir } rest
    | "--seed" :: v :: rest -> parse { f with seed = Some (int_value "--seed" ~min:min_int v) } rest
    | "--scale-reads" :: v :: rest ->
        parse { f with scale_reads = Some (int_value "--scale-reads" ~min:1 v) } rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> bad arg
    | name :: rest -> parse { f with names = name :: f.names } rest
  in
  parse
    { smoke = false; out_dir = "."; seed = None; scale_reads = None; names = [] }
    (List.tl (Array.to_list Sys.argv))

let smoke = flags.smoke
let pick ~fast ~full = if smoke then fast else full

(* A guard violation: one stderr line, exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

(* ---------- Timing ----------

   Every bench timing reads the monotonic clock, never the wall clock. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ns per call of [f], by quadrupling the batch size until one batch
   fills [min_time]. The smoke budget only proves the harness runs. *)
let ns_per_op f =
  let min_time = pick ~fast:0.002 ~full:0.25 in
  ignore (f ());
  let rec calibrate n =
    let (), dt =
      time (fun () ->
          for _ = 1 to n do
            ignore (f ())
          done)
    in
    if dt >= min_time || n >= 1_000_000_000 then dt *. 1e9 /. float_of_int n
    else calibrate (n * 4)
  in
  calibrate 1

(* ---------- JSON ---------- *)

(* A measured float, kept to 6 significant digits. *)
let num x = Store_json.Float (float_of_string (Printf.sprintf "%.6g" x))
let entry name fields = Store_json.Obj (("name", Store_json.String name) :: fields)

(* [file] under --out-dir, which is made when missing. *)
let out_path file =
  if not (Sys.file_exists flags.out_dir) then Sys.mkdir flags.out_dir 0o755;
  Filename.concat flags.out_dir file

let write_json file json =
  let path = out_path file in
  Out_channel.with_open_text path (fun oc -> output_string oc (Store_json.to_string json));
  Printf.printf "wrote %s\n" path

(* The {"config", "entries"} envelope of every BENCH_*.json but the
   scenario cells. Each config opens with the fields needed to read its
   timings: smoke budget, the machine's hardware domains and the clock. *)
let write_bench file ~config entries =
  write_json file
    (Store_json.Obj
       [
         ( "config",
           Store_json.Obj
             ([
                ("smoke", Store_json.Bool smoke);
                ("hardware_domains", Store_json.Int (Domain.recommended_domain_count ()));
                ("clock", Store_json.String "monotonic");
              ]
             @ config) );
         ("entries", Store_json.List entries);
       ])

(* ---------- Experiment helpers ---------- *)

let section = Dnastore.Report.section
let table = Dnastore.Report.table
let profile = Dnastore.Report.ascii_profile

(* Segment-average a profile into [n] buckets for compact table output. *)
let bucketize n (p : float array) =
  let len = Array.length p in
  Array.init n (fun b ->
      let lo = b * len / n and hi = max ((b * len / n) + 1) ((b + 1) * len / n) in
      let s = ref 0.0 in
      for i = lo to hi - 1 do
        s := !s +. p.(i)
      done;
      !s /. float_of_int (hi - lo))

(* The experiments build plain read arrays; [on_pool] copies each into a
   fresh pool and reconstructs over the identity slice. *)
let on_pool = Recon_oracle.on_pool

let reconstruct_of = function
  | `Bma -> on_pool Reconstruction.Bma.reconstruct_pool
  | `Dbma -> on_pool Reconstruction.Bma.reconstruct_double_pool
  | `Nw -> on_pool Reconstruction.Nw_consensus.reconstruct_pool
  | `Ensemble -> on_pool Reconstruction.Ensemble.reconstruct_pool

let recon_name = function
  | `Bma -> "BMA"
  | `Dbma -> "DBMA"
  | `Nw -> "NWA"
  | `Ensemble -> "ENSEMBLE"

(* Reconstruct every cluster of a channel's reads and return the
   (original, consensus) pairs: the common core of Figures 3 and 6. *)
let reconstruct_clusters rng channel ~recon ~n_clusters ~coverage ~len =
  List.init n_clusters (fun _ ->
      let clean = Dna.Strand.random rng len in
      let reads = Array.init coverage (fun _ -> Simulator.Channel.transmit channel rng clean) in
      (clean, recon ~target_len:len reads))

(* The pipeline's clustering stage ([Pipeline.cluster_default]), with
   the whole result kept for the experiments' statistics. *)
let cluster_auto ?(kind = Clustering.Signature.Qgram) rng reads =
  let read_len = Dna.Strand.length reads.(0) in
  let params = Clustering.Cluster.default_params ~kind ~read_len () in
  let config = Clustering.Auto_config.configure params rng reads in
  Clustering.Cluster.run_scaled (Clustering.Auto_config.apply config params) rng reads

let pct = Dnastore.Report.pct
let f3 = Dnastore.Report.f3
let f4 = Dnastore.Report.f4
