(** Plain-text rendering of experiment results: aligned tables and ASCII
    profiles, used by the benchmark harness to print each of the paper's
    tables and figure series. *)

(* Render rows as a column-aligned table. The first row is the header. *)
let table (rows : string list list) : string =
  match rows with
  | [] -> ""
  | header :: _ ->
      let n_cols = List.length header in
      let widths = Array.make n_cols 0 in
      List.iter
        (fun row ->
          List.iteri (fun i cell -> if i < n_cols then widths.(i) <- max widths.(i) (String.length cell)) row)
        rows;
      let buf = Buffer.create 256 in
      let render_row row =
        List.iteri
          (fun i cell ->
            Buffer.add_string buf cell;
            if i < n_cols - 1 then
              Buffer.add_string buf (String.make (widths.(i) - String.length cell + 2) ' '))
          row;
        Buffer.add_char buf '\n'
      in
      render_row header;
      Buffer.add_string buf (String.make (Array.fold_left ( + ) (2 * (n_cols - 1)) widths) '-');
      Buffer.add_char buf '\n';
      List.iter render_row (List.tl rows);
      Buffer.contents buf

(* An ASCII rendering of a y-series (e.g. a per-index error profile):
   one bar column per bucket of x values. *)
let ascii_profile ?(height = 10) ?(buckets = 55) (ys : float array) : string =
  let n = Array.length ys in
  if n = 0 then ""
  else begin
    let buckets = min buckets n in
    let bucketed =
      Array.init buckets (fun b ->
          let lo = b * n / buckets and hi = max (b * n / buckets + 1) ((b + 1) * n / buckets) in
          let s = ref 0.0 in
          for i = lo to hi - 1 do
            s := !s +. ys.(i)
          done;
          !s /. float_of_int (hi - lo))
    in
    let ymax = Array.fold_left max 1e-9 bucketed in
    let buf = Buffer.create 1024 in
    for level = height downto 1 do
      let threshold = float_of_int level /. float_of_int height *. ymax in
      Buffer.add_string buf (Printf.sprintf "%6.3f |" threshold);
      Array.iter
        (fun y -> Buffer.add_char buf (if y >= threshold -. (ymax /. float_of_int height /. 2.0) then '#' else ' '))
        bucketed;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf ("       +" ^ String.make buckets '-' ^ "\n");
    Buffer.add_string buf (Printf.sprintf "        index 0 .. %d (max y = %.4f)\n" (n - 1) ymax);
    Buffer.contents buf
  end

(* Per-stage counters from the parallel execution layer, one row per
   label: regions entered, tasks run, accumulated wall time. *)
let par_counters (counters : Dna.Par.counter list) : string =
  match counters with
  | [] -> ""
  | _ ->
      table
        ([ "parallel stage"; "regions"; "tasks"; "wall (s)" ]
        :: List.map
             (fun c ->
               [
                 c.Dna.Par.label;
                 string_of_int c.Dna.Par.regions;
                 string_of_int c.Dna.Par.tasks;
                 Printf.sprintf "%.3f" c.Dna.Par.wall_s;
               ])
             counters)

(* One-block rendering of a partial-recovery record: the per-unit
   status line, the recovered fraction, and the surviving byte ranges.
   Used by the CLI's [pipeline] subcommand after a degraded decode. *)
let recovery (p : Codec.File_codec.partial_recovery) : string =
  let buf = Buffer.create 256 in
  let r, d, l = Codec.File_codec.unit_counts p in
  Buffer.add_string buf
    (Printf.sprintf "units: %d recovered, %d degraded, %d lost\n" r d l);
  Buffer.add_string buf
    (Printf.sprintf "recovered fraction: %.4f\n" p.Codec.File_codec.recovered_fraction);
  (match p.Codec.File_codec.recovered_ranges with
  | [] -> Buffer.add_string buf "recovered ranges: none\n"
  | ranges ->
      Buffer.add_string buf "recovered ranges: ";
      Buffer.add_string buf
        (String.concat ", "
           (List.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) ranges));
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* One line of cache accounting, e.g. for the persistent store's LRU of
   decoded objects. *)
let cache_counters ~label ~hits ~misses =
  let total = hits + misses in
  if total = 0 then Printf.sprintf "%s cache: no lookups\n" label
  else
    Printf.sprintf "%s cache: %d hits / %d misses (%.1f%% hit rate)\n" label hits misses
      (100.0 *. float_of_int hits /. float_of_int total)

(* One line of per-cluster reconstruction tail latency, from the
   percentile fields of [Pipeline.timings] (passed as floats so the
   rendering layer does not depend on the pipeline record). *)
let recon_percentiles ~p50_s ~p95_s =
  if p50_s = 0.0 && p95_s = 0.0 then ""
  else
    Printf.sprintf "reconstruct per-cluster: p50 %.2f ms, p95 %.2f ms\n" (1000.0 *. p50_s)
      (1000.0 *. p95_s)

(* Reconstruction allocation accounting: the per-cluster minor-word tax. *)
let recon_alloc ~n_clusters ~words_per_cluster =
  if n_clusters = 0 then ""
  else
    Printf.sprintf "reconstruct alloc: %.0f minor words/cluster over %d clusters\n"
      words_per_cluster n_clusters

(* One line of served-request accounting: throughput plus the latency
   tail, e.g. for the store's serving layer and its YCSB-style bench. *)
let latency_summary ~label ~n ~wall_s ~p50_ms ~p95_ms ~p99_ms =
  let throughput = if wall_s > 0.0 then float_of_int n /. wall_s else 0.0 in
  Printf.sprintf "%s: %d ops in %.2f s (%.1f ops/s), latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n"
    label n wall_s throughput p50_ms p95_ms p99_ms

(* A scrub pass in two lines: what the shard sweep found, what object
   recovery did about it. *)
let scrub_summary ~shards_checked ~shards_corrupt ~shards_quarantined ~shards_dropped
    ~objects_checked ~objects_repaired ~objects_degraded ~objects_lost ~checksums_backfilled =
  Printf.sprintf
    "scrub: %d shards checked, %d corrupt (%d quarantined, %d dropped)\n\
    \       %d objects checked: %d repaired, %d degraded, %d lost, %d checksums backfilled\n"
    shards_checked shards_corrupt shards_quarantined shards_dropped objects_checked
    objects_repaired objects_degraded objects_lost checksums_backfilled

(* One line of serving-layer resilience accounting: how much load was
   shed, retried, abandoned, or answered late/partially. Empty when
   nothing noteworthy happened, so happy-path reports stay clean. *)
let resilience_counters ~rejected ~retries ~gave_up ~timed_out ~degraded =
  if rejected = 0 && retries = 0 && gave_up = 0 && timed_out = 0 && degraded = 0 then ""
  else
    Printf.sprintf
      "resilience: %d rejected, %d retries (%d gave up), %d timed out, %d degraded reads\n"
      rejected retries gave_up timed_out degraded

(* One line of store-maintenance hygiene: unlinks compact could not
   complete (files left behind for the next pass) and the temp/orphan
   debris reclaimed when the store was opened. Empty when clean. *)
let maintenance_counters ~unlink_failures ~orphans_reclaimed =
  if unlink_failures = 0 && orphans_reclaimed = 0 then ""
  else
    Printf.sprintf "maintenance: %d failed unlinks left behind, %d orphan files reclaimed\n"
      unlink_failures orphans_reclaimed

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
let f3 x = Printf.sprintf "%.3f" x
let f4 x = Printf.sprintf "%.4f" x

let section title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.sprintf "\n%s\n= %s =\n%s\n" bar title bar

(* One scenario-sweep cell per row: recovery against the floor, the
   units it decoded, whether it replayed and which stages degraded, plus
   the configured-vs-realized channel error rate, so a drifting channel
   model is visible next to the recovery number it explains. The
   realized rate counts substitutions and deletions per source base, not
   insertions ([Simulator.Channel.measure_error_profile]), so it reads
   below the configured rate of a channel that inserts (iid 6% reads
   about 4%). *)
let scenario_summary (outcomes : Scenario_run.outcome list) =
  let header =
    [ "scenario"; "fault"; "seed"; "recovered"; "floor"; "units R/D/L"; "replay";
      "degraded stages"; "configured"; "realized"; "wall"; "status" ]
  in
  let rows =
    List.map
      (fun (o : Scenario_run.outcome) ->
        let r, d, l = o.units in
        [
          o.scenario;
          o.fault;
          string_of_int o.seed;
          pct o.recovered_fraction;
          (match o.floor with None -> "-" | Some f -> pct f);
          Printf.sprintf "%d/%d/%d" r d l;
          (if o.replayed then "ok" else "DIVERGED");
          (match o.degraded with [] -> "-" | ss -> String.concat ";" ss);
          pct o.configured_error_rate;
          pct o.realized_error_rate;
          Printf.sprintf "%.2fs" o.wall_s;
          (if not o.floor_met then "FLOOR" else if not o.replayed then "REPLAY" else "ok");
        ])
      outcomes
  in
  let n_fail = List.length (Scenario_run.failures outcomes) in
  let verdict =
    if outcomes = [] then "no scenario cells ran\n"
    else if n_fail = 0 then
      Printf.sprintf "all %d cells at or above their floors, all replayed\n" (List.length outcomes)
    else Printf.sprintf "%d of %d cells FAILED\n" n_fail (List.length outcomes)
  in
  table (header :: rows) ^ verdict

(* Why a cell is in [Scenario_run.failures]: below its floor, diverged
   on replay, or both. *)
let scenario_failure (o : Scenario_run.outcome) =
  Printf.sprintf "%s/%s seed %d:%s%s" o.scenario o.fault o.seed
    (if o.floor_met then ""
     else
       Printf.sprintf " recovered %.4f below floor %.2f" o.recovered_fraction
         (Option.value o.floor ~default:0.0))
    (if o.replayed then "" else " replay diverged")
