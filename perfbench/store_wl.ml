(* The [serve-read] and [ingest] workloads: a closed loop of clients,
   each with one request outstanding, against [Serve] over a populated
   [Store].

   - serve-read: 95% Get / 5% Overwrite, zipf keys over the initial
     objects, on one store for the whole run. The working set is 16x
     the decoded-object cache, so cache hits, coalescing and the cold
     wetlab read path all show.
   - ingest: 80% Put of fresh keys / 20% Overwrite of zipf keys, no
     gets: the write path (encode, shard rewrite, manifest rewrite, dead
     strands). It runs in episodes of a fixed number of writes, each on
     a freshly populated store, so the store grows by the same amount
     in every episode however fast the machine is.

   The loop never sleeps. When a round ends, every client it answered
   sends its next request at once and the next round starts. A loop
   that idles between requests measures how the host treats an
   intermittently busy process as much as the program: CPU time per op
   then moves with the host's load. Latency runs from a request's
   submission to the end of the step that answered it. *)

type kind = Serve_read | Ingest

type spec = {
  clients_per_domain : int;  (** clients = this x Par domains *)
  episode_ops : int option;  (** ingest: requests per episode; None: one store, the whole run *)
  get_frac : float;  (** serve-read: gets; ingest: 0 *)
  put_frac : float;  (** ingest: puts of fresh keys; serve-read: 0 *)
  n_objects : int;  (** objects populated in set-up *)
  object_bytes : int;
  zipf_s : float;
  store_config : Store.config;
}

let spec kind ~smoke =
  let store_config =
    {
      Store.shard_target_strands = 128;
      cache_objects = (if smoke then 4 else 16);
      error_rate = 0.06;
      coverage = 10;
    }
  in
  let base =
    {
      clients_per_domain = 2;
      episode_ops = None;
      get_frac = 0.95;
      put_frac = 0.0;
      n_objects = (if smoke then 12 else 256);
      object_bytes = (if smoke then 64 else 256);
      zipf_s = 0.99;
      store_config;
    }
  in
  match kind with
  | Serve_read -> base
  | Ingest ->
      { base with episode_ops = Some (if smoke then 24 else 400); get_frac = 0.0; put_frac = 0.8 }

let key_of i = Printf.sprintf "obj%04d" i

type inputs = {
  initial : (string * Bytes.t) array;
  next : unit -> Serve.request;  (** the seeded request stream *)
  hottest : string;  (** the key zipf draws most often *)
}

(* Uniforms on [0, 1) in shuffled blocks: each block of [block] holds one
   draw from each of [block] equal strata. Every stretch of the stream
   then follows the target distribution closely, so two seeds differ in
   which keys come when, not in how often the hot keys come or how many
   requests are writes. *)
let stratified rng ~block =
  let buf = Array.make block 0.0 and pos = ref block in
  fun () ->
    if !pos = block then begin
      Array.iteri (fun i _ -> buf.(i) <- (float_of_int i +. Dna.Rng.float rng) /. float_of_int block) buf;
      Dna.Rng.shuffle_in_place rng buf;
      pos := 0
    end;
    incr pos;
    buf.(!pos - 1)

(* The smallest index whose cumulative probability reaches [u]. *)
let inverse_cdf cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Everything the run sends, from the seed: the initial objects and one
   stream of requests. The same seed gives the same stream; how many of
   it a run sends depends on how fast the machine serves them. *)
let make_inputs spec ~seed =
  let rng = Dna.Rng.create ((seed * 7919) + 17) in
  let payload () = Bytes.init spec.object_bytes (fun _ -> Char.chr (Dna.Rng.int rng 256)) in
  let initial = Array.init spec.n_objects (fun i -> (key_of i, payload ())) in
  (* Which object is hot is itself drawn from the seed. *)
  let by_rank = Array.init spec.n_objects Fun.id in
  Dna.Rng.shuffle_in_place rng by_rank;
  let cdf = Serve.Workload.zipf_cdf ~n:spec.n_objects ~s:spec.zipf_s in
  let key_u = stratified (Dna.Rng.split rng) ~block:64 in
  let kind_u = stratified (Dna.Rng.split rng) ~block:20 in
  let zipf_key () = fst initial.(by_rank.(inverse_cdf cdf (key_u ()))) in
  let fresh = ref 0 in
  let next () =
    let u = kind_u () in
    if u < spec.get_frac then Serve.Get { key = zipf_key () }
    else if u < spec.get_frac +. spec.put_frac then begin
      incr fresh;
      Serve.Put { key = Printf.sprintf "new%06d" !fresh; data = payload () }
    end
    else Serve.Overwrite { key = zipf_key (); data = payload () }
  in
  { initial; next; hottest = fst initial.(by_rank.(0)) }

(* ---- correctness oracle ---- *)

(* The last acknowledged bytes per key, applied in [Serve]'s order: a
   round's gets are checked against the round-start state, then its
   acknowledged writes apply in admission order. Returns how many of
   the round's requests failed: a wrong or missing get value, or any
   error response. *)
let check_round model (round : Serve.completion list) =
  let bad = ref 0 in
  List.iter
    (fun (c : Serve.completion) ->
      match (c.request, c.result) with
      | Serve.Get { key }, Ok (Serve.Value got) -> (
          match Hashtbl.find_opt model key with
          | Some want when Bytes.equal got want -> ()
          | _ -> incr bad)
      | Serve.Get _, _ -> incr bad
      | _ -> ())
    round;
  List.iter
    (fun (c : Serve.completion) ->
      match (c.request, c.result) with
      | (Serve.Put { key; data } | Serve.Overwrite { key; data }), Ok Serve.Ack ->
          Hashtbl.replace model key data
      | (Serve.Put _ | Serve.Overwrite _), _ -> incr bad
      | Serve.Get _, _ -> ())
    round;
  !bad

(* ---- set-up ---- *)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Store.error_message e))

(* Create a store in [dir] and put every initial object. The returned
   handle keeps its shard pools resident; its decoded-object cache is
   empty. *)
let populate spec ~(args : Outcome.args) ~dir initial =
  let store = ok_or_fail "init" (Store.init ~config:spec.store_config ~dir ~seed:args.seed ()) in
  Array.iter (fun (key, data) -> ok_or_fail ("put " ^ key) (Store.put store ~key data)) initial;
  store

(* Generate the inputs, populate a store and, when the workload reads,
   warm the Par pool, [repeats] times. Returns the last store, its inputs
   and the CPU seconds of every set-up.

   Only gets use the Par pool. Ingest leaves it unspawned until its
   read-back: a worker domain that would sit idle through the whole
   timed phase still takes part in every minor collection, through a
   thread that must be woken, and on a host that steals CPU time the
   collecting domain waits for it. *)
let setup spec ~(args : Outcome.args) ~repeats =
  let times = Array.make repeats 0.0 in
  let kept = ref None in
  for r = 0 to repeats - 1 do
    let dir = Filename.concat args.work_dir (Printf.sprintf "store%d" r) in
    let s, dt =
      Clock.cpu_time (fun () ->
          let inputs = make_inputs spec ~seed:args.seed in
          let store = populate spec ~args ~dir inputs.initial in
          if spec.get_frac > 0.0 then
            ignore (Dna.Par.map_array ~domains:args.domains succ (Array.init 64 Fun.id));
          (store, inputs))
    in
    times.(r) <- dt;
    if r < repeats - 1 then Sysinfo.rm_rf dir else kept := Some (s, dir)
  done;
  let (store, inputs), dir = Option.get !kept in
  (store, inputs, dir, Array.to_list times)

(* ---- the closed loop ---- *)

(* What the metrics need of a request; its payload is not kept, so the
   memory a run holds does not grow with the number of requests. *)
type op_rec = {
  written : string option;  (** the key of a put or overwrite; None for a get *)
  submitted : float;
  mutable served_at : float;  (** start of the step that answered it; -1 if never *)
  mutable done_at : float;
}

type step_rec = {
  s_start : float;
  s_stop : float;
  s_writes : int;
  s_hits : int;  (** cache hits during the step (traced only) *)
  s_misses : int;
  s_passes : int;  (** sequencing passes during the step (traced only) *)
}

type loop = {
  ops : op_rec array;  (** in submission order *)
  failed : int;
  steps : step_rec array;  (** chronological *)
  wall_s : float;
  bookkeeping_s : float;  (** time the traced run spent reading counters *)
  io0 : Sysinfo.io;
  io1 : Sysinfo.io;
  cpu_s : float;
}

(* Run [clients] clients until [more n] refuses the (n+1)-th request,
   then drain. Times are seconds on the monotonic clock from [t0]. *)
let run_loop ~(args : Outcome.args) ~clients ~serve ~model ~next ~more ~t0 =
  let store = Serve.store serve in
  let ops = ref [] and sent = ref 0 in
  let by_ticket = Hashtbl.create 64 in
  let failed = ref 0 and steps = ref [] and bookkeeping = ref 0.0 in
  let counters () =
    if args.traced then begin
      let t = Clock.now () in
      let st = Store.stats store in
      let c = (st.Store.cache_hits, st.Store.cache_misses, Store.sequencing_passes store) in
      bookkeeping := !bookkeeping +. (Clock.now () -. t);
      c
    end
    else (0, 0, 0)
  in
  let now () = Clock.now () -. t0 in
  let send client =
    if more !sent then begin
      let req = next () in
      incr sent;
      let submitted = now () in
      match Serve.submit serve ~client req with
      | Ok ticket ->
          let written =
            match req with Serve.Put { key; _ } | Serve.Overwrite { key; _ } -> Some key | Serve.Get _ -> None
          in
          let o = { written; submitted; served_at = -1.0; done_at = -1.0 } in
          Hashtbl.replace by_ticket ticket o;
          ops := o :: !ops
      | Error _ -> incr failed
    end
  in
  let io0 = Sysinfo.io () in
  let cpu0 = Clock.cpu () in
  let w0 = now () in
  for c = 0 to clients - 1 do
    send c
  done;
  while Serve.queue_depth serve > 0 do
    let h0, m0, p0 = counters () in
    let s_start = now () in
    let round = Serve.step serve in
    let s_stop = now () in
    let h1, m1, p1 = counters () in
    failed := !failed + check_round model round;
    let writes = ref 0 in
    List.iter
      (fun (c : Serve.completion) ->
        let o = Hashtbl.find by_ticket c.ticket in
        Hashtbl.remove by_ticket c.ticket;
        o.served_at <- s_start;
        o.done_at <- s_stop;
        match c.request with Serve.Get _ -> () | _ -> incr writes)
      round;
    steps :=
      {
        s_start;
        s_stop;
        s_writes = !writes;
        s_hits = h1 - h0;
        s_misses = m1 - m0;
        s_passes = p1 - p0;
      }
      :: !steps;
    List.iter (fun (c : Serve.completion) -> send c.client) round
  done;
  let wall_s = now () -. w0 in
  let cpu_s = Clock.cpu () -. cpu0 in
  {
    ops = Array.of_list (List.rev !ops);
    failed = !failed;
    steps = Array.of_list (List.rev !steps);
    wall_s;
    bookkeeping_s = !bookkeeping;
    io0;
    io1 = Sysinfo.io ();
    cpu_s;
  }

(* One store's share of the run: its directory, loop and scheduler
   counters. It holds neither the store handle nor the oracle's model,
   so a finished episode's shard pools and payloads can be freed. *)
type episode = { dir : string; loop : loop; sv : Serve.stats }

(* ---- read-back ---- *)

(* The [k] most recently written distinct keys. *)
let last_written (ops : op_rec array) ~k =
  let keys = ref [] in
  for i = Array.length ops - 1 downto 0 do
    match ops.(i).written with
    | Some key -> if List.length !keys < k && not (List.mem key !keys) then keys := key :: !keys
    | None -> ()
  done;
  !keys

(* Cold reads of [keys], checked against the model; returns failures. *)
let verify ~(args : Outcome.args) store model keys =
  if keys = [] then 0
  else
    List.fold_left
      (fun bad (key, r) ->
        match (r, Hashtbl.find_opt model key) with
        | Ok got, Some want when Bytes.equal got want -> bad
        | _ -> bad + 1)
      0
      (Store.get_batch ~domains:args.domains ~use_cache:false store keys)

(* ---- metrics ---- *)

let is_get (o : op_rec) = o.written = None

(* [f o] in ms for every answered op that [keep] selects. *)
let per_op_ms ops keep f =
  Array.to_list ops
  |> List.filter_map (fun o -> if keep o && o.done_at >= 0.0 then Some (1000.0 *. f o) else None)
  |> Array.of_list

let latencies_ms ops keep = per_op_ms ops keep (fun o -> o.done_at -. o.submitted)
let live_user_bytes model = Hashtbl.fold (fun _ v acc -> acc + Bytes.length v) model 0
let manifest_file = "MANIFEST.json"

(* Mean per-write step time over the last tenth of [steps]' write rounds
   ÷ over the first tenth: how writes slow as the store grows. *)
let write_growth step_ms (per_write : step_rec array) =
  let per_write = Array.map (fun s -> step_ms s /. float_of_int s.s_writes) per_write in
  let k = Array.length per_write / 10 in
  if k = 0 then 0.0
  else
    Stats.ratio
      (Stats.mean (Array.sub per_write (Array.length per_write - k) k))
      (Stats.mean (Array.sub per_write 0 k))

let config spec ~clients ~(args : Outcome.args) =
  let c = spec.store_config in
  [
    ("loop", Json.str "closed");
    ("clients", Json.int clients);
    ("episode_ops", match spec.episode_ops with Some k -> Json.int k | None -> Json.str "whole run");
    ("get_frac", Json.num spec.get_frac);
    ("put_frac", Json.num spec.put_frac);
    ("overwrite_frac", Json.num (1.0 -. spec.get_frac -. spec.put_frac));
    ("objects", Json.int spec.n_objects);
    ("object_bytes", Json.int spec.object_bytes);
    ("zipf_s", Json.num spec.zipf_s);
    ("shard_target_strands", Json.int c.Store.shard_target_strands);
    ("cache_objects", Json.int c.Store.cache_objects);
    ("error_rate", Json.num c.Store.error_rate);
    ("coverage", Json.int c.Store.coverage);
    ("serve_window", Json.int Serve.default_config.window);
    ("serve_max_queue", Json.int Serve.default_config.max_queue);
    ("serve_domains", Json.int args.domains);
  ]

let run kind (args : Outcome.args) : Outcome.t =
  let spec = spec kind ~smoke:args.smoke in
  let clients = spec.clients_per_domain * args.domains in
  let store, inputs, dir, setup_times = setup spec ~args ~repeats:(if args.smoke then 1 else 8) in
  let setup_times = ref setup_times in
  let t0 = Clock.now () in
  let deadline = args.seconds in
  let more =
    match spec.episode_ops with
    | None -> fun _ -> Clock.now () -. t0 < deadline
    | Some k -> fun sent -> sent < k
  in
  let episode dir store =
    let model = Hashtbl.create (Array.length inputs.initial * 2) in
    Array.iter (fun (k, v) -> Hashtbl.replace model k v) inputs.initial;
    (* Self-test only: the hottest key's expected value is wrong, so its
       gets must come back as failures. *)
    if args.tamper && spec.get_frac > 0.0 then Hashtbl.replace model inputs.hottest (Bytes.make 1 '?');
    let serve = Serve.create ~config:{ Serve.default_config with domains = args.domains } store in
    Gc.full_major ();
    let loop = run_loop ~args ~clients ~serve ~model ~next:inputs.next ~more ~t0 in
    ({ dir; loop; sv = Serve.stats serve }, model)
  in
  (* Ingest starts episode after episode, each on a freshly populated
     store, while the run has time left; the last one runs to its end.
     Returns the episodes and the last one's store and model. *)
  let rec episodes acc store model =
    match (spec.episode_ops, acc) with
    | Some _, prev :: _ when Clock.now () -. t0 < deadline ->
        Sysinfo.rm_rf prev.dir;
        let dir = Filename.concat args.work_dir (Printf.sprintf "episode%d" (List.length acc)) in
        let store, dt = Clock.cpu_time (fun () -> populate spec ~args ~dir inputs.initial) in
        setup_times := dt :: !setup_times;
        let e, model = episode dir store in
        episodes (e :: acc) store model
    | _ -> (Array.of_list (List.rev acc), store, model)
  in
  let first, model = episode dir store in
  let eps, last_store, last_model = episodes [ first ] store model in
  let last = eps.(Array.length eps - 1) in
  (* Ingest serves no gets, so after the timed phase the last written
     keys of the last episode are read back cold and checked against the
     oracle's model. *)
  let readback =
    match kind with Serve_read -> [] | Ingest -> last_written last.loop.ops ~k:(if args.smoke then 2 else 6)
  in
  if args.tamper then List.iter (fun key -> Hashtbl.replace last_model key (Bytes.make 1 '?')) readback;
  let readback_failed = verify ~args last_store last_model readback in
  let ops = Array.concat (Array.to_list (Array.map (fun e -> e.loop.ops) eps)) in
  let steps = Array.concat (Array.to_list (Array.map (fun e -> e.loop.steps) eps)) in
  let sum_eps f = Array.fold_left (fun a e -> a +. f e) 0.0 eps in
  let n = Array.length ops in
  let failed = Array.fold_left (fun a e -> a + e.loop.failed) readback_failed eps in
  let attempted = n + List.length readback in
  let gets = latencies_ms ops is_get and writes = latencies_ms ops (fun o -> not (is_get o)) in
  let st = Store.stats last_store in
  let user_bytes = float_of_int (live_user_bytes last_model) in
  let disk_ratio = Stats.ratio (float_of_int (Sysinfo.dir_bytes last.dir)) user_bytes in
  let wall_s = sum_eps (fun e -> e.loop.wall_s) in
  let p q xs = Stats.quantile xs q in
  let report =
    (match kind with
    | Serve_read ->
        [
          ("get_p50_ms", p 0.5 gets);
          ("get_p90_ms", p 0.9 gets);
          ("get_p99_ms", p 0.99 gets);
          ("gets", float_of_int (Array.length gets));
        ]
    | Ingest ->
        [
          ("write_p50_ms", p 0.5 writes);
          ("write_p90_ms", p 0.9 writes);
          ("write_p99_ms", p 0.99 writes);
          ("writes", float_of_int (Array.length writes));
          ("episodes", float_of_int (Array.length eps));
          ("disk_bytes_per_user_byte", disk_ratio);
        ])
    @ [
        ("failed_frac", Stats.ratio (float_of_int failed) (float_of_int attempted));
        ("clients", float_of_int clients);
        ("achieved_ops_per_s", Stats.ratio (float_of_int n) wall_s);
        ("objects_at_end", float_of_int st.Store.n_objects);
      ]
  in
  let step_ms s = 1000.0 *. (s.s_stop -. s.s_start) in
  let metrics =
    if not args.traced then
      [
        ("setup_s", Stats.median (Array.of_list !setup_times));
        (* Per episode, then the median: one episode that met a noisy
           moment of the host does not move it. *)
        ( "cpu_ms_per_op",
          Stats.median
            (Array.map
               (fun e -> 1000.0 *. Stats.ratio e.loop.cpu_s (float_of_int (Array.length e.loop.ops)))
               eps) );
        ("peak_rss_mb", Sysinfo.peak_rss_mb ());
      ]
    else begin
      let tr = Trace.create () in
      Array.iteri
        (fun i o ->
          if o.done_at >= 0.0 then begin
            let name = if is_get o then "request.get" else "request.write" in
            let parent = Trace.add tr ~rid:i name ~start_s:o.submitted ~stop_s:o.done_at in
            ignore (Trace.add tr ~parent ~rid:i "serve.queue_wait" ~start_s:o.submitted ~stop_s:o.served_at);
            ignore (Trace.add tr ~parent ~rid:i "serve.step" ~start_s:o.served_at ~stop_s:o.done_at)
          end)
        ops;
      Trace.write_chrome tr args.trace_out;
      let waits = per_op_ms ops (fun _ -> true) (fun o -> o.served_at -. o.submitted) in
      let sumf f xs = Array.fold_left (fun a s -> a +. f s) 0.0 xs in
      let sumi f xs = float_of_int (Array.fold_left (fun a s -> a + f s) 0 xs) in
      let miss_steps = Array.of_list (List.filter (fun s -> s.s_misses > 0) (Array.to_list steps)) in
      (* Rounds with writes and no cold read, per episode. *)
      let write_steps_of (e : episode) =
        Array.of_list (List.filter (fun s -> s.s_writes > 0 && s.s_misses = 0) (Array.to_list e.loop.steps))
      in
      let write_steps = Array.concat (Array.to_list (Array.map write_steps_of eps)) in
      let sv = Array.map (fun e -> e.sv) eps in
      let sum_sv f = Array.fold_left (fun a s -> a +. float_of_int (f s)) 0.0 sv in
      let n_writes = sumi (fun s -> s.s_writes) steps in
      let hits = sumi (fun s -> s.s_hits) steps and misses = sumi (fun s -> s.s_misses) steps in
      let io f = sum_eps (fun e -> float_of_int (f e.loop.io1 - f e.loop.io0)) in
      [
        ("serve.queue_wait_p50_ms", p 0.5 waits);
        ("serve.queue_wait_p99_ms", p 0.99 waits);
        ("serve.step_p50_ms", p 0.5 (Array.map step_ms steps));
        ("serve.step_p99_ms", p 0.99 (Array.map step_ms steps));
        ( "serve.requests_per_round",
          Stats.ratio (sum_sv (fun s -> s.Serve.served)) (sum_sv (fun s -> s.Serve.rounds)) );
        ( "serve.coalesced_frac",
          Stats.ratio (sum_sv (fun s -> s.Serve.coalesced_reads)) (sum_sv (fun s -> s.Serve.reads)) );
        ("serve.rejected", sum_sv (fun s -> s.Serve.rejected));
        ("store.cache_hit_frac", Stats.ratio hits (hits +. misses));
        ("store.passes_per_miss", Stats.ratio (sumi (fun s -> s.s_passes) steps) misses);
        ("store.miss_step_ms", Stats.ratio (sumf step_ms miss_steps) misses);
        ( "store.write_step_ms",
          Stats.ratio (sumf step_ms write_steps) (sumi (fun s -> s.s_writes) write_steps) );
        ( "store.write_ms_growth",
          Stats.median (Array.map (fun e -> write_growth step_ms (write_steps_of e)) eps) );
        ( "store.wchar_per_user_byte",
          Stats.ratio (io (fun i -> i.Sysinfo.wchar)) (n_writes *. float_of_int spec.object_bytes) );
        ("store.write_syscalls_per_write", Stats.ratio (io (fun i -> i.Sysinfo.syscw)) n_writes);
        ("store.manifest_bytes", float_of_int (Sysinfo.file_size (Filename.concat last.dir manifest_file)));
        ( "store.dead_strand_frac",
          Stats.ratio (float_of_int st.Store.dead_strands) (float_of_int st.Store.n_strands) );
        ("store.shards", float_of_int st.Store.n_shards);
        ("store.disk_bytes_per_user_byte", disk_ratio);
        ( "loadgen.self_ms_per_op",
          1000.0 *. Stats.ratio (wall_s -. sumf (fun s -> s.s_stop -. s.s_start) steps) (float_of_int n) );
        ("trace.overhead_ms", 1000.0 *. Stats.ratio (sum_eps (fun e -> e.loop.bookkeeping_s)) (float_of_int n));
      ]
    end
  in
  {
    attempted;
    failed;
    metrics;
    report;
    config = (config spec ~clients ~args @ if args.traced then [ ("trace_file", Json.str args.trace_out) ] else []);
  }
