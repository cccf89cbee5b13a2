(* Multi-tenant serving front end: bounded admission queue, windowed
   scheduling with read coalescing through [Store.get_batch], writes
   applied in arrival order after the round's reads. See serve.mli for
   the linearizability argument. *)

type request =
  | Get of { key : string }
  | Put of { key : string; data : Bytes.t }
  | Overwrite of { key : string; data : Bytes.t }

type response =
  | Value of Bytes.t
  | Ack
  | Partial of {
      bytes : Bytes.t;
      recovered_fraction : float;
      recovered_ranges : (int * int) list;
    }

type error =
  | Overloaded of { queue_depth : int; max_queue : int }
  | Timed_out of { waited_s : float; deadline_s : float }
  | Store of Store.error

let error_message = function
  | Overloaded { queue_depth; max_queue } ->
      Printf.sprintf "overloaded: %d requests queued (limit %d)" queue_depth max_queue
  | Timed_out { waited_s; deadline_s } ->
      Printf.sprintf "timed out: waited %.3fs past a %.3fs deadline" waited_s deadline_s
  | Store e -> Store.error_message e

type config = {
  window : int;
  max_queue : int;
  domains : int;
  use_cache : bool;
  deadline_s : float option;
  degraded_reads : bool;
}

let default_config =
  {
    window = 32;
    max_queue = 256;
    domains = 1;
    use_cache = true;
    deadline_s = None;
    degraded_reads = false;
  }

type completion = {
  ticket : int;
  client : int;
  request : request;
  result : (response, error) result;
  submitted_s : float;
  completed_s : float;
}

type stats = {
  served : int;
  rejected : int;
  rounds : int;
  reads : int;
  writes : int;
  coalesced_reads : int;
  timed_out : int;
  degraded : int;
}

type pending = { p_ticket : int; p_client : int; p_request : request; p_submitted_s : float }

type t = {
  store : Store.t;
  cfg : config;
  queue : pending Queue.t;
  mutable next_ticket : int;
  mutable st : stats;
}

let create ?(config = default_config) store =
  {
    store;
    cfg = config;
    queue = Queue.create ();
    next_ticket = 0;
    st =
      {
        served = 0;
        rejected = 0;
        rounds = 0;
        reads = 0;
        writes = 0;
        coalesced_reads = 0;
        timed_out = 0;
        degraded = 0;
      };
  }

let store t = t.store
let queue_depth t = Queue.length t.queue

let submit t ~client request =
  let depth = Queue.length t.queue in
  if depth >= t.cfg.max_queue then begin
    t.st <- { t.st with rejected = t.st.rejected + 1 };
    Error (Overloaded { queue_depth = depth; max_queue = t.cfg.max_queue })
  end
  else begin
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    Queue.add
      { p_ticket = ticket; p_client = client; p_request = request; p_submitted_s = Dna.Clock.now () }
      t.queue;
    Ok ticket
  end

let step t : completion list =
  if Queue.is_empty t.queue then []
  else begin
    (* Dequeue the round: up to [window] requests in admission order. *)
    let round = ref [] in
    while (not (Queue.is_empty t.queue)) && List.length !round < t.cfg.window do
      round := Queue.pop t.queue :: !round
    done;
    let round = List.rev !round in
    (* Deadlines are judged once, at round start: a request that has
       already waited past its deadline is answered [Timed_out] and
       costs no wetlab work. *)
    let round_start = Dna.Clock.now () in
    let deadline_verdict p =
      match t.cfg.deadline_s with
      | None -> None
      | Some d ->
          let waited = round_start -. p.p_submitted_s in
          if waited > d then Some (Error (Timed_out { waited_s = waited; deadline_s = d }))
          else None
    in
    let live p = deadline_verdict p = None in
    (* Round reads: one coalesced batch against the round-start state.
       [get_batch] dedupes repeated keys and shares one PCR + sequencing
       pass among same-shard gets, which is the serving layer's whole
       reason to window. *)
    let get_keys =
      List.filter_map
        (fun p -> match p.p_request with Get { key } when live p -> Some key | _ -> None)
        round
    in
    let passes_before = Store.sequencing_passes t.store in
    let answers : (string, (Bytes.t, Store.error) result) Hashtbl.t =
      Hashtbl.create (List.length get_keys)
    in
    if get_keys <> [] then
      List.iter
        (fun (key, r) -> Hashtbl.replace answers key r)
        (Store.get_batch ~domains:t.cfg.domains ~use_cache:t.cfg.use_cache t.store get_keys);
    let passes = Store.sequencing_passes t.store - passes_before in
    (* Degraded reads (opt-in): when the coalesced get comes back with
       shard damage or a scrub-marked Degraded object, answer with the
       surviving bytes instead of failing the request. *)
    let n_degraded = ref 0 in
    let serve_get key =
      match Hashtbl.find_opt answers key with
      | Some (Ok bytes) -> Ok (Value bytes)
      | Some (Error e) ->
          let salvageable =
            match e with
            | Store.Object_degraded _ | Store.Corrupt_shard _ -> true
            | _ -> false
          in
          if t.cfg.degraded_reads && salvageable then
            match Store.get_partial ~use_cache:t.cfg.use_cache t.store ~key with
            | Ok pr ->
                incr n_degraded;
                Ok
                  (Partial
                     {
                       bytes = pr.Store.bytes;
                       recovered_fraction = pr.Store.recovered_fraction;
                       recovered_ranges = pr.Store.recovered_ranges;
                     })
            | Error _ -> Error (Store e)
          else Error (Store e)
      | None -> Error (Store (Store.Corrupt ("round lost the answer for " ^ key)))
    in
    (* Then the round's writes, in arrival order. *)
    let n_timed_out = ref 0 in
    let completions =
      List.map
        (fun p ->
          let result =
            match deadline_verdict p with
            | Some r ->
                incr n_timed_out;
                r
            | None -> (
                match p.p_request with
                | Get { key } -> serve_get key
                | Put { key; data } -> (
                    match Store.put t.store ~key data with
                    | Ok () -> Ok Ack
                    | Error e -> Error (Store e))
                | Overwrite { key; data } -> (
                    match Store.overwrite t.store ~key data with
                    | Ok () -> Ok Ack
                    | Error e -> Error (Store e)))
          in
          {
            ticket = p.p_ticket;
            client = p.p_client;
            request = p.p_request;
            result;
            submitted_s = p.p_submitted_s;
            completed_s = Dna.Clock.now ();
          })
        round
    in
    let reads = List.length get_keys in
    let writes = List.length round - reads - !n_timed_out in
    t.st <-
      {
        t.st with
        served = t.st.served + List.length round;
        rounds = t.st.rounds + 1;
        reads = t.st.reads + reads;
        writes = t.st.writes + writes;
        coalesced_reads = t.st.coalesced_reads + max 0 (reads - passes);
        timed_out = t.st.timed_out + !n_timed_out;
        degraded = t.st.degraded + !n_degraded;
      };
    completions
  end

let drain t =
  let rec go acc = match step t with [] -> List.rev acc | cs -> go (List.rev_append cs acc) in
  go []

let stats t = t.st

let render_stats t =
  let s = t.st in
  Printf.sprintf
    "serve: %d served (%d reads, %d writes) in %d rounds, %d rejected, %d coalesced reads, %d \
     timed out, %d degraded, queue depth %d\n"
    s.served s.reads s.writes s.rounds s.rejected s.coalesced_reads s.timed_out s.degraded
    (Queue.length t.queue)

module Workload = struct
  type mix = { label : string; read_pct : float }

  type summary = {
    label : string;
    ops : int;
    wall_s : float;
    throughput_ops_s : float;
    p50_ms : float;
    p95_ms : float;
    p99_ms : float;
    reads : int;
    writes : int;
    rejected : int;
    retries : int;
    gave_up : int;
    timed_out : int;
    degraded : int;
    coalesced_reads : int;
    sequencing_passes : int;
    cache_hits : int;
    cache_misses : int;
  }

  (* Zipf over ranks 0..n-1: P(rank k) proportional to 1/(k+1)^s,
     precomputed as a CDF so draws are a binary search. *)
  let zipf_cdf ~n ~s =
    let weights = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights

  let zipf_draw cdf rng =
    let u = Dna.Rng.float rng in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Consecutive rejections after which an operation is dropped. *)
  let max_retries = 8

  let run ?(config = default_config) ~mix ~n_clients ~n_ops ~zipf_s ~seed ~keys
      store_t =
    let keys = Array.of_list keys in
    if Array.length keys = 0 then invalid_arg "Serve.Workload.run: no keys";
    let serve = create ~config store_t in
    let rng = Dna.Rng.create seed in
    let cdf = zipf_cdf ~n:(Array.length keys) ~s:zipf_s in
    let next_op i =
      let key = keys.(zipf_draw cdf rng) in
      if Dna.Rng.float rng < mix.read_pct then Get { key }
      else begin
        (* Overwrites keep the population stable; vary the payload so
           lost updates would be visible to the tests. *)
        let n = 64 + Dna.Rng.int rng 64 in
        let data = Bytes.init n (fun j -> Char.chr ((i + j + Dna.Rng.int rng 251) land 0xFF)) in
        Overwrite { key; data }
      end
    in
    let ops = Array.init n_ops next_op in
    let completions = ref [] in
    let submitted = ref 0 in
    let retries = ref 0 in
    let gave_up = ref 0 in
    let t0 = Dna.Clock.now () in
    (* Closed loop: each scheduling turn, every client puts its next
       operation in flight (one apiece), then the scheduler runs a
       round. A rejected submission backs off exponentially — the head
       operation waits a jittered number of scheduler rounds that
       doubles with each consecutive rejection — and is abandoned after
       [max_retries] rejections. The jitter comes from a seeded rng, so
       the whole retry schedule replays with the run. *)
    let backoff_rng = Dna.Rng.create (seed lxor 0x5e12e) in
    let attempts = ref 0 in
    let round_no = ref 0 in
    let retry_at = ref 0 in
    while !submitted < n_ops || queue_depth serve > 0 do
      let burst = ref 0 in
      let stalled = ref false in
      while
        !submitted < n_ops && !burst < n_clients && (not !stalled) && !round_no >= !retry_at
      do
        let client = !submitted mod n_clients in
        match submit serve ~client ops.(!submitted) with
        | Ok _ ->
            incr submitted;
            incr burst;
            attempts := 0
        | Error (Overloaded _) ->
            if !attempts >= max_retries then begin
              (* Budget exhausted: drop the operation rather than spin. *)
              incr gave_up;
              incr submitted;
              attempts := 0
            end
            else begin
              incr retries;
              incr attempts;
              let ceiling = 1 lsl min !attempts 4 in
              retry_at := !round_no + 1 + Dna.Rng.int backoff_rng ceiling;
              stalled := true
            end
        | Error _ -> incr submitted
      done;
      completions := List.rev_append (step serve) !completions;
      incr round_no
    done;
    let completions = List.rev !completions in
    let wall_s = Dna.Clock.now () -. t0 in
    let lat_ms =
      Array.of_list (List.map (fun c -> 1000.0 *. (c.completed_s -. c.submitted_s)) completions)
    in
    Array.sort compare lat_ms;
    let pct q = Dnastore.Pipeline.percentile lat_ms q in
    let st = stats serve in
    let store_stats = Store.stats store_t in
    ( {
        label = mix.label;
        ops = st.served;
        wall_s;
        throughput_ops_s = (if wall_s > 0.0 then float_of_int st.served /. wall_s else 0.0);
        p50_ms = pct 0.50;
        p95_ms = pct 0.95;
        p99_ms = pct 0.99;
        reads = st.reads;
        writes = st.writes;
        rejected = st.rejected;
        retries = !retries;
        gave_up = !gave_up;
        timed_out = st.timed_out;
        degraded = st.degraded;
        coalesced_reads = st.coalesced_reads;
        sequencing_passes = Store.sequencing_passes store_t;
        cache_hits = store_stats.Store.cache_hits;
        cache_misses = store_stats.Store.cache_misses;
      },
      completions )

  let summary_json (s : summary) : Store.Json.t =
    Store.Json.Obj
      [
        ("label", Store.Json.String s.label);
        ("ops", Store.Json.Int s.ops);
        ("wall_s", Store.Json.Float s.wall_s);
        ("throughput_ops_s", Store.Json.Float s.throughput_ops_s);
        ("p50_ms", Store.Json.Float s.p50_ms);
        ("p95_ms", Store.Json.Float s.p95_ms);
        ("p99_ms", Store.Json.Float s.p99_ms);
        ("reads", Store.Json.Int s.reads);
        ("writes", Store.Json.Int s.writes);
        ("rejected", Store.Json.Int s.rejected);
        ("retries", Store.Json.Int s.retries);
        ("gave_up", Store.Json.Int s.gave_up);
        ("timed_out", Store.Json.Int s.timed_out);
        ("degraded", Store.Json.Int s.degraded);
        ("coalesced_reads", Store.Json.Int s.coalesced_reads);
        ("sequencing_passes", Store.Json.Int s.sequencing_passes);
        ("cache_hits", Store.Json.Int s.cache_hits);
        ("cache_misses", Store.Json.Int s.cache_misses);
      ]

  let render (s : summary) =
    Dnastore.Report.latency_summary ~label:s.label ~n:s.ops ~wall_s:s.wall_s ~p50_ms:s.p50_ms
      ~p95_ms:s.p95_ms ~p99_ms:s.p99_ms
    ^ Printf.sprintf "  %d reads (%d coalesced) / %d writes, %d sequencing passes\n" s.reads
        s.coalesced_reads s.writes s.sequencing_passes
    ^ Dnastore.Report.resilience_counters ~rejected:s.rejected ~retries:s.retries
        ~gave_up:s.gave_up ~timed_out:s.timed_out ~degraded:s.degraded
end
