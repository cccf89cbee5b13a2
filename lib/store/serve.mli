(** A multi-tenant serving front end for the persistent store.

    The scheduler accepts a stream of put/get/overwrite requests from
    many simulated clients, admits them into a bounded queue (rejecting
    with {!Overloaded} once the queue is full), and serves them in
    scheduling windows ("rounds"). Within a round every admitted get is
    answered by one {!Store.get_batch} call against the round-start
    state — so gets that land on the same shard inside the window share
    a single PCR selection and sequencing pass ("read coalescing") —
    and writes then apply in arrival order. All requests in a round are
    concurrently pending, so this order is a valid linearization:
    per-key outcomes always correspond to some sequential execution and
    no acknowledged write is ever lost.

    The scheduler itself is single-threaded and deterministic;
    parallelism lives below it, in the domain-pool fan-out of
    {!Store.get_batch}. *)

type request =
  | Get of { key : string }
  | Put of { key : string; data : Bytes.t }
  | Overwrite of { key : string; data : Bytes.t }

type response =
  | Value of Bytes.t  (** a served get *)
  | Ack  (** a durable write *)
  | Partial of {
      bytes : Bytes.t;
      recovered_fraction : float;
      recovered_ranges : (int * int) list;
    }
      (** a degraded read (only with [config.degraded_reads]): the
          object's shard is damaged or scrub marked it Degraded, and
          these are the surviving bytes — see {!Store.get_partial} for
          the range semantics *)

type error =
  | Overloaded of { queue_depth : int; max_queue : int }
      (** Rejected at admission: the queue was full when the request
          arrived. Nothing was enqueued; the client may retry later. *)
  | Timed_out of { waited_s : float; deadline_s : float }
      (** The request waited in the queue past [config.deadline_s];
          judged at the start of the round that dequeued it, before any
          wetlab work is spent on it. *)
  | Store of Store.error  (** The store failed the admitted request. *)

val error_message : error -> string

type config = {
  window : int;  (** max requests served per round; the coalescing window *)
  max_queue : int;  (** admission bound; beyond it requests get {!Overloaded} *)
  domains : int;  (** worker budget handed to {!Store.get_batch} *)
  use_cache : bool;  (** serve gets through the store's decoded-object LRU *)
  deadline_s : float option;  (** per-request queueing deadline; [None] = never time out *)
  degraded_reads : bool;
      (** answer damaged gets with {!Partial} instead of an error when
          the store can salvage part of the object *)
}

val default_config : config
(** [{ window = 32; max_queue = 256; domains = 1; use_cache = true;
       deadline_s = None; degraded_reads = false }] *)

type completion = {
  ticket : int;  (** admission order, dense from 0 *)
  client : int;
  request : request;
  result : (response, error) result;
  submitted_s : float;  (** {!Dna.Clock.now} at admission *)
  completed_s : float;
      (** {!Dna.Clock.now} when the round serving it finished; only its
          difference from [submitted_s] is meaningful *)
}

type stats = {
  served : int;  (** completions emitted (ok or store error) *)
  rejected : int;  (** admissions refused with {!Overloaded} *)
  rounds : int;  (** scheduling windows run *)
  reads : int;  (** gets among the served *)
  writes : int;  (** puts + overwrites among the served *)
  coalesced_reads : int;
      (** gets answered without a sequencing pass of their own — they
          shared a same-shard pass with another get in the round, were
          duplicates, or hit the decoded-object cache *)
  timed_out : int;  (** requests answered {!Timed_out} at dequeue *)
  degraded : int;  (** gets answered {!Partial} via the degraded-read path *)
}

type t

val create : ?config:config -> Store.t -> t
val store : t -> Store.t
val queue_depth : t -> int

val submit : t -> client:int -> request -> (int, error) result
(** Admit a request, returning its ticket, or reject with
    {!Overloaded} when [max_queue] requests are already waiting. *)

val step : t -> completion list
(** Serve one round: dequeue up to [window] requests, answer the gets
    in one coalesced batch against the round-start state, then apply
    the writes in arrival order. Completions come back in admission
    order. Empty queue: no round runs, [[]]. *)

val drain : t -> completion list
(** Run rounds until the queue is empty. *)

val stats : t -> stats
val render_stats : t -> string

(** A closed-loop YCSB-style workload: [n_clients] clients each keep
    one request in flight, keys drawn zipfian (popular keys hot, tail
    cold), operations drawn read/write by [read_pct]. Rejected requests
    retry under bounded exponential backoff with seeded jitter, so a
    saturated scheduler sheds load instead of spinning. Fixed [seed]
    makes a run reproducible end to end. *)
module Workload : sig
  type mix = {
    label : string;
    read_pct : float;  (** fraction of operations that are gets, in [0,1] *)
  }

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
    rejected : int;  (** admission rejections *)
    retries : int;  (** resubmissions after {!Overloaded}, across all ops *)
    gave_up : int;  (** ops abandoned after 8 consecutive rejections *)
    timed_out : int;
    degraded : int;
    coalesced_reads : int;
    sequencing_passes : int;  (** wetlab passes the whole run cost *)
    cache_hits : int;
    cache_misses : int;
  }

  val zipf_cdf : n:int -> s:float -> float array
  (** Cumulative distribution of a zipf(s) law over ranks [0..n-1]
      (rank 0 most popular). [s = 0.] degrades to uniform. *)

  val zipf_draw : float array -> Dna.Rng.t -> int
  (** Sample a rank by binary search over a {!zipf_cdf}. *)

  val run :
    ?config:config ->
    mix:mix ->
    n_clients:int ->
    n_ops:int ->
    zipf_s:float ->
    seed:int ->
    keys:string list ->
    Store.t ->
    summary * completion list
  (** Drive [n_ops] operations against [keys] (which must already be in
      the store) and summarize. Writes are overwrites of existing keys,
      so the object population is stable across the run. An
      {!Overloaded} rejection backs the operation off a jittered,
      exponentially growing number of scheduler rounds (seeded — the
      schedule replays), and after 8 consecutive
      rejections the operation is dropped and counted in
      [summary.gave_up]. *)

  val summary_json : summary -> Store.Json.t
  val render : summary -> string
end
