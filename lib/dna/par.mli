(** Domain-based parallel execution for the clustering and
    reconstruction stages, and the single configuration point for the
    toolkit's parallelism.

    Guarantees, for every entry point:

    - chunk assignment is balanced and never produces an empty range,
      so ragged shapes (e.g. 5 items across 4 domains) are safe;
    - results are order-preserving and — for pure task functions —
      identical for every worker count;
    - execution runs on a pool of long-lived worker domains, spawned
      once and reused across regions (per-domain scratch arenas and
      caches survive), never more of them than the hardware can run;
      the submitting domain executes chunks too, and a region entered
      from inside a task runs serially, so nested parallelism cannot
      oversubscribe the machine;
    - a failing chunk never orphans its siblings: every chunk of a
      region still runs before the first failure (in submission order)
      is re-raised;
    - with [domains = 1] execution degrades to the plain serial loop,
      bit-identical to not using this module at all.

    Task functions run on separate domains when [domains > 1]; they must
    not share unsynchronized mutable state. A stochastic task needs its
    own stream, split off serially before the region ({!Rng.split}),
    for its output to be independent of the worker count. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1: a sensible
    worker count that leaves one core for the coordinating domain. *)

val set_default_domains : int -> unit
(** Set the process-wide worker count used when [?domains] is omitted
    (clamped to at least 1). The initial default is 1 — serial — so
    parallelism is always opted into; pass
    [set_default_domains (recommended_domains ())] to use all cores. *)

val default_domains : unit -> int
(** The current process-wide default worker count. *)

val pool_size : unit -> int
(** Worker domains currently alive in the pool. 0 until the first
    region wide enough to need one (and always 0 on a single-core
    machine, where every region runs on the submitting domain). *)

val shutdown_pool : unit -> unit
(** Stop and join every pool worker. Idempotent; registered with
    [at_exit] automatically on first spawn, so programs never need to
    call it — tests use it to prove the pool restarts cleanly. A later
    parallel region simply respawns workers. *)

val map_array : ?label:string -> ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map. *)

val mapi_array : ?label:string -> ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map_array] with the element index. *)

val iter_array : ?label:string -> ?domains:int -> ('a -> unit) -> 'a array -> unit
(** Apply an effectful function to every element; the function must be
    safe to call from multiple domains. *)

val chunked_map : ?label:string -> ?domains:int -> ('a array -> 'b) -> 'a array -> 'b array
(** Apply [f] once per worker to that worker's contiguous chunk,
    returning per-chunk results in order. The result has
    [min domains (Array.length arr)] elements (0 for an empty input);
    chunks concatenated in order reconstitute the input. Useful when
    per-task dispatch would dominate, e.g. tight numeric loops. *)

val map_reduce :
  ?label:string ->
  ?domains:int ->
  map:('a -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  init:'b ->
  'a array ->
  'b
(** Map every element and fold the results. Within a chunk the fold is
    left-to-right, and chunk results are folded left-to-right onto
    [init]; when [combine] is associative the result is identical for
    every worker count. *)

(** {1 Instrumentation}

    Every parallel region (including the serial [domains = 1] path)
    accumulates lightweight counters under its [?label]:
    regions entered, tasks run, and wall-clock seconds. The benchmark
    harness renders them with [Core.Report.par_counters]. *)

type counter = { label : string; regions : int; tasks : int; wall_s : float }

val counters : unit -> counter list
(** A snapshot of all counters, sorted by label. *)

val reset_counters : unit -> unit
