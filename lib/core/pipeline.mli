(** The end-to-end pipeline (Section III, Figure 1): five stages wired
    from a file to its recovery, with per-stage latencies (Table III) on
    the monotonic {!Dna.Clock}. The four stages between the codec's two
    ends are the fields of {!stages}; the codec is {!Codec.File_codec},
    chosen through [?params] and [?layout].

    There is one decode spine: every read stays in one
    {!Dna.Strand_pool} arena from the channel to the consensus.
    Clusters are index slices, and reconstruction runs on
    [(pool, index)] views with per-domain scratch. A stage that only
    speaks boxed strand arrays bridges in one line by materializing its
    slice, e.g.
    [fun ~target_len pool idxs -> f ~target_len (Array.map (Dna.Strand_pool.get pool) idxs)].

    There is one read side, too: {!run} and {!random_access} share the
    cluster, sort, reconstruct and decode code, its timers and its
    degradation. Neither raises: crashing stages are caught and
    degraded, and decode failures surface as values ([run]'s [partial]
    record maps what survived). *)

type stages = {
  channel : Simulator.Channel.t;
  sequencing : Simulator.Sequencer.params;
  cluster : Dna.Rng.t -> Dna.Strand_pool.t -> int array list;
      (** arena in, cluster index-slices out *)
  reconstruct : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t;
      (** consensus of one index slice *)
}

type timings = {
  encode_s : float;
  simulate_s : float;
  demux_s : float;  (** primer demultiplexing ({!random_access} only; 0 in [run]) *)
  cluster_s : float;
  reconstruct_s : float;
  reconstruct_p50_s : float;
      (** median per-cluster reconstruction wall time *)
  reconstruct_p95_s : float;
      (** 95th-percentile per-cluster reconstruction wall time: the tail
          a perf change must move, dominated by the largest clusters *)
  decode_s : float;
}

val zero_timings : timings
(** Every field 0. *)

val total_s : timings -> float
(** Sum of the six stage latencies (the percentile fields are
    summaries of [reconstruct_s]'s per-cluster breakdown, not extra
    stages). *)

type outcome = {
  file : Bytes.t option;  (** [None] when decoding failed outright *)
  exact : bool;  (** decoded bytes match the input exactly *)
  partial : Codec.File_codec.partial_recovery;
      (** what survived: per-unit status, recovered fraction and byte
          ranges (all-lost when [file = None]) *)
  stage_failures : (Faults.stage * string) list;
      (** stages that raised and were degraded, oldest first *)
  decode_error : string option;  (** why [file] is [None], when it is *)
  timings : timings;
  n_strands : int;
  n_reads : int;
  n_clusters : int;
  reconstruct_words_per_cluster : float;
      (** mean minor-heap words allocated per reconstructed cluster
          (exact with [domains = 1], an approximation under parallel
          workers); renderable with {!Report.recon_alloc} *)
  decode_stats : Codec.File_codec.decode_stats option;
}

val cluster_default :
  ?kind:Clustering.Signature.kind -> ?domains:int -> unit ->
  Dna.Rng.t -> Dna.Strand_pool.t -> int array list
(** The default clustering stage: thresholds auto-configured from the
    data, then the scaled engine ({!Clustering.Cluster.run_scaled});
    clusters come back as index slices into the arena. *)

val default_stages : ?error_rate:float -> ?coverage:int -> unit -> stages
(** i.i.d. channel at 6%, fixed coverage 10, {!cluster_default} with
    q-grams, and Needleman-Wunsch consensus
    ({!Reconstruction.Nw_consensus.reconstruct_pool}). *)

val percentile : float array -> float -> float
(** [percentile xs q] is the nearest-rank [q]-quantile ([0 < q <= 1]) of
    [xs] (not required to be sorted); 0 when [xs] is empty. Feeds the
    [reconstruct_p50_s]/[reconstruct_p95_s] fields. *)

val sort_cluster_slices : Dna.Strand_pool.t -> int array array -> unit
(** In-place: largest clusters first (their consensus claims the column
    on conflicts), equal sizes tie-broken by their reads (length, then
    lexicographic, compared through their pool views) so the order is
    deterministic however the clustering stage emitted them — e.g.
    across [--domains] settings. The Par pool also starts the big
    clusters first (tail latency). Called once, by the read side that
    [run] and {!random_access} share. *)

val run :
  ?params:Codec.Params.t -> ?layout:Codec.Layout.t -> ?stages:stages -> ?domains:int ->
  ?faults:Faults.plan ->
  ?prepare:(Dna.Rng.t -> Dna.Strand.t array -> Dna.Strand.t array) ->
  Dna.Rng.t -> Bytes.t -> outcome
(** Encode, simulate, cluster, reconstruct (largest clusters first),
    decode. Never raises. [stages] defaults to {!default_stages}.

    Sequencing runs serially into one arena
    ({!Simulator.Sequencer.sequence_pool}, so the read set is the same
    for every [domains]); clustering yields index slices and
    reconstruction runs on them. Parallelism lives in clustering and
    per-cluster reconstruction.

    [prepare] transforms the encoded strand pool between encode and
    sequencing — the hook scenario stacks use for physical pool models
    (aging decay, PCR amplification bias; see {!Simulator.Scenario} and
    {!Scenario_run}). It runs inside the simulate stage (its cost counts
    toward [simulate_s], a raise degrades like a simulate crash) and
    draws from the ambient [rng]. [n_strands] reports the pool size
    {e before} [prepare], i.e. what the codec synthesized.

    [faults] injects the plan's seeded data faults between stages
    (dropout after encode; undersampling, truncation and corruption
    after sequencing; cluster loss after clustering) and its crash/stuck
    faults at stage entry. Degradation on a crashing stage: clustering
    falls back to singleton clusters, reconstruction falls back through
    {!Reconstruction.Ensemble.reconstruct_fallback_pool} (NW -> BMA ->
    majority) per cluster, decode crashes return an all-lost [partial].
    Given equal seeds (pipeline rng and fault plan), the outcome
    replays bit-identically. Read-level faults materialize views,
    inject, and rebuild a fresh arena (committed reads are write-once).

    [domains] (default {!Dna.Par.default_domains}) parallelizes
    per-cluster reconstruction. Under a fixed seed, clustering and
    reconstruction outputs are identical for every worker count.
    [Dna.Par.counters] exposes per-stage parallel timing, renderable
    with {!Report.par_counters}. *)

val replays : outcome -> outcome -> bool
(** [replays a b] holds when [b] reproduces [a]'s recovered bytes and
    partial-recovery map exactly: the seeded-replay contract that a
    rerun with the same seeds (pipeline rng and fault plan) must meet. *)

val random_access :
  domains:int -> stages -> seq_rng:Dna.Rng.t -> cluster_rng:Dna.Rng.t ->
  pair:Codec.Primer.pair -> params:Codec.Params.t -> layout:Codec.Layout.t -> n_units:int ->
  Dna.Strand.t array ->
  (Bytes.t * Codec.File_codec.decode_stats, string) result * timings
(** The primer-addressed random-access read (Section II-F), from one
    file's PCR-selected molecules to its decoded bytes: the one recovery
    behind the persistent store's reads (gets, degraded reads and
    scrub), which pass the store's channel in [stages].

    It sequences the molecules with [stages], each read reversed with
    probability one half as a real run delivers them, drawing from
    [seq_rng]. {!Wetlab_io.ingest_pool} orients the reads and strips
    [pair]'s primers. It then runs {!run}'s read side: clusters (drawing
    from [cluster_rng]), sorts the slices ({!sort_cluster_slices}),
    reconstructs each non-empty slice on [domains] workers and decodes.
    The result is the same for every [domains]; one rng passed as both
    streams draws sequencing first.

    It degrades exactly as {!run} does and never raises: a raising
    cluster stage falls back to singleton clusters, a raising
    reconstruct stage to
    {!Reconstruction.Ensemble.reconstruct_fallback_pool} for that
    cluster, and a decode failure or crash is an [Error] message. The
    timings put demultiplexing in [demux_s], apart from [cluster_s];
    [encode_s] is 0. *)
