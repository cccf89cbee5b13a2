(** A persistent, sharded, rewritable DNA object store.

    On disk a store is a directory: a crash-safe JSON manifest
    checkpoint ([MANIFEST.json], always written temp-then-rename), an
    append-only journal of the puts, overwrites and deletes since it
    ([MANIFEST.journal], one length- and CRC-framed delta per write, so
    a write's manifest cost does not grow with the store), plus
    per-shard oligo pools serialized as FASTA under [shards/]. The
    journal is folded into a fresh checkpoint once it outgrows the
    checkpoint; [compact], [scrub] and [init] write checkpoints
    directly. Objects
    are addressed by primer pairs; [overwrite] and [delete] retire pairs
    without touching molecules, and {!compact} re-synthesizes live
    objects into fresh shards, reclaiming the retired primer space.
    Reads run the full wetlab path (PCR selection, sequencing,
    clustering, reconstruction, decode) against only the object's shard,
    behind an LRU cache of decoded objects.

    Durability is part of the contract, not an assumption: every byte to
    or from disk goes through a {!Store_io.t} (pluggable, fault
    injectable), the manifest records CRC-32 checksums for every shard
    pool and object payload, {!scrub} detects and self-repairs
    corruption, {!get_partial} serves degraded reads from whatever
    molecules survive, and opening a store reclaims the [.tmp]/orphan
    debris of an interrupted run and cuts a torn journal append. *)

module Json : module type of Store_json
(** The hand-rolled JSON layer backing the manifest (exposed for tests
    and tools). *)

module Lru : module type of Lru
(** The decoded-object cache (exposed for tests). *)

module Io : module type of Store_io
(** The filesystem boundary (exposed for the crash harness, tests and
    the CLI's fault flags). *)

type config = Manifest.config = {
  shard_target_strands : int;  (** open a new shard once the current one reaches this *)
  cache_objects : int;  (** LRU capacity for decoded objects *)
  error_rate : float;  (** per-base error rate of the sequencing channel *)
  coverage : int;  (** base sequencing depth; scaled per shard access *)
}

val default_config : config

val format_version : int
(** Version stamped into every checkpoint (3: checkpoint plus journal);
    [open_store] also reads versions 2 and 1 (no journal; version 1
    without checksums) and refuses others. The first write to a
    version-1 or -2 store folds a version-3 checkpoint. *)

type error =
  | Key_not_found of string
  | Duplicate_key of string
  | Primer_space_exhausted of { attempts : int }
  | Decode_failed of { key : string; reason : string }
  | Corrupt of string  (** manifest-level damage *)
  | Corrupt_shard of { shard : int; reason : string }
      (** a shard pool is missing, unparsable, short of its recorded
          strand count, checksum-mismatched, or quarantined *)
  | Io_error of string
      (** a write failed (ENOSPC, failed rename); the store's on-disk
          state is unchanged or safely orphaned, never torn *)
  | Object_degraded of { key : string; recovered_fraction : float }
      (** scrub marked the object partially recoverable; normal reads
          refuse it — {!get_partial} serves the surviving bytes *)
  | Object_lost of string  (** scrub could not recover any unit *)

val error_message : error -> string

type t

val init : ?config:config -> ?io:Store_io.t -> dir:string -> seed:int -> unit -> (t, error) result
(** Create a fresh store directory (made if missing); refuses a
    directory that already holds a manifest. *)

val open_store : ?io:Store_io.t -> dir:string -> unit -> (t, error) result
(** Reopen an existing store. The rng stream is re-derived from the
    seed and the manifest generation, so a reopened store does not
    replay the draws of its previous life. The manifest is the
    checkpoint with the journal's newer records replayed, so it and its
    generation equal those of the handle that wrote them. A torn final
    journal record (a crash mid-append) is dropped and cut away; a
    damaged record with more data after it is [Corrupt]. Reclaims
    leftover [.tmp] files and unreferenced shard files (debris of an
    interrupted run — acked state never lives in either); the count
    lands in {!stats}. *)

val dir : t -> string
val config : t -> config
val generation : t -> int
val keys : t -> string list
val mem : t -> string -> bool

val put :
  ?params:Codec.Params.t -> ?layout:Codec.Layout.t -> t -> key:string -> Bytes.t ->
  (unit, error) result
(** Encode under a fresh primer pair and append to the open shard
    (shard file written before the manifest record, so a crash never
    leaves the manifest pointing at missing molecules). If encoding raises, the
    reserved pair is released before the exception propagates; a
    simulated I/O failure returns [Io_error] with the pair released and
    nothing acked. *)

val overwrite : t -> key:string -> Bytes.t -> (unit, error) result
(** Append a new version under a fresh pair (same codec parameters);
    the old version's pair is retired and its molecules become dead
    until {!compact}. *)

val delete : t -> key:string -> (unit, error) result
(** Drop the object from the directory and retire its pair; the
    molecules stay in their shard until {!compact}. *)

val get : ?use_cache:bool -> t -> key:string -> (Bytes.t, error) result
(** Fails typed — never raises — on damage: [Corrupt_shard] when the
    object's pool is unreadable or checksum-mismatched, [Object_degraded]
    / [Object_lost] when scrub has classified the object. *)

val get_batch :
  ?domains:int -> ?use_cache:bool -> t -> string list -> (string * (Bytes.t, error) result) list
(** Serve many keys in one pass, in input order (duplicates allowed —
    a key requested twice decodes once and answers twice): cache hits
    answer immediately; misses are deduplicated and grouped so each
    shard is PCR-selected and sequenced once, then the whole per-object
    wetlab path (sequencing, demux, clustering, reconstruction, decode)
    fans out over the domain pool. Each object's stochastic draws come
    from a stream derived from (store seed, key, version), so the bytes
    a key decodes to are identical across [get], any batch composition
    and any [domains]. Each object's demuxed core arena stays
    pool-native through clustering and consensus (index slices +
    per-domain scratch, no boxed strand per read). *)

type partial_read = {
  bytes : Bytes.t;  (** best-effort reconstruction, length = original size *)
  recovered_fraction : float;
  recovered_ranges : (int * int) list;
      (** maximal [start, stop) intervals of [bytes] whose codewords
          all decoded *)
  exact : bool;
      (** every unit decoded and the payload checksum matches: [bytes]
          is bit-identical to what was stored *)
}

val get_partial : ?use_cache:bool -> t -> key:string -> (partial_read, error) result
(** The degraded-read path: serve whatever survives. Healthy objects
    answer exactly like {!get} (with [exact = true]); if their shard
    fails verification mid-read, or scrub has marked the object
    Degraded, the read falls back to a lenient decode over the surviving
    molecules and maps the recovered byte ranges. [Object_lost] only
    when nothing is selectable or scrub marked the object Lost. *)

type health = Manifest.health =
  | Healthy
  | Degraded of { recovered_fraction : float; ranges : (int * int) list }
  | Lost

val health_name : health -> string

val object_health : t -> key:string -> health option
(** Scrub's verdict for an object ([Healthy] until a scrub says
    otherwise); [None] for unknown keys. *)

val sequencing_passes : t -> int
(** Wetlab sequencing passes run so far: a batched get counts one per
    shard touched, however many coalesced objects rode on it. The
    serving layer's coalescing tests and stats read this. *)

val object_shard : t -> key:string -> int option
(** The shard an object currently lives in (workload generators use it
    to build same-shard batches). *)

type compact_stats = {
  objects_rewritten : int;
  objects_dropped : int;  (** Lost objects removed from the directory *)
  strands_before : int;
  strands_after : int;
  shards_before : int;
  shards_after : int;
  primer_pairs_reclaimed : int;
  unlink_failures : int;  (** old shard files left behind by a failed unlink *)
}

val checkpoint : t -> (unit, error) result
(** Fold the journal now: write the current manifest as a checkpoint
    and empty the journal. The generation does not move. *)

val compact : t -> (compact_stats, error) result
(** Re-synthesize every healthy object into fresh densely packed shards,
    drop dead molecules and release retired primer pairs. All-or-nothing
    for healthy objects: each is decoded before anything on disk
    changes, and a failure leaves the store untouched. Degraded objects
    keep their quarantined shard (the surviving molecules are all they
    have); Lost objects are dropped and their pairs reclaimed. *)

type scrub_report = {
  shards_checked : int;
  shards_corrupt : int;  (** failed verification on this pass *)
  shards_quarantined : int;  (** left damaged in place, still referenced *)
  shards_dropped : int;  (** damaged and no longer referenced: unlinked *)
  objects_checked : int;
  objects_repaired : int;  (** re-synthesized bit-identically into fresh shards *)
  objects_degraded : int;
  objects_lost : int;
  checksums_backfilled : int;  (** version-1 shards that gained a checksum *)
}

val scrub : t -> (scrub_report, error) result
(** Verify every shard pool against its manifest record (presence,
    parse, strand count, prefix CRC-32), then attempt recovery of every
    object on a damaged shard (or already marked) with the salvage a
    degraded read ({!get_partial}) runs over the surviving molecules,
    and classify it from that read: an [exact] result is re-synthesized
    into a fresh shard (repair — bit-identical by construction); a
    partial one with a nonzero recovered fraction marks the object
    [Degraded] with its recovered ranges; anything else is [Lost]. Damaged shards are
    quarantined while degraded/lost objects still reference them and
    unlinked once nothing does. Recovery attempts replay the object's
    deterministic access stream, so a scrub of the same directory is
    reproducible. Also backfills checksums into version-1 manifests. *)

type stats = {
  n_objects : int;
  n_shards : int;
  n_strands : int;
  dead_strands : int;
  live_primer_pairs : int;
  retired_primer_pairs : int;
  cache_hits : int;
  cache_misses : int;
  generation : int;
  degraded_objects : int;
  lost_objects : int;
  quarantined_shards : int;
  orphans_reclaimed : int;  (** debris removed when this handle opened the store *)
  cold_accesses : int;
      (** wetlab read paths this handle ran: get misses and salvage
          attempts (degraded reads, scrub); cache hits add nothing *)
  access_s : Dnastore.Pipeline.timings;
      (** those accesses' stage times summed per stage (sequencing in
          [simulate_s], then demux, cluster, reconstruct, decode); the
          encode and percentile fields stay 0 *)
  checkpoint_bytes : int;  (** size of the last checkpoint this handle read or wrote *)
  journal_records : int;  (** whole records in the journal *)
  journal_bytes : int;  (** their bytes *)
}

val stats : t -> stats
val render_stats : t -> string

(**/**)

(* Introspection for tests, the crash harness and benchmarks. *)
val shards_dir : string
val shard_files : t -> string list
val shard_path : t -> shard:int -> string option
val object_pair : t -> key:string -> Codec.Primer.pair option
val pair_reserved : t -> Codec.Primer.pair -> bool

val manifest_json : t -> string
(** The live manifest as checkpoint JSON, generation included. *)
