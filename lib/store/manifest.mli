(** The store's on-disk catalog: a versioned JSON checkpoint
    ([MANIFEST.json]) describing shards, live objects (primer pair,
    codec parameters, location) and retired primer pairs awaiting
    compaction, plus an append-only journal ([MANIFEST.journal]) of the
    {!delta}s written since. The checkpoint is written temp-then-rename;
    a journal record is framed by its length and CRC-32s, and [load]
    replays the records newer than the checkpoint, dropping a torn
    final record. Format version 3 is the checkpoint-plus-journal
    layout; version 2 added shard/object CRC-32 checksums, object health
    marks and shard quarantine flags; version-1 and -2 checkpoints
    still load (version-1 metadata comes back absent). *)

val format_version : int
val manifest_name : string
val journal_name : string
val shards_dir : string

val shard_file : int -> string
(** Relative path of a shard's oligo pool, e.g. [shards/shard_00003.fasta]. *)

type config = {
  shard_target_strands : int;  (** open a new shard once the current one reaches this *)
  cache_objects : int;  (** LRU capacity for decoded objects *)
  error_rate : float;  (** per-base error rate of the sequencing channel *)
  coverage : int;  (** base sequencing depth; scaled per shard access *)
}

val default_config : config

type shard_meta = {
  shard_id : int;
  file : string;  (** relative to the store directory *)
  n_strands : int;
  dead_strands : int;  (** molecules of deleted/overwritten objects, reclaimed by compaction *)
  checksum : int option;
      (** CRC-32 of the canonical FASTA serialization of the first
          [n_strands] records (orphan molecules beyond the recorded
          prefix do not disturb it); [None] in version-1 manifests *)
  quarantined : bool;
      (** scrub found this shard damaged and left it in place because
          degraded or lost objects still reference it *)
}

type health =
  | Healthy
  | Degraded of { recovered_fraction : float; ranges : (int * int) list }
      (** scrub could only partially re-decode the object; [ranges] are
          the recovered byte intervals (inclusive start, exclusive end) *)
  | Lost  (** scrub could not recover any unit *)

type object_meta = {
  key : string;
  version : int;  (** bumped by every overwrite *)
  shard : int;
  pair : Codec.Primer.pair;
  n_units : int;
  params : Codec.Params.t;
  layout : Codec.Layout.t;
  original_size : int;
  checksum : int option;  (** CRC-32 of the payload; [None] in version-1 manifests *)
  health : health;
}

type t = {
  version : int;
  seed : int;
  generation : int;  (** bumped by every manifest write *)
  next_shard_id : int;
  config : config;
  shards : shard_meta list;
  objects : object_meta list;  (** insertion order *)
  retired : Codec.Primer.pair list;
      (** pairs whose molecules are still physically present; reclaimed
          by compaction *)
}

val empty : seed:int -> config:config -> t

val health_name : health -> string
(** ["healthy"], ["degraded"] or ["lost"]. *)

val to_json : t -> Store_json.t
val of_json : Store_json.t -> (t, string) result
(** Rejects unknown format versions and malformed fields. *)

val save : ?io:Store_io.t -> dir:string -> t -> int
(** Write [t] as the checkpoint (stamped {!format_version}), temp then
    rename; returns its size in bytes. *)

(** {2 The journal} *)

type delta = {
  generation : int;  (** the generation the write produces: one past the last *)
  next_shard_id : int;
  shards : shard_meta list;  (** shard records the write changed or opened *)
  upsert : object_meta option;  (** the object a put or overwrite wrote *)
  remove : string option;  (** the key a delete dropped *)
  retire : Codec.Primer.pair option;  (** the pair an overwrite or delete retired *)
}
(** One journaled write: what [put], [overwrite] or [delete] changed. *)

val apply : t -> delta -> t
(** The write's new manifest: [remove] drops its key; [upsert] replaces
    its key in place or joins the end; each of [shards] replaces its id
    in place or joins the front; [retire] joins the front of
    [retired]. The live store and replay both go through it. *)

val journal_record : delta -> string
(** The framed record: payload length, payload CRC-32 and a CRC-32 of
    those 8 bytes (big-endian u32 each), then the delta as JSON. *)

type journal = {
  records : delta list;  (** whole records, in file order *)
  valid_bytes : int;  (** where the last whole record ends *)
}

type loaded = {
  manifest : t;  (** the checkpoint with the newer journal records replayed *)
  checkpoint_bytes : int;
  journal : journal;
  torn_bytes : int;  (** bytes after [journal.valid_bytes]: a torn append to cut *)
}

val load : ?io:Store_io.t -> dir:string -> unit -> (loaded, string) result
(** Read the checkpoint and replay the journal's records whose
    generation is newer, which must follow it one by one. A torn tail —
    an incomplete header or payload, or a final payload whose CRC fails
    — ends the records at [valid_bytes]. [Error] on an unreadable or
    unknown-version checkpoint, a header whose CRC fails, a payload CRC
    failure with more data after it, an unparsable record or a
    generation gap; never raises. Does not write: cutting a torn tail
    is the caller's job. *)
