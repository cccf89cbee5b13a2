(** The crash-consistency harness: proof that the store's write
    ordering (temp-then-rename, shard-before-manifest, framed journal
    appends) actually delivers durability.

    A scripted workload — init, puts, overwrites and deletes (enough
    journaled writes that one folds the journal into a checkpoint), a
    compaction, a final put — first runs against a fault-counting
    backend with no faults enabled, which records how many fault points
    the whole history traverses. The sweep then replays the workload
    from scratch once per point with a simulated kill ({!Store.Io.plan}
    [crash_at]) landing exactly there, reopens the directory with the
    real filesystem, and asserts the invariants a storage system owes
    its callers:

    - every write acked before the kill reads back bit-identically;
    - every acked delete stays deleted;
    - the one operation in flight is atomic: its key reads as either
      the old state or the new, never garbage;
    - the reopened manifest generation is the acked one, or one past
      it when the in-flight operation landed;
    - reopening reclaims all [.tmp] and orphan shard files;
    - after the reopen and one more put, every shard file is the
      canonical serialization of its recorded strands (the put cut any
      debris an unacked shard append left past them).

    Everything derives from the seed, so a sweep replays exactly. *)

type failure = {
  crash_at : int;  (** the fault point the kill landed on (1-based) *)
  point : string;  (** its name, e.g. ["write.rename:MANIFEST.json"] *)
  detail : string;  (** which invariant broke, and how *)
}

type outcome = {
  total_points : int;  (** fault points the full workload traverses *)
  runs : int;  (** crash runs executed (= [total_points]) *)
  failures : failure list;  (** empty iff the store is crash-consistent *)
  visited : (string * string) list;
      (** every swept point's name with the operation in flight when
          the kill landed (["put k3"], ["compact"], ["idle"], ...), in
          sweep order *)
}

val run :
  ?config:Store.config -> ?params:Codec.Params.t -> seed:int -> dir:string -> unit -> outcome
(** Run the full sweep under [dir] (which is deleted and recreated for
    every crash run). The defaults use a small codec (60 nt payload,
    6+3 RS) and a low-noise channel so the sweep stays fast while still
    spanning multiple shards and a compaction. *)

val render : outcome -> string
(** Human-readable summary, one line per failure. *)
