(** The store's filesystem boundary, made pluggable so durability can be
    proven, not assumed.

    Every byte the store reads or writes goes through a {!t}: the
    {!real} backend passes straight to the OS, while {!faulty} wraps it
    in a deterministic, seeded fault layer — torn and short writes,
    torn appends, failed renames, simulated ENOSPC, read bit-rot, and a process kill
    at any chosen {e fault point}. Fault points are the instants where a
    crash could leave the disk in a distinct state (before a temp file
    is written, mid-write, before and after the rename, before, during
    and after an append, before a truncate or an unlink); the
    crash-consistency harness sweeps a kill across every one of them
    and asserts the store reopens consistently.

    All faults derive from the plan's seed alone, so a faulty run
    replays bit-identically. *)

exception Crashed of { point : string; index : int }
(** The simulated kill: raised by a faulty backend when the global
    fault-point counter reaches the plan's [crash_at]. Nothing below the
    raise executed — exactly like power loss. Only the crash harness
    should catch it. *)

exception Io_failure of string
(** A simulated I/O error the store is expected to survive gracefully
    (ENOSPC, EIO on rename). The store maps it to a typed error; it must
    never escape a store operation as an exception. *)

type plan = {
  seed : int;
  crash_at : int option;
      (** kill the process at the Nth fault point (1-based); a write
          fault point crashed mid-data leaves a torn (seeded prefix)
          temp file behind *)
  fail_rename_at : int option;
      (** the Nth rename raises {!Io_failure}, leaving the temp file *)
  enospc_at : int option;
      (** the Nth data write raises {!Io_failure} after a seeded
          partial write *)
  bit_rot : float;
      (** per-byte probability that a read of a [.fasta] file returns a
          corrupted base (deterministic per path and seed) *)
}

val no_faults : seed:int -> plan
(** All fault knobs off: behaves like {!real} but still counts fault
    points, so a recording run can size a crash sweep. *)

type t

val real : t
(** Pass-through to the OS. *)

val faulty : plan -> t
(** A fresh fault-injecting backend (counters start at zero). *)

val points_hit : t -> int
(** Fault points traversed so far ([0] for {!real}). *)

val crc32 : string -> int
(** Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a string, as
    a non-negative int. The store's shard and object checksums. *)

val crc32_update : int -> string -> int
(** [crc32_update (crc32 a) b = crc32 (a ^ b)]; [crc32_update 0 s =
    crc32 s]. *)

(** {2 Operations} *)

val read_file : t -> string -> string
(** Whole-file read. Raises [Sys_error] if unreadable; a faulty backend
    may additionally apply bit-rot to [.fasta] content. *)

val write_file_atomic : t -> dir:string -> name:string -> string -> unit
(** Write [dir/name.tmp], then rename over [dir/name]. Fault points:
    before the temp write, mid-data, before the rename, after it. *)

val write_file_atomic_with :
  t -> dir:string -> name:string -> ((string -> unit) -> unit) -> unit
(** {!write_file_atomic} of the concatenation of the pieces [emit]
    passes to its argument, called once. The real backend streams them
    to the temp file without building the whole content. *)

val append : t -> dir:string -> name:string -> string -> unit
(** Append to [dir/name], creating it if missing. Fault points: before
    the write, mid-data (a crash or ENOSPC there leaves a seeded prefix
    of the content at the tail: a torn append), after it. ENOSPC counts
    it as a data write. *)

val truncate : t -> dir:string -> name:string -> int -> unit
(** Cut [dir/name] to its first [len] bytes; a no-op when the file does
    not exist. Fault point before the cut. Raises [Sys_error] when the
    OS refuses. *)

val remove : t -> string -> unit
(** Unlink, with a fault point before it. Raises [Sys_error] if the
    file does not exist (callers decide whether that matters). *)

val exists : t -> string -> bool
val mkdir_p : t -> string -> unit

val list_dir : t -> string -> string array
(** Directory entries, sorted (so fault injection is order-stable);
    [||] if the directory does not exist. *)
