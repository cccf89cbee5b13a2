(** A shard file: one shard's oligo pool on disk, under [shards/] in the
    store directory. This module owns the format; every read and write
    of a shard file goes through it. The invariants:

    - The file is canonical FASTA: record [i] is [>m_i], then the
      molecule, as {!Dna.Fasta.to_string} prints it.
    - The manifest records the shard's strand count [n_strands]. The
      first [n_strands] records are the recorded prefix, and the
      shard's checksum is the CRC-32 of their canonical serialization.
    - Bytes past the recorded prefix are debris of an unacked append: a
      crash or a failed write after the records landed and before the
      manifest did. Readers never look at them, scrub does not count
      them as damage, and the next {!append} cuts them first.
    - A put appends its own records ({!append}). Compaction and scrub
      repair write whole files temp-then-rename ({!write}), so a
      recorded prefix is never torn.
    - A shard's records reach the disk before the manifest record that
      covers them: the store appends or writes here first, then
      commits. *)

val subdir : string
(** ["shards"], the store directory's subdirectory of shard files. *)

val file : int -> string
(** Relative path of shard [id], e.g. [shards/shard_00003.fasta]. *)

val is_file : string -> bool
(** Whether a {!subdir} entry is named like a shard file. *)

type extent = {
  bytes : int;  (** length of the recorded prefix on disk *)
  crc : int;  (** CRC-32 of its canonical serialization *)
  debris : bool;
      (** bytes past the prefix may exist: the next {!append} cuts them
          first *)
}
(** What an append needs of its shard file. *)

val start : Store_io.t -> dir:string -> file:string -> extent
(** The extent of a shard the manifest does not record yet: empty, and
    debris when a file already sits at its name (left by a failed
    append or compaction). *)

val read : Store_io.t -> dir:string -> Manifest.shard_meta -> (Dna.Strand.t array, string) result
(** Unverified: the molecules of whatever records parse in the recorded
    prefix, for salvage reads of a damaged shard. [Error] on a missing
    or unreadable file. Never raises but for {!Store_io.Crashed}. *)

val check :
  Store_io.t -> dir:string -> Manifest.shard_meta -> (extent * Dna.Strand.t array, string) result
(** Verified against the manifest record: the file is present, its
    recorded prefix parses, holds [n_strands] records and, when the
    record carries a checksum, matches it. [Ok] carries the prefix's
    extent (its CRC-32 is what scrub backfills into version-1
    manifests) and the molecules. [Error] names the damage. Never
    raises but for {!Store_io.Crashed}. *)

val write : Store_io.t -> dir:string -> file:string -> Dna.Strand.t array -> int
(** Write a whole shard, temp then rename, and return its checksum. *)

val append :
  Store_io.t -> dir:string -> file:string -> extent -> first:int -> Dna.Strand.t array -> extent
(** Cut the debris past the extent's prefix, if any, then append
    records [m_first], [m_first+1], ... for the molecules. Returns the
    shard's new extent, true once the manifest records the new strand
    count. Raises what {!Store_io} raises; the file may then hold
    debris. *)
