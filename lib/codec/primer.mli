(** PCR primer design and handling (Sections II-D/F, VIII). A primer
    pair is a stored file's key: every molecule is flanked by it and PCR
    selects on it. Primer location in noisy reads uses semi-global
    alignment, so indels inside the primer region are absorbed. *)

val primer_length : int
(** 20 bases. *)

type pair = { forward : Dna.Strand.t; reverse : Dna.Strand.t }

val gc_balanced : Dna.Strand.t -> bool
val acceptable : Dna.Strand.t -> bool
(** GC in [0.4, 0.6] and homopolymers of at most 3. *)

type error =
  | Constraints_unsatisfiable of { requested : int; generated : int; attempts : int }
      (** the rejection sampler hit its attempt cap (default 100_000)
          before producing [requested] primers *)

val error_message : error -> string

val generate :
  ?min_distance:int -> ?max_attempts:int -> Dna.Rng.t -> int ->
  (Dna.Strand.t array, error) result
(** [n] acceptable primers pairwise at least [min_distance] (default 8)
    apart in Hamming distance, including against reverse complements.
    [Error] when the rejection sampler exhausts [max_attempts]. *)

val generate_pairs :
  ?min_distance:int -> ?max_attempts:int -> Dna.Rng.t -> int -> (pair array, error) result

val generate_pairs_exn : ?min_distance:int -> ?max_attempts:int -> Dna.Rng.t -> int -> pair array
(** {!generate_pairs} for callers without a recovery path; raises
    [Failure] with {!error_message} on exhaustion. *)

(** A mutable set of reserved (in-use) pairs: the shared bookkeeping
    behind the in-memory kv-store and the persistent object store.
    {!Registry.fresh} generates a pair far from everything reserved and
    reserves it; {!Registry.release} reclaims a pair once a deleted
    object's molecules have physically left the pool (compaction). *)
module Registry : sig
  type t

  val create : unit -> t
  val of_pairs : pair list -> t

  val pairs : t -> pair list
  (** Reserved pairs, most recently reserved first. *)

  val size : t -> int
  val is_reserved : t -> pair -> bool
  val reserve : t -> pair -> unit

  val release : t -> pair -> unit
  (** No-op when the pair is not reserved. *)

  val fresh : ?min_distance:int -> ?max_attempts:int -> t -> Dna.Rng.t -> (pair, error) result
  (** A new acceptable pair at least [min_distance] (default 8) Hamming
      distance from both primers of every reserved pair and their
      reverse complements, reserved as a side effect. [Error] after
      [max_attempts] (default 1000) rejected candidates. *)
end

val attach : pair -> Dna.Strand.t -> Dna.Strand.t
(** [forward ^ core ^ reverse] (Figure 2a). *)

val mismatches_at : Dna.Strand.t -> pos:int -> pattern:Dna.Strand.t -> int
(** Hamming mismatches of [pattern] at [pos]; [max_int] if out of range.
    For strict matching on clean pool molecules. *)

val locate_prefix :
  ?slack:int -> max_edits:int -> Dna.Strand.t -> Dna.Strand.t -> (int * int) option
(** Best semi-global alignment of the whole pattern near the read's
    head: [(end_position, edits)] with at most [max_edits] edits. *)

val locate_suffix :
  ?slack:int -> max_edits:int -> Dna.Strand.t -> Dna.Strand.t -> (int * int) option
(** Mirror of {!locate_prefix} at the read's tail: [(start_position,
    edits)]. *)

type orientation = Forward | Reverse

val orient :
  ?max_edits:int -> ?slack:int -> pair -> Dna.Strand.t -> (Dna.Strand.t * orientation) option
(** Detect the read's direction against the pair and return it
    normalized to 5'->3'; [None] when neither direction matches. *)

val strip : ?max_edits:int -> ?slack:int -> pair -> Dna.Strand.t -> Dna.Strand.t option
(** Remove both primers from a normalized read; [None] filters foreign
    molecules. *)

