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

(** A mutable set of reserved (in-use) pairs: the persistent object
    store's primer bookkeeping.
    {!Registry.fresh} generates a pair far from everything reserved and
    reserves it; {!Registry.release} reclaims a pair once a deleted
    object's molecules have physically left the pool (compaction).
    Each reserved pair's four primers (both primers and their reverse
    complements) are packed into ints once, at reserve time, so a
    candidate costs a few word operations per reserved primer. *)
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
      [max_attempts] (default 1000) rejected candidates. Raises
      [Invalid_argument] when a reserved primer is not
      {!primer_length} bases long (Hamming distance needs equal
      lengths). *)
end

val attach : pair -> Dna.Strand.t -> Dna.Strand.t
(** [forward ^ core ^ reverse] (Figure 2a). *)

val mismatches_at : Dna.Strand.t -> pos:int -> pattern:Dna.Strand.t -> int
(** Hamming mismatches of [pattern] at [pos]; [max_int] if out of range.
    For strict matching on clean pool molecules. *)

val max_edits : int
(** Edits the demux tolerates inside one primer: 5. *)

val slack : int
(** Leading read bases a primer may start after: 4. *)

val locate_prefix :
  slack:int -> max_edits:int -> Dna.Strand.t -> Dna.Strand.t -> (int * int) option
(** [locate_prefix ~slack ~max_edits pattern read]: the best semi-global
    alignment of the whole pattern against the read's head, its read
    span starting at position 0..[slack]: [(end_position, edits)] with
    at most [max_edits] edits, the smallest end position among equally
    good ones. Bit-parallel: one Myers pass over at most
    [length pattern + slack + max_edits] read bases, with the pattern's
    cached {!Dna.Strand.eq_masks}. Raises [Invalid_argument] unless the
    pattern is 1..63 nt. *)

val locate_suffix :
  slack:int -> max_edits:int -> Dna.Strand.t -> Dna.Strand.t -> (int * int) option
(** Mirror of {!locate_prefix} at the read's tail: [(start_position,
    edits)]. The read is scanned backwards in place; the pattern is
    reversed per call. *)

type orientation = Forward | Reverse

type key
(** A pair prepared for {!find_core}: the match masks of its forward
    primer and of its reverse primer read backwards. *)

val key : pair -> key
(** Build once per pair, reuse for every read. Raises
    [Invalid_argument] unless both primers are 1..63 nt. *)

val find_core : key -> Dna.Strand.t -> (int * int * orientation) option
(** Demux one read against a pair: [Some (pos, len, dir)] when the read
    carries the pair, with the tolerances {!max_edits} and {!slack}.
    [dir] is [Forward] when the forward primer fits the read's head at
    least as well as it fits the head of the read's reverse complement,
    else [Reverse]. The core is [Dna.Strand.sub read ~pos ~len] for a
    [Forward] read, and the reverse complement of that slice for a
    [Reverse] one. [None] when neither orientation shows the forward
    primer, when the oriented read's tail lacks the reverse primer, or
    when the primers overlap, which filters foreign molecules. *)
