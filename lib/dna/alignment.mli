(** Needleman-Wunsch global pairwise alignment with traceback, at unit
    costs — the optimal score equals the edit distance.

    The kernel is bit-parallel (Myers/Hyyrö blocked recurrence over
    63-bit words, as in Edlib): it records every column's delta words in
    one pass and traces back over their bits. The deltas encode the full
    O(la*lb) matrix exactly, so scores and scripts are bit-identical to
    the classic full-matrix kernel's by construction. The kernel
    runs over flat scratch arrays drawn from a per-domain arena: parallel
    reconstruction workers never reallocate alignment state between
    calls. *)

type op =
  | Match of Nucleotide.t
  | Substitute of Nucleotide.t * Nucleotide.t  (** original base, read base *)
  | Delete of Nucleotide.t  (** base of the first strand missing from the second *)
  | Insert of Nucleotide.t  (** base of the second strand absent from the first *)

type t = {
  score : int;  (** total edit cost *)
  script : op list;  (** operations transforming the first strand into the second *)
}

val gap_char : char
(** '-', used by {!padded}. *)

val scratch_capacity_words : unit -> int
(** Capacity currently held by the calling domain's alignment arena
    (delta words, code buffers, op scripts), in array slots. Grow-only: steady under a fixed workload
    once the largest alignment has been seen — the invariant pool-native
    reconstruction leans on. *)

val align : Strand.t -> Strand.t -> t
(** [align a b] computes an optimal global alignment, preferring
    diagonal moves on ties so scripts stay maximally aligned. It costs
    O(ceil(la/63) * lb) words for its single forward pass plus O(la + lb)
    steps of traceback, whatever the distance. *)

(** {2 Packed scripts — the zero-allocation hot path}

    Consensus loops align thousands of reads and immediately fold each
    script into count tables; materializing an [op list] per alignment
    (two heap blocks per operation) was a measurable fraction of the
    whole reconstruction. [align_packed] returns the script as packed
    ints in an arena buffer instead. *)

type packed = {
  packed_score : int;  (** total edit cost, same as {!t.score} *)
  ops : int array;
      (** arena-owned — valid only until the next alignment on this
          domain; consume (or copy) before aligning again *)
  off : int;  (** index of the first op in [ops] *)
  lim : int;  (** one past the last op *)
}

val align_packed : Strand.t -> Strand.t -> packed
(** Exactly {!align} (same kernel, same script) without building the [op list]: ops are packed ints in
    [ops.(off .. lim - 1)], forward order, decoded by {!packed_kind} /
    {!packed_a} / {!packed_b}. *)

val packed_kind : int -> int
(** 0 = match, 1 = substitute, 2 = delete, 3 = insert. *)

val packed_a : int -> int
(** Code of the first strand's base (match / substitute / delete). *)

val packed_b : int -> int
(** Code of the second strand's base (match / substitute / insert). *)

val script_of_packed : packed -> op list
(** Decode into the ordinary constructors ([align] is [align_packed]
    followed by this). *)

val padded : t -> string * string
(** Both strands rendered with gap characters so that aligned positions
    line up; the two strings have equal length. *)

val apply_script : op list -> Strand.t
(** Replay a script to recover the second strand. *)

type op_kind = Kmatch | Ksub | Kdel | Kins

val kind : op -> op_kind

val counts : t -> int * int * int * int
(** (matches, substitutions, deletions, insertions). *)
