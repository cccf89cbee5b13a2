(** Sequence distances. Levenshtein (edit) distance is the similarity
    metric of the whole pipeline and its main computational cost; it is
    computed by Myers' bit-parallel algorithm (single-word, blocked, and
    thresholded-with-cutoff variants). The two-row scalar dynamic
    program is kept as the reference oracle. *)

val hamming : Strand.t -> Strand.t -> int
(** Positions that differ; raises [Invalid_argument] on unequal
    lengths. *)

val levenshtein : Strand.t -> Strand.t -> int
(** Exact edit distance: Myers' single-word kernel when the shorter
    strand fits 63 nt, the blocked multi-word kernel otherwise. *)

val levenshtein_leq : bound:int -> Strand.t -> Strand.t -> int option
(** [Some d] when the edit distance [d] is at most [bound], [None]
    otherwise; abandons the computation as soon as the bound is provably
    exceeded. The workhorse of clustering's merge test: it advances only
    the 63-bit blocks the band has reached (Hyyro's cutoff). *)

val levenshtein_reference : Strand.t -> Strand.t -> int
(** The two-row scalar DP: the oracle {!levenshtein} is tested against,
    and the benchmark baseline it is timed against. No production path
    calls it. *)

val levenshtein_leq_reference : bound:int -> Strand.t -> Strand.t -> int option
(** The banded two-row scalar DP with row-minimum cutoff: the oracle and
    benchmark baseline of {!levenshtein_leq}. No production path calls
    it. *)

val l1 : int array -> int array -> int
(** L1 norm between equal-length integer vectors (w-gram signatures). *)
