(** Sequence distances. Levenshtein (edit) distance is the similarity
    metric of the whole pipeline and its main computational cost; it is
    computed by Myers' bit-parallel algorithm with Hyyro's block cutoff:
    an unrolled kernel for strands of up to three 63-bit blocks (189 nt),
    a per-block array loop past that. Neither allocates. *)

val hamming : Strand.t -> Strand.t -> int
(** Positions that differ; raises [Invalid_argument] on unequal
    lengths. *)

val levenshtein : Strand.t -> Strand.t -> int
(** Exact edit distance: the thresholded kernel at a bound no distance
    reaches (the sum of the lengths), so it never cuts off. *)

val levenshtein_leq : bound:int -> Strand.t -> Strand.t -> int option
(** [Some d] when the edit distance [d] is at most [bound], [None]
    otherwise; abandons the computation as soon as the bound is provably
    exceeded. The workhorse of clustering's merge test: it advances only
    the 63-bit blocks the band has reached (Hyyro's cutoff). *)
