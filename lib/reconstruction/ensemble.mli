(** Ensemble reconstruction: per-position majority vote over BMA,
    double-sided BMA and the NW consensus. Their error profiles peak in
    different regions (Figure 6), so the vote cancels a useful fraction
    of each, at triple the cost. Clusters are index slices of an arena
    read pool. *)

val reconstruct_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t
(** The vote: where BMA and double-sided BMA agree their base wins,
    otherwise the NW base. Raises [Invalid_argument] on an empty
    slice. *)

val majority_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t
(** Plain per-position plurality vote. Cannot fail: short reads stop
    voting, uncovered positions default to A. *)

val reconstruct_fallback_pool :
  target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t option
(** Graceful-degradation chain (NW -> BMA -> majority over the slice),
    absorbing exceptions at each step. [None] only for an empty slice or
    if every step raised. *)
