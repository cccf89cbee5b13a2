(** Ensemble reconstruction: per-position majority vote over BMA,
    double-sided BMA and the NW consensus. Their error profiles peak in
    different regions (Figure 6), so the vote cancels a useful fraction
    of each, at triple the cost. *)

val reconstruct :
  ?lookahead:int -> ?refinements:int -> target_len:int -> Dna.Strand.t array -> Dna.Strand.t

val majority : target_len:int -> Dna.Strand.t array -> Dna.Strand.t
(** Plain per-position plurality vote. Cannot fail: short reads stop
    voting, uncovered positions default to A. *)

val reconstruct_fallback :
  ?primary:(target_len:int -> Dna.Strand.t array -> Dna.Strand.t) ->
  target_len:int -> Dna.Strand.t array -> Dna.Strand.t option
(** Graceful-degradation chain: [primary] (if any), then NW, BMA and
    {!majority}, absorbing exceptions at each step. [None] only for an
    empty cluster or if every step raised. *)

val reconstruct_pool :
  ?lookahead:int ->
  ?refinements:int ->
  target_len:int ->
  Dna.Strand_pool.t ->
  int array ->
  Dna.Strand.t
(** [reconstruct] over a cluster index-slice of an arena read pool;
    bit-identical to the boxed vote on the same reads. *)

val majority_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t

val reconstruct_fallback_pool :
  ?primary:(target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t) ->
  target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t option
(** Pool-native fallback chain (primary -> NW -> BMA -> majority over
    the slice), absorbing exceptions at each step. [None] only for an
    empty slice or if every step raised. *)
