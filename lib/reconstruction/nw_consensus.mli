(** Needleman-Wunsch consensus (Section VII-C, the paper's own
    reconstruction algorithm): reads are aligned against a reference
    (initially the longest read), stacked into a column profile,
    majority-voted per column, refined by realigning against the vote,
    and finally exactly [target_len] columns are kept — the strongest-
    supported ones, the paper's rule of omitting the most indel-heavy
    indexes. *)

type outcome = {
  consensus : Dna.Strand.t;
  trimmed : int;  (** candidate columns dropped for exceeding the target *)
  padded : int;  (** positions padded because too few candidates existed *)
}

val reconstruct_full :
  ?backend:Dna.Alignment.backend ->
  ?refinements:int ->
  target_len:int ->
  Dna.Strand.t array ->
  outcome
(** Default 2 refinement rounds. [backend] selects the pairwise
    alignment kernel (see {!Dna.Alignment.align}); the consensus is
    identical for every choice. Refinement rounds whose vote reproduces
    the reference reuse the round's column profile instead of realigning
    the cluster. Raises [Invalid_argument] on an empty cluster. *)

val reconstruct :
  ?backend:Dna.Alignment.backend ->
  ?refinements:int ->
  target_len:int ->
  Dna.Strand.t array ->
  Dna.Strand.t

val reconstruct_pool_full :
  ?backend:Dna.Alignment.backend ->
  ?refinements:int ->
  target_len:int ->
  Dna.Strand_pool.t ->
  int array ->
  outcome
(** [reconstruct_full] over a cluster index-slice of an arena read
    pool: reads are zero-copy views and every profile/vote/selection
    table lives in the calling domain's {!Recon_arena} buffers, so only
    alignment scripts and the consensus strand allocate. Bit-identical
    to the boxed path on the same reads (the profile/vote/select cores
    are shared). Raises [Invalid_argument] when the slice holds no
    non-empty read. *)

val reconstruct_pool :
  ?backend:Dna.Alignment.backend ->
  ?refinements:int ->
  target_len:int ->
  Dna.Strand_pool.t ->
  int array ->
  Dna.Strand.t
