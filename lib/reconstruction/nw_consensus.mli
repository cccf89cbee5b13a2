(** Needleman-Wunsch consensus (Section VII-C, the paper's own
    reconstruction algorithm): reads are aligned against a reference
    (initially the longest read), stacked into a column profile,
    majority-voted per column, refined by realigning against the vote
    (two rounds), and finally exactly [target_len] columns are kept —
    the strongest-supported ones, the paper's rule of omitting the most
    indel-heavy indexes. *)

type outcome = {
  consensus : Dna.Strand.t;
  trimmed : int;  (** candidate columns dropped for exceeding the target *)
  padded : int;  (** positions padded because too few candidates existed *)
}

val reconstruct_pool_full : target_len:int -> Dna.Strand_pool.t -> int array -> outcome
(** Consensus of a cluster given as an index slice of an arena read
    pool. Reads are zero-copy views, aligned with
    {!Dna.Alignment.align_packed}; every profile/vote/selection table
    lives in the calling domain's {!Recon_arena} buffers, so only
    alignment scripts and the consensus strand allocate. Refinement
    rounds whose vote reproduces the reference reuse the round's column
    profile instead of realigning the cluster. Zero-length reads are
    ignored; raises [Invalid_argument] when the slice holds no
    non-empty read. *)

val reconstruct_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t
(** [(reconstruct_pool_full ~target_len pool idxs).consensus]. *)
