(** Needleman-Wunsch consensus (Section VII-C, the paper's own
    reconstruction algorithm): reads are aligned against a reference
    (initially the longest read), stacked into a column profile,
    majority-voted per column and refined by realigning against the
    vote (up to two refinement rounds, ending early once a vote
    reproduces its reference). Finally exactly [target_len] columns are
    kept — the strongest-supported ones, found by a support threshold —
    the paper's rule of omitting the most indel-heavy indexes.

    Depth follows the vote: a cluster of at most 12 reads aligns all of
    them; a larger one aligns 8, then 4 more at a time, until two
    successive batch votes agree and every match column and insertion
    slot clears a fixed margin from the majority threshold (an
    insertion slot's margin scales with the longest run of bases one
    read inserted there). Refinement rounds realign only the reads
    used. *)

type outcome = {
  consensus : Dna.Strand.t;
  trimmed : int;  (** candidate columns dropped for exceeding the target *)
  padded : int;  (** positions padded because too few candidates existed *)
  reads_used : int;  (** non-empty reads the depth rule aligned *)
}

val reconstruct_pool_full : target_len:int -> Dna.Strand_pool.t -> int array -> outcome
(** Consensus of a cluster given as an index slice of an arena read
    pool. Reads are zero-copy views, aligned with
    {!Dna.Alignment.align_packed} in slice order (the depth rule takes
    the first ones); every profile/vote/selection table lives in the
    calling domain's {!Recon_arena} buffers, so only alignment scripts,
    votes and the consensus strand allocate. Refinement rounds whose
    vote reproduces the reference reuse the round's column profile
    instead of realigning. Zero-length reads are ignored; raises
    [Invalid_argument] when the slice holds no non-empty read. *)

val reconstruct_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t
(** [(reconstruct_pool_full ~target_len pool idxs).consensus]. *)
