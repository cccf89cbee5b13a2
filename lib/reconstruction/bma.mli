(** Bitwise Majority Alignment with lookahead (Organick et al.,
    Section VII-A) and the double-sided variant (Lin et al.,
    Section VII-B).

    Misalignment guesses propagate: single-sided BMA grows unreliable
    toward the far end of the strand; double-sided BMA meets in the
    middle — the positional reliability skew behind Gini/DNAMapper. *)

val reconstruct_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t
(** Left-to-right BMA-lookahead consensus (lookahead window 2) of
    exactly [target_len] bases over a cluster index-slice of an arena
    read pool: reads are zero-copy views, pointers/lookahead/output
    state lives in the calling domain's {!Recon_arena}. Empty reads
    never vote. Raises [Invalid_argument] on an empty slice. *)

val reconstruct_double_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t
(** Double-sided BMA: the left half reconstructed left-to-right, the
    right half right-to-left, joined in the middle. The reversed pass
    addresses reads back-to-front instead of materializing reversed
    copies. *)
