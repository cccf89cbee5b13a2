(** A primer-pair -> strand-indices index over an oligo pool: PCR
    selection is an O(own molecules) gather ({!select}) instead of an
    O(pool) scan per get. The store builds one per shard pool with
    {!build} on load, keeps it in step with {!add_range} on put and
    {!remove_pair} on delete, and selects only through it. *)

type t

val add_range : t -> Codec.Primer.pair -> first:int -> len:int -> unit
val remove_pair : t -> Codec.Primer.pair -> unit

val matches : Dna.Strand.t -> Codec.Primer.pair -> bool
(** Strict both-end primer match on a clean molecule: at most 2
    mismatches per primer (pairs are designed >= 8 apart). *)

val select : t -> Dna.Strand.t array -> Codec.Primer.pair -> Dna.Strand.t array
(** Indexed gather of the pair's molecules, in pool order; [[||]] for a
    pair the index never saw. *)

val build : pairs:Codec.Primer.pair list -> Dna.Strand.t array -> t
(** Index a pool in one pass given its pair inventory; strands matching
    no pair are left unindexed. *)
