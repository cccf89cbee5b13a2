(** A primer-pair -> strand-indices index over an oligo pool: PCR
    selection is an O(own molecules) gather ({!select}) instead of an
    O(pool) scan per get. The in-memory {!Kv_store} maintains one on
    [put]; the persistent store recovers one per shard pool with
    {!build} on load. Both select only through the index. *)

type t

val create : unit -> t

val add : t -> Codec.Primer.pair -> int -> unit
val add_range : t -> Codec.Primer.pair -> first:int -> len:int -> unit

val indices : t -> Codec.Primer.pair -> int array
(** Pool indices recorded for the pair, ascending; [[||]] when unseen. *)

val remove_pair : t -> Codec.Primer.pair -> unit

val matches : ?max_mismatches:int -> Dna.Strand.t -> Codec.Primer.pair -> bool
(** Strict both-end primer match on a clean molecule (default tolerance
    2 mismatches per primer; pairs are designed >= 8 apart). *)

val select : t -> Dna.Strand.t array -> Codec.Primer.pair -> Dna.Strand.t array
(** Indexed gather of the pair's molecules. *)

val build : pairs:Codec.Primer.pair list -> Dna.Strand.t array -> t
(** Index a pool in one pass given its pair inventory; strands matching
    no pair are left unindexed. *)
