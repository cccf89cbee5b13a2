(** Partial-order alignment (POA) graphs, after Lee, Grasso & Sharlow
    (2002) — the pure-OCaml stand-in for spoa.

    Reads are folded one at a time into a DAG whose nodes carry a base
    and a support count; aligned alternatives form column cliques.
    Alignment is band-limited (spoa-style): each graph node scores only
    the read positions within [band] of its shortest/longest
    source-path depths, over flat per-domain scratch arrays, falling
    back to the unpruned DP whenever the banded score is not
    certifiably exact — so the fused graph is always bit-identical to
    the unpruned one. *)

type t

val create : unit -> t
val node_count : t -> int

val default_band : int
(** Default half-width of {!add}'s scoring window: 16, comfortably
    above the edit distance of sibling reads at realistic sequencing
    error rates. *)

val add : ?band:int -> t -> Strand.t -> unit
(** Globally align the read against the graph (unit costs, generalized
    Needleman-Wunsch over the DAG) and fuse it: matches reinforce
    existing nodes, mismatches join their column's alignment clique,
    insertions add fresh nodes. The first read seeds the backbone.
    [band] (clamped to at least 1; default {!default_band})
    prunes scoring to a window around each node's topological position;
    the graph produced is identical for every band. *)

val add_first : t -> Strand.t -> unit
(** Insert a read as a simple chain (what [add] does on an empty graph). *)

val consensus_with_support : ?penalty:int -> t -> int array * int array
(** Maximum-weight path through the graph, scoring each node by its
    support minus [penalty] (default 0). Returns base codes and
    per-position support. *)

val consensus : t -> Strand.t
(** [consensus g] is the heaviest path's bases. *)

val consensus_columns : ?n_reads:int -> t -> int array * int array
(** Column-wise consensus: alignment cliques are the columns of the
    multiple sequence alignment; each column takes a majority vote and
    is kept when at least half of [n_reads] placed a base there (all
    columns are kept when [n_reads] is 0). Stable as coverage grows. *)

val of_reads : ?band:int -> Strand.t list -> t
