(** Per-domain scratch for pool-native reconstruction: minted
    [(pool, index)] read views plus every flat consensus table (NW
    profile/candidates, BMA pointers/lookahead, output codes) in
    grow-only buffers reused across clusters.

    Buffers and views are valid only between one {!mint} and the next
    on the same domain. Each domain owns its arena (keyed through
    [Domain.DLS]); nothing here is thread-safe. *)

type t = {
  mutable views : Dna.Strand.t array;
  mutable counts : int array;
  mutable ins : int array;
  mutable codes : int array;
  mutable support : int array;
  mutable hist : int array;
  mutable pointers : int array;
  mutable expected : int array;
  counts4 : int array;
  mutable out : int array;
}

val get : unit -> t
(** The calling domain's arena. *)

val ints : int array -> int -> int array
(** [ints buf n] is [buf] when it already holds [n] slots, else a fresh
    doubled buffer (contents unspecified); store it back into the arena
    field. *)

val mint : t -> Dna.Strand_pool.t -> int array -> keep_empty:bool -> int
(** Fill [views] with zero-copy views of the pool reads named by the
    index slice, skipping empty reads unless [keep_empty]; returns how
    many views are live. Invalidates the previous cluster's views. *)

val capacity_words : t -> int
(** Total buffer capacity currently held (in array slots) — an
    introspection hook for tests and allocation accounting. *)
