(** Deterministic, splittable pseudo-random number generator
    (xoshiro256** seeded through splitmix64).

    Every stochastic component of the toolkit takes an explicit [t], so
    all experiments are reproducible from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator; equal seeds yield equal streams. *)

val copy : t -> t
(** An independent duplicate of the current state. *)

val split : t -> t
(** Derive a statistically independent stream; advances the parent. *)

val next_int64 : t -> int64
(** The raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. Raises [Invalid_argument]
    when [bound <= 0]. *)

val float : t -> float
(** Uniform on [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool

val geometric : t -> float -> int
(** [geometric t p] is the number of Bernoulli([p]) trials up to and
    including the first success; support {1, 2, ...}. *)

val categorical : t -> float array -> int
(** An index drawn from the distribution [dist] (weights summing to
    about 1): one {!float} draw, the first index whose cumulative
    weight reaches it, else the last index. *)

val poisson : t -> float -> int
(** Poisson sample with the given mean (Knuth's method; intended for
    small means such as sequencing coverage). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** A uniform element; raises [Invalid_argument] on an empty array. *)

val sample_indices : t -> n:int -> k:int -> int array
(** [k] distinct indices drawn uniformly from [\[0, n)]. *)
