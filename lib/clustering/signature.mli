(** q-gram and w-gram signatures over the full 4^q gram dictionary
    (Sections VI-A and VI-C), computed in one linear scan per read. *)

type kind =
  | Qgram  (** presence bit per gram; Hamming distance *)
  | Wgram  (** first-occurrence position per gram; L1 distance *)

val absent_position : read_len:int -> int
(** The w-gram sentinel: one past any real position. *)

val dict_size : q:int -> int
(** [4 ^ q]. *)

(** Flat signature index for clustering at scale: every read's
    signature packed into one shared int array (q-gram presence bits
    compared by SWAR-popcount Hamming, w-gram positions by L1), built
    in parallel with workers filling disjoint row ranges — bit-identical
    for every worker count. *)
module Index : sig
  type t

  val build : ?domains:int -> q:int -> kind -> Dna.Strand.t array -> t
  val distance : t -> int -> int -> int
  (** [distance idx i j] between reads [i] and [j] of the build input. *)
end
