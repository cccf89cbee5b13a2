(** The wetlab-channel abstraction: one clean (synthesized) strand in,
    one noisy read out, modeling the composite of synthesis, storage,
    handling and sequencing. Channels are plain records so users can
    swap in their own simulation module.

    A channel is one emitter: it streams the read's base codes into a
    {!Dna.Strand_pool.t} as the pool's {e open} read and leaves it
    uncommitted, so callers can reorient, truncate or commit it. Write
    it directly as the record (as the built-in channels do), or hand a
    boxed model to {!create}. *)

type t = {
  name : string;
  transmit_into : Dna.Rng.t -> Dna.Strand.t -> Dna.Strand_pool.t -> unit;
}

val create : name:string -> (Dna.Rng.t -> Dna.Strand.t -> Dna.Strand.t) -> t
(** A channel from a boxed model: each read is the model's strand,
    re-emitted base by base into the pool. *)

val name : t -> string

val transmit_into : t -> Dna.Rng.t -> Dna.Strand.t -> Dna.Strand_pool.t -> unit
(** Emit one noisy read as [pool]'s open read, without committing it. *)

val transmit : t -> Dna.Rng.t -> Dna.Strand.t -> Dna.Strand.t
(** One read on its own: {!transmit_into} a fresh one-read pool, then
    that read. Same rng stream as [transmit_into]. *)

val noiseless : t
(** The identity channel: a perfect wetlab. *)

val measure_error_profile : t -> Dna.Rng.t -> strand_len:int -> trials:int -> float array
(** Per-position error rates measured by aligning reads against their
    sources: for each clean-strand index, the fraction of transmissions
    in which that base was not matched exactly. *)
