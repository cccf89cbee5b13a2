(** Decay-over-time channel: thermal, hydrolytic and oxidative
    degradation integrated over simulated storage [years], expressed as
    whole-strand dropout plus position-biased per-base damage (lesion
    substitutions and backbone nicks that truncate the read). *)

type params = {
  years : float;  (** simulated storage time *)
  thermal_per_day : float;  (** depurination rate contribution per day *)
  hydrolytic_per_day : float;  (** backbone hydrolysis per day *)
  oxidative_per_day : float;  (** base oxidation per day *)
  per_base_scale : float;
      (** fraction of the cumulative whole-strand exposure that lands as
          per-base damage on surviving molecules *)
  sub_fraction : float;
      (** damage events that read back as substitutions; the rest nick
          the backbone and truncate the read *)
  end_bias : float;  (** extra damage multiplier at strand ends (fraying) *)
}

val default_params : params
(** 5 simulated years at cold-storage per-day rates. *)

val cumulative : params -> float
(** Integrated damage exposure: [years * 365.25 * (thermal + hydrolytic
    + oxidative)]. *)

val survival : params -> float
(** Whole-strand survival probability, [exp (-cumulative)]. *)

val dropout : params -> float
(** [1 - survival]: the pool-level loss rate scenario stacks apply. *)

val per_base_rate : params -> float
(** Midpoint per-base damage probability on a surviving molecule
    ([cumulative * per_base_scale], capped at 0.5). *)

val create : ?params:params -> unit -> Channel.t

val age_pool : ?params:params -> Dna.Rng.t -> Dna.Strand.t array -> Dna.Strand.t array
(** Apply the archive to a whole pool: drop each molecule with
    probability {!dropout}, damage survivors with one pass through
    [create ~params ()], discard zero-length wrecks. Order-preserving
    over survivors. *)
