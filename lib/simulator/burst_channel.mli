(** Nanopore-style bursty indel channel: a 2-state Gilbert-Elliott
    model. The good state miscalls rarely; the bad state persists
    geometrically (mean burst length [1 / p_exit]) and emits
    indel-dominated error runs, so indels cluster instead of arriving
    i.i.d. *)

type params = {
  p_enter : float;  (** good -> bad transition probability per base *)
  p_exit : float;  (** bad -> good transition probability per base *)
  p_good : float;  (** error probability per base in the good state (substitutions) *)
  p_bad : float;  (** error probability per base in the bad state *)
  bad_del : float;  (** fraction of bad-state errors that delete *)
  bad_ins : float;  (** fraction of bad-state errors that insert; the rest substitute *)
}

val default_params : params
(** Mean burst length 4nt, ~7% of bases inside a burst, long-run error
    rate about 3.5%. *)

val stationary_bad : params -> float
(** Long-run fraction of bases emitted from the bad state. *)

val mean_error_rate : params -> float
(** Long-run per-base error rate implied by the stationary state mix —
    the configured rate a scenario report compares the realized rate
    against. *)

val create : ?params:params -> unit -> Channel.t
(** Raises [Invalid_argument] on a probability outside [\[0, 1\]] or
    [bad_del + bad_ins > 1]. *)
