(** Execute declarative scenarios ({!Simulator.Scenario}) through
    {!Pipeline.run}, resolving floor names against the {!Faults} plan
    registry. This is the one robustness harness: {!run} is the only
    place a cell is compared with its floor and replayed. One seed
    fixes the pipeline rng, the fault plan and the error-rate probe, so
    equal (scenario, fault, seed, data) replays bit-identically. *)

type outcome = {
  scenario : string;
  fault : string;  (** fault-plan name from {!Faults.plans} *)
  seed : int;
  n_bytes : int;
  exact : bool;
  recovered_fraction : float;
  units : int * int * int;  (** encoding units recovered / degraded / lost *)
  degraded : string list;  (** stages that raised and were degraded, oldest first *)
  digest : string;  (** MD5 (hex) of the decoded bytes; [""] when there are none *)
  replayed : bool;  (** the rerun reproduced the outcome ({!Pipeline.replays}) *)
  configured_error_rate : float;
      (** analytic per-base rate of the scenario's read-level stack *)
  realized_error_rate : float;
      (** measured by probing the composed channel against known
          strands: substitutions and deletions per source base
          ({!Simulator.Channel.measure_error_profile}), so insertions
          are not counted and an iid channel reads below its configured
          rate (iid 6% reads about 4%) *)
  floor : float option;
      (** the scenario's recovered-fraction floor for this fault plan *)
  floor_met : bool;  (** [recovered_fraction >= floor] (true when no floor) *)
  wall_s : float;  (** the first run's wall time; the replay is not counted *)
}

val realized_rate : ?strand_len:int -> ?trials:int -> Simulator.Channel.t -> seed:int -> float
(** Mean per-base error rate of a channel, measured on a stream derived
    from (not equal to) [seed] so probing never perturbs a replay. *)

val run :
  ?params:Codec.Params.t ->
  ?layout:Codec.Layout.t ->
  ?coverage:int ->
  ?domains:int ->
  ?fault:string ->
  seed:int ->
  data:Bytes.t ->
  Simulator.Scenario.t ->
  (outcome, string) result
(** One cell: encode [data], apply the scenario's pool stages and
    composed channel, inject the named fault plan (default ["clean"]),
    recover; then run it all again and record whether the rerun
    reproduced it. [Error] on an unknown fault name or an unbuildable
    scenario (e.g. an unreadable trace path). *)

val sweep :
  ?params:Codec.Params.t ->
  ?layout:Codec.Layout.t ->
  ?coverage:int ->
  ?domains:int ->
  ?faults:string list ->
  seeds:int list ->
  data:Bytes.t ->
  Simulator.Scenario.t list ->
  (outcome list, string) result
(** The full matrix through {!run}, scenario-major then fault then seed.
    Without [faults], each scenario sweeps the plans its floors name, in
    their order. Also checks that every floor a swept scenario declares
    names a known fault plan (even ones this sweep does not exercise). *)

val failures : outcome list -> outcome list
(** The cells below their floor or whose replay diverged. *)

val outcome_json : outcome -> Store_json.t
val outcomes_json : outcome list -> Store_json.t
(** The sweep artifact shape: [{"cells": [...], "n_cells": n,
    "n_failed": k}]; a cell's ["passed"] is [floor_met && replayed]. *)
