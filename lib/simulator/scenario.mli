(** Declarative scenario engine: composable channel stacks with fault
    floors, serializable to JSON, replayable bit-identically from
    (scenario, seed).

    A scenario stacks pool-level physics ({!stage.Age} decay,
    {!stage.Amplify} PCR bias) with read-level channels ({!channel_spec})
    in declaration order. {!build} compiles the stack into the pipeline's
    two hooks: a composed {!Channel.t} and an optional pool [prepare]
    function. Floors name fault plans by string — resolved one layer up,
    in [Scenario_run], because this layer cannot see [Faults]. *)

type channel_spec =
  | Noiseless
  | Iid of float  (** total error rate, split evenly across ins/del/sub *)
  | Wetlab of float  (** base_error scale on {!Wetlab_channel.default_params} *)
  | Burst of Burst_channel.params
  | Trace of string  (** FASTQ path the profile is fitted from *)

type stage =
  | Age of Aging_channel.params  (** pool: dropout + damage *)
  | Amplify of { pcr : Pcr.params; depth_factor : float }
      (** pool: amplify, then draw [depth_factor * n] molecules back *)
  | Read of channel_spec  (** per-read channel, composed in order *)

type t = {
  name : string;
  description : string;
  stages : stage list;
  floors : (string * float) list;
      (** fault-plan name -> recovered-fraction floor. The only home of
          floors: a sweep that names no plans runs these. *)
}

type built = {
  channel : Channel.t;
      (** read stages chained in order: each stage reads the previous
          stage's whole read, the last one writes into the pool *)
  prepare : (Dna.Rng.t -> Dna.Strand.t array -> Dna.Strand.t array) option;
      (** pool stages folded in order; [None] when there are none *)
  configured_error_rate : float;
      (** analytic per-base rate of the read-level stack (iid rate,
          burst stationary rate, wetlab base error, fitted trace mean) *)
}

val build : t -> (built, string) result
(** [Error] on an unreadable trace path or invalid stage parameters. *)

val stage_label : stage -> string
(** One compact human label, e.g. ["age 10y"], ["pcr x12 sd0.25 depth1.0"]. *)

val summary : t -> string
(** The stage labels joined with [" -> "]. *)

val has_trace : t -> bool
val with_trace_path : t -> string -> t
(** Point every [Read (Trace _)] stage at [path]. *)

(** {2 JSON} — the interchange format for sweep configs and benchmark
    artifacts. [of_string (to_string t) = Ok t]. *)

val to_json : t -> Store_json.t
val of_json : Store_json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result

(** {2 Builtin registry} *)

val builtins : t list
(** baseline-iid (the pipeline's default channel, with a floor for every
    named fault plan), aging-5y, pcr-bias, nanopore-burst,
    archival-decade (the full aging + PCR-bias + burst stack) and
    trace-replay. *)

val find : string -> t option
