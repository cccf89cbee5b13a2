(** Deterministic fault injection (the robustness harness).

    A {!plan} pairs a fault list with a seed; every injection draws from
    a stream derived from that seed alone, never from the pipeline's
    ambient rng, so a scenario replays bit-identically and fault sites
    stay independent of each other. Wire a plan into
    {!Pipeline.run} via its [?faults] argument. *)

type stage = Encode | Simulate | Cluster | Reconstruct | Decode

val stage_name : stage -> string

exception Crash of stage
(** Raised by a {!Stage_crash} fault on stage entry. *)

exception Stuck of stage
(** Raised by a {!Stage_stuck} fault: a hang detected and killed by a
    watchdog, modeled as an exception. *)

type fault =
  | Strand_dropout of float
      (** each encoded strand lost before sequencing with this
          probability (synthesis failure / PCR skew) *)
  | Undersampling of float
      (** oligo-pool undersampling: only this fraction of reads is
          sampled, uniformly without replacement *)
  | Read_truncation of { p : float; keep_min : float }
      (** each read truncated with probability [p] to a uniform fraction
          of its length in [keep_min, 1) *)
  | Read_corruption of float
      (** extra per-base substitution rate on every read *)
  | Cluster_loss of float
      (** each cluster dropped whole with this probability *)
  | Stage_crash of stage
  | Stage_stuck of stage

val fault_name : fault -> string

type plan = { seed : int; faults : fault list }

val plan : ?seed:int -> fault list -> plan

val trigger : plan -> stage -> unit
(** Raise {!Crash} or {!Stuck} if the plan injects one at this stage;
    otherwise a no-op. Pure apart from the raise: safe to call from
    parallel tasks. *)

val inject_strands : plan -> Dna.Strand.t array -> Dna.Strand.t array
(** Apply pool-level faults ({!Strand_dropout}) between encode and
    sequencing. *)

val inject_reads : plan -> Dna.Strand.t array -> Dna.Strand.t array
(** Apply read-level faults ({!Undersampling}, {!Read_truncation},
    {!Read_corruption}) between sequencing and clustering. *)

val inject_cluster_slices : plan -> int array list -> int array list
(** Apply {!Cluster_loss} between clustering and reconstruction, over
    the pipeline's cluster index-slices. *)

(** {2 The named scenario matrix} *)

type scenario = {
  scenario_name : string;
  scenario_faults : fault list;
  min_recovered : float;
      (** recovered-fraction floor this scenario must report (0.0 when
          the fault budget intentionally exceeds the RS erasure budget
          and only never-raise is asserted) *)
}

val scenarios : scenario list
(** Dropout, cluster loss, truncation, corruption, undersampling,
    combined, and stage crash/stuck scenarios — all within (or
    deliberately beyond, with [min_recovered = 0.0]) the codec's
    documented budgets. *)

val find_scenario : string -> scenario option

val plan_of_scenario : seed:int -> scenario -> plan
