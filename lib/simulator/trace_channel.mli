(** Trace-driven replay channel: per-position error statistics fitted
    from an imported FASTQ (streamed via {!Dna.Fastq.fold_file}) and
    replayed as a {!Channel.t}. Phred qualities give the per-position
    error probability; the substitution/deletion/insertion split is a
    parameter since qualities do not distinguish error types. *)

type profile = {
  positions : float array;  (** per-position mean error probability *)
  mean_rate : float;  (** base-weighted mean of [positions] *)
  n_reads : int;  (** reads the fit consumed *)
  sub_frac : float;
  del_frac : float;
  ins_frac : float;
}

val default_splits : float * float * float
(** (sub, del, ins) = (0.55, 0.30, 0.15): nanopore-flavored. *)

val phred_to_p : int -> float
(** [10^(-q/10)], the error probability a Phred score encodes. *)

val fit : ?splits:float * float * float -> string -> (profile, string) result
(** Stream a FASTQ once and fit the per-position profile. [Error] on an
    unreadable file, no parseable records, or an all-empty quality
    track; raises [Invalid_argument] on malformed [splits]. *)

val fit_qualities : ?splits:float * float * float -> int array list -> (profile, string) result
(** The fit on already-decoded quality tracks (what [fit] folds into). *)

val create : profile -> Channel.t
(** Raises [Invalid_argument] on an empty profile. *)

val write_synthetic : ?reads:int -> ?len:int -> seed:int -> string -> unit
(** Write a deterministic stand-in trace (random bases, nanopore-shaped
    quality track) for CI sweeps and demos. *)
