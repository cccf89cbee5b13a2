(** The toolkit's one timer: a monotonic clock, so a stage time never
    jumps with wall-clock adjustments. Every latency the library reports
    ([Pipeline.timings], [Par] counters, clustering stats, serve rounds,
    scenario cells) is a difference of two {!now} readings. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin. Only differences and
    comparisons of two readings are meaningful. *)
