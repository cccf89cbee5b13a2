(** The distributed clustering algorithm of Rashtchian et al.
    (Section VI), with the w-gram variant (Section VI-C).

    Iterative merging of per-cluster representatives: random anchors
    partition the clusters, signatures are compared within partitions,
    and only the ambiguous middle band pays for an edit-distance
    comparison. Partitions are processed in parallel; the result does
    not depend on worker interleaving. *)

type params = {
  rounds : int;  (** maximum rounds; the loop stops early once converged *)
  stall_rounds : int;  (** stop after this many consecutive merge-free rounds *)
  anchor_len : int;
  partition_len : int;  (** bases following the anchor that key the partition *)
  gram_len : int;  (** q: signatures cover the 4^q gram dictionary *)
  kind : Signature.kind;
  theta_low : int;  (** at or below: merge without an edit check *)
  theta_high : int;  (** above: never merge *)
  edit_threshold : int;  (** merge when edit distance is at most this *)
  domains : int;  (** worker domains for partition processing *)
}

val default_params : ?kind:Signature.kind -> read_len:int -> unit -> params
(** Conservative defaults; fit the thresholds with {!Auto_config}
    instead. *)

type stats = {
  mutable signature_comparisons : int;
  mutable edit_comparisons : int;
  mutable merges : int;
  mutable signature_time : float;  (** seconds spent computing signatures *)
  mutable clustering_time : float;  (** total wall-clock of the run *)
}

type result = {
  assignment : int array;  (** cluster root per read index *)
  clusters : int array list;  (** member read indices per cluster *)
  stats : stats;
}

val run_scaled : params -> Dna.Rng.t -> Dna.Strand.t array -> result
(** Cluster [reads] on flat arrays: reservoir-sampled representatives,
    integer partition keys bucketed by counting sort, and a packed
    {!Signature.Index} (sharded parallel build, SWAR popcount
    distances). A bucket skips the pairs its round has already joined,
    so [stats] counts only the comparisons made. All rng draws are
    serial and bucket segments are compared over the order-preserving
    Par pool, so the assignment is
    bit-identical for every [domains] value. To cluster an arena read
    pool, pass [Dna.Strand_pool.to_array pool]: zero-copy views into the
    pool's packed buffer. *)
