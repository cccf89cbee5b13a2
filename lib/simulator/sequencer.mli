(** Sequencing-coverage model: a pool of encoded strands becomes a
    shuffled bag of noisy reads. *)

type coverage =
  | Fixed of int  (** exactly this many reads per strand *)
  | Poisson of float  (** mean reads per strand *)

type params = {
  coverage : coverage;
  dropout : float;  (** probability a strand yields no reads at all *)
  p_reverse : float;  (** probability a read comes off in 3'->5' orientation *)
}

val default_params : coverage:coverage -> params
(** No dropout, no reverse reads. *)

val sequence_pool :
  params -> Channel.t -> Dna.Rng.t -> Dna.Strand.t array -> pool:Dna.Strand_pool.t -> int array
(** All reads for the strands, appended to [pool] and shuffled (a test
    tube has no order); empty reads are discarded. Read [base + i] of
    the pool, where [base] is the pool's length on entry, pairs with
    origin [result.(i)], the index of its source strand (ground truth
    for evaluation). Serial: every draw comes off the given rng, so a
    seed fixes the reads, their order and their origins.
    {!Dna.Strand_pool.to_array} gives the reads as boxed strands. *)

val shard_depth : base:int -> n_selected:int -> n_shard:int -> int
(** Per-strand depth for sequencing a primer-selected sub-pool of
    [n_selected] molecules out of a shard of [n_shard]: the run's read
    budget concentrates on the amplified selection, so depth scales as
    [base * sqrt (n_shard / n_selected)], clamped to [\[base, 4*base\]].
    0 when nothing is selected. The persistent store reads at this
    depth only in a get's deep pass (and in salvage reads): a get first
    reads at [base], and deepens to this depth when that pass fails the
    object's CRC-32. *)
