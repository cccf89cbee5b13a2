(** Sequencing-coverage model.

    Turns a pool of encoded strands into a shuffled bag of noisy reads by
    replicating each strand a variable number of times through a channel
    (Section III: "we variably replicate the strands and introduce
    errors"). Coverage can be fixed or Poisson-distributed around a mean,
    with optional molecule dropout modeling strands lost to synthesis or
    PCR skew. *)

type coverage =
  | Fixed of int  (** exactly this many reads per strand *)
  | Poisson of float  (** mean reads per strand *)

type params = {
  coverage : coverage;
  dropout : float;  (** probability a strand yields no reads at all *)
  p_reverse : float;  (** probability a read comes off in 3'->5' orientation *)
}

let default_params ~coverage = { coverage; dropout = 0.0; p_reverse = 0.0 }

let reads_for params rng =
  match params.coverage with
  | Fixed n -> n
  | Poisson mean -> Dna.Rng.poisson rng mean

(* Sequencing into an arena: the whole read bag lives in one pool —
   three flat arrays plus one int of origin per read — rather than one
   boxed strand per read. Per strand the draws are: the dropout float,
   the coverage draw, then per read the channel stream and the
   orientation float; one shuffle over the read count ends the run. *)
let sequence_pool params channel rng (strands : Dna.Strand.t array)
    ~(pool : Dna.Strand_pool.t) : int array =
  let base = Dna.Strand_pool.length pool in
  let origins = ref (Array.make 64 0) in
  let count = ref 0 in
  let push o =
    if !count >= Array.length !origins then begin
      let a = Array.make (2 * Array.length !origins) 0 in
      Array.blit !origins 0 a 0 !count;
      origins := a
    end;
    !origins.(!count) <- o;
    incr count
  in
  Array.iteri
    (fun origin strand ->
      if Dna.Rng.float rng < params.dropout then ()
      else begin
        let n = reads_for params rng in
        for _ = 1 to n do
          Channel.transmit_into channel rng strand pool;
          if params.p_reverse > 0.0 && Dna.Rng.float rng < params.p_reverse then
            Dna.Strand_pool.revcomp_open pool;
          if Dna.Strand_pool.open_length pool > 0 then begin
            ignore (Dna.Strand_pool.commit pool);
            push origin
          end
          else Dna.Strand_pool.rollback pool
        done
      end)
    strands;
  let n = !count in
  (* Shuffle the reversed generation order, not the generation order:
     the toolkit's reads were historically prepend-accumulated before
     the shuffle, and starting from that order keeps every seed's read
     stream unchanged. *)
  let perm = Array.init n (fun k -> n - 1 - k) in
  Dna.Rng.shuffle_in_place rng perm;
  Dna.Strand_pool.permute pool ~from:base perm;
  Array.init n (fun i -> !origins.(perm.(i)))

(* Per-strand depth for sequencing a primer-selected sub-pool of a
   shard: one run spends its read budget on the amplified selection, so
   depth rises as the selection narrows. Square-root scaling keeps the
   growth gentle and the result is clamped to [base, 4 * base] — a
   narrow selection reads deeper, never unboundedly so. *)
let shard_depth ~base ~n_selected ~n_shard =
  if n_selected <= 0 || base <= 0 then 0
  else begin
    let ratio = float_of_int (max n_shard n_selected) /. float_of_int n_selected in
    let scaled = int_of_float (float_of_int base *. sqrt ratio) in
    min (4 * base) (max base scaled)
  end
