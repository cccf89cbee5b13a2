(** The wetlab-channel abstraction.

    A channel turns one clean (synthesized) strand into one noisy read,
    modeling the composite effect of synthesis, storage, handling and
    sequencing (Section V). Channels are plain records so that users can
    swap in their own implementation of the simulation module. *)

type t = {
  name : string;
  transmit_into : Dna.Rng.t -> Dna.Strand.t -> Dna.Strand_pool.t -> unit;
      (* Emit the noisy read as the pool's open read, left uncommitted
         so the caller can reorient or truncate it. *)
}

(* A boxed model becomes an emitter by re-emitting its read: one
   transient strand per read, the model's own rng stream. *)
let create ~name transmit =
  let transmit_into rng strand pool =
    let read = transmit rng strand in
    for i = 0 to Dna.Strand.length read - 1 do
      Dna.Strand_pool.emit pool (Dna.Strand.unsafe_get_code read i)
    done
  in
  { name; transmit_into }

let name t = t.name
let transmit_into t rng strand pool = t.transmit_into rng strand pool

(* One read on its own: emit into a pool sized for it and hand back the
   committed read as a view. *)
let transmit t rng strand =
  let pool =
    Dna.Strand_pool.create ~capacity_bases:(Dna.Strand.length strand + 16) ~capacity_reads:1 ()
  in
  t.transmit_into rng strand pool;
  Dna.Strand_pool.get pool (Dna.Strand_pool.commit pool)

(* The identity channel: a perfect wetlab. Useful for tests and for
   isolating downstream modules. *)
let noiseless =
  {
    name = "noiseless";
    transmit_into =
      (fun _ s pool ->
        for i = 0 to Dna.Strand.length s - 1 do
          Dna.Strand_pool.emit pool (Dna.Strand.unsafe_get_code s i)
        done);
  }

(* Per-position error-rate estimate of a channel, measured by aligning
   reads against their source. Returns, for each clean-strand index, the
   fraction of transmissions in which that base was not matched
   exactly. *)
let measure_error_profile t rng ~strand_len ~trials =
  let errors = Array.make strand_len 0 in
  for _ = 1 to trials do
    let clean = Dna.Strand.random rng strand_len in
    let noisy = transmit t rng clean in
    let al = Dna.Alignment.align clean noisy in
    let i = ref 0 in
    List.iter
      (fun op ->
        match op with
        | Dna.Alignment.Match _ -> incr i
        | Dna.Alignment.Substitute _ | Dna.Alignment.Delete _ ->
            errors.(!i) <- errors.(!i) + 1;
            incr i
        | Dna.Alignment.Insert _ -> ())
      al.Dna.Alignment.script
  done;
  Array.map (fun e -> float_of_int e /. float_of_int trials) errors
