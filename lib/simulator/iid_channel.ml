(** The baseline simulator of Rashtchian et al. [31] (Section V-A).

    At every index of the input strand an insertion, deletion or
    substitution is introduced with user-specified probabilities
    [p_ins], [p_del], [p_sub]; every index of every strand is trialed
    independently with the same probabilities. The paper implements this
    model as its naive baseline and shows it underestimates the
    difficulty of real wetlab data. *)

type params = { p_ins : float; p_del : float; p_sub : float }

let default_params ~error_rate =
  (* Split a total per-base error rate evenly across the three types,
     the convention used in the paper's Table II sweeps. *)
  let p = error_rate /. 3.0 in
  { p_ins = p; p_del = p; p_sub = p }

let validate { p_ins; p_del; p_sub } =
  if p_ins < 0.0 || p_del < 0.0 || p_sub < 0.0 || p_ins +. p_del +. p_sub > 1.0 then
    invalid_arg "Iid_channel: probabilities must be nonnegative and sum to at most 1"

(* Per base one uniform picks the event; an insertion then draws a
   uniform base and a substitution a shift of 1..3 from the original. *)
let transmit_into params rng strand pool =
  let n = Dna.Strand.length strand in
  for i = 0 to n - 1 do
    let code = Dna.Strand.unsafe_get_code strand i in
    let u = Dna.Rng.float rng in
    if u < params.p_ins then begin
      (* Insertion before the current base; the base itself survives. *)
      Dna.Strand_pool.emit pool (Dna.Rng.int rng 4);
      Dna.Strand_pool.emit pool code
    end
    else if u < params.p_ins +. params.p_del then () (* deletion *)
    else if u < params.p_ins +. params.p_del +. params.p_sub then
      Dna.Strand_pool.emit pool ((code + 1 + Dna.Rng.int rng 3) land 3)
    else Dna.Strand_pool.emit pool code
  done

let create params =
  validate params;
  { Channel.name = "rashtchian-iid"; transmit_into = transmit_into params }

let create_rate ~error_rate = create (default_params ~error_rate)
