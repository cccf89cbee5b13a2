(** A SOLQC-style probabilistic channel (Sabary et al. [32]).

    Error probabilities are conditioned on the nucleotide: each base has
    its own substitution distribution, deletion probability, and
    *pre-insertion* probability (an insertion placed before the base).
    As the paper notes, SOLQC models pre-insertions but not
    post-insertions, which makes forward reconstruction harder than
    reverse reconstruction. *)

type base_params = {
  p_del : float;
  p_pre_ins : float;
  ins_dist : float array;  (** distribution over the inserted base, length 4 *)
  sub_dist : float array;  (** substitution distribution over 4 bases; own base = no-op mass *)
}

type params = base_params array (* indexed by base code 0..3 *)

(* Defaults loosely shaped like published Illumina nucleotide biases:
   C and G slightly more error-prone, A->G / T->C transitions favored. *)
let default_params ~error_rate : params =
  let e = error_rate in
  let mk ~bias ~own sub =
    {
      p_del = e *. 0.35 *. bias;
      p_pre_ins = e *. 0.25 *. bias;
      ins_dist = [| 0.25; 0.25; 0.25; 0.25 |];
      sub_dist =
        (let total = e *. 0.4 *. bias in
         Array.mapi (fun i w -> if i = own then 1.0 -. total else total *. w) sub);
    }
  in
  [|
    (* A: transitions to G favored *)
    mk ~bias:0.9 ~own:0 [| 0.0; 0.2; 0.6; 0.2 |];
    (* C: to T favored *)
    mk ~bias:1.15 ~own:1 [| 0.2; 0.0; 0.2; 0.6 |];
    (* G: to A favored *)
    mk ~bias:1.15 ~own:2 [| 0.6; 0.2; 0.0; 0.2 |];
    (* T: to C favored *)
    mk ~bias:0.9 ~own:3 [| 0.2; 0.6; 0.2; 0.0 |];
  |]

let transmit_into (params : params) rng strand pool =
  let n = Dna.Strand.length strand in
  for i = 0 to n - 1 do
    let code = Dna.Strand.unsafe_get_code strand i in
    let p = params.(code) in
    if Dna.Rng.float rng < p.p_pre_ins then
      Dna.Strand_pool.emit pool (Dna.Rng.categorical rng p.ins_dist);
    if Dna.Rng.float rng < p.p_del then ()
    else Dna.Strand_pool.emit pool (Dna.Rng.categorical rng p.sub_dist)
  done

let create params = { Channel.name = "solqc"; transmit_into = transmit_into params }
let create_rate ~error_rate = create (default_params ~error_rate)
