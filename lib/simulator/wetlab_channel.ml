(** The "real wetlab" stand-in channel.

    The paper evaluates its simulators against real sequenced data (270K
    Nanopore reads [35]); that dataset is not available here, so this
    module plays the role of the physical wetlab: a deliberately rich
    channel exhibiting the three properties Section V-A says naive
    simulators miss —

    - position-dependent error rates (errors concentrate toward the 3'
      end as synthesis errors accumulate, with a smaller bump at the
      start from sequencing adapter effects);
    - error bursts (deletion runs with geometrically distributed length);
    - nucleotide-biased substitutions (transition-favoring matrix).

    The learned simulators are trained on paired (clean, noisy) samples
    drawn from this channel *without access to its parameters*, mirroring
    how the paper trains on real paired reads. Experiments treat this
    channel's output as "Real". *)

type params = {
  base_error : float;  (** overall scale; ~per-base event probability *)
  start_bump : float;  (** extra multiplier at index 0, decaying *)
  start_tau : float;  (** decay length of the start bump *)
  end_ramp : float;  (** extra multiplier at the last index, quadratic ramp *)
  p_burst : float;  (** fraction of deletion events that open a burst *)
  burst_continue : float;  (** geometric continuation probability of a burst *)
  p_truncate : float;  (** probability the read tail is lost entirely *)
  truncate_max_frac : float;  (** at most this fraction of the read is lost *)
}

let default_params =
  {
    base_error = 0.10;
    start_bump = 0.8;
    start_tau = 12.0;
    end_ramp = 1.2;
    p_burst = 0.18;
    burst_continue = 0.45;
    p_truncate = 0.01;
    truncate_max_frac = 0.25;
  }

(* Positional multiplier: 1 + bump * exp(-i/tau) + ramp * (i/L)^2. *)
let position_weight p ~len i =
  let x = float_of_int i in
  let l = float_of_int (max 1 (len - 1)) in
  1.0 +. (p.start_bump *. exp (-.x /. p.start_tau)) +. (p.end_ramp *. ((x /. l) ** 2.0))

(* Transition-biased substitution: A<->G and C<->T twice as likely as
   transversions. Rows: original base; columns: read base. *)
let sub_matrix =
  [|
    [| 0.0; 0.2; 0.6; 0.2 |];
    [| 0.2; 0.0; 0.2; 0.6 |];
    [| 0.6; 0.2; 0.0; 0.2 |];
    [| 0.2; 0.6; 0.2; 0.0 |];
  |]

let transmit_into p rng strand pool =
  let n = Dna.Strand.length strand in
  let i = ref 0 in
  while !i < n do
    let w = position_weight p ~len:n !i in
    let rate = p.base_error *. w in
    (* Event split at this position: 35% deletion, 40% substitution,
       25% insertion (matching rough Nanopore indel dominance). *)
    let u = Dna.Rng.float rng in
    if u < rate *. 0.35 then begin
      (* Deletion; possibly a burst. *)
      if Dna.Rng.float rng < p.p_burst then begin
        let burst = ref 1 in
        while Dna.Rng.float rng < p.burst_continue do
          incr burst
        done;
        i := !i + !burst
      end
      else incr i
    end
    else if u < rate *. 0.75 then begin
      let code = Dna.Strand.unsafe_get_code strand !i in
      Dna.Strand_pool.emit pool (Dna.Rng.categorical rng sub_matrix.(code));
      incr i
    end
    else if u < rate then begin
      Dna.Strand_pool.emit pool (Dna.Rng.int rng 4);
      (* post-insertion: the original base still follows *)
      Dna.Strand_pool.emit pool (Dna.Strand.unsafe_get_code strand !i);
      incr i
    end
    else begin
      Dna.Strand_pool.emit pool (Dna.Strand.unsafe_get_code strand !i);
      incr i
    end
  done;
  (* Tail truncation: the open read is cut in place. *)
  let len = Dna.Strand_pool.open_length pool in
  if Dna.Rng.float rng < p.p_truncate && len > 4 then begin
    let max_cut = int_of_float (p.truncate_max_frac *. float_of_int len) in
    let cut = if max_cut = 0 then 0 else Dna.Rng.int rng (max_cut + 1) in
    Dna.Strand_pool.truncate_open pool (len - cut)
  end

let create ?(params = default_params) () =
  { Channel.name = "wetlab-real"; transmit_into = transmit_into params }
