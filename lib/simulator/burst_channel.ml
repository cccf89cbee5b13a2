(** Nanopore-style bursty indel channel: a 2-state Gilbert-Elliott
    model.

    The channel walks the strand with a hidden state. In the {e good}
    state errors are rare and substitution-only (miscalls). Entering the
    {e bad} state — a stretch where the basecaller loses the signal —
    errors become frequent and indel-dominated, and because the state
    persists geometrically (mean burst length [1 / p_exit]), indels
    arrive in clustered runs rather than i.i.d. singles: exactly the
    regime that separates nanopore data from the Rashtchian baseline and
    that trace reconstruction finds hardest. *)

type params = {
  p_enter : float;  (** good -> bad transition probability per base *)
  p_exit : float;  (** bad -> good transition probability per base *)
  p_good : float;  (** error probability per base in the good state (substitutions) *)
  p_bad : float;  (** error probability per base in the bad state *)
  bad_del : float;  (** fraction of bad-state errors that delete *)
  bad_ins : float;  (** fraction of bad-state errors that insert; the rest substitute *)
}

let default_params =
  { p_enter = 0.02; p_exit = 0.25; p_good = 0.005; p_bad = 0.40; bad_del = 0.55; bad_ins = 0.25 }

let validate p =
  let prob name x = if x < 0.0 || x > 1.0 then invalid_arg ("Burst_channel: " ^ name ^ " out of range") in
  prob "p_enter" p.p_enter;
  prob "p_exit" p.p_exit;
  prob "p_good" p.p_good;
  prob "p_bad" p.p_bad;
  prob "bad_del" p.bad_del;
  prob "bad_ins" p.bad_ins;
  if p.bad_del +. p.bad_ins > 1.0 then
    invalid_arg "Burst_channel: bad_del + bad_ins must be at most 1"

(* Stationary probability of the bad state and the implied long-run
   per-base error rate (used by scenario reports as the configured
   rate). *)
let stationary_bad p =
  let d = p.p_enter +. p.p_exit in
  if d = 0.0 then 0.0 else p.p_enter /. d

let mean_error_rate p =
  let b = stationary_bad p in
  (b *. p.p_bad) +. ((1.0 -. b) *. p.p_good)

(* Per base: one uniform for the state transition, one uniform for
   the error trial, and (only when the trial lands on a substitution or
   insertion) the extra base draw. *)
let transmit_into p rng strand pool =
  let n = Dna.Strand.length strand in
  let bad = ref false in
  for i = 0 to n - 1 do
    let t = Dna.Rng.float rng in
    if !bad then (if t < p.p_exit then bad := false) else if t < p.p_enter then bad := true;
    let code = Dna.Strand.unsafe_get_code strand i in
    let u = Dna.Rng.float rng in
    if !bad then begin
      if u < p.p_bad *. p.bad_del then () (* deletion: base swallowed by the burst *)
      else if u < p.p_bad *. (p.bad_del +. p.bad_ins) then begin
        (* insertion before the current base; the base itself survives *)
        Dna.Strand_pool.emit pool (Dna.Rng.int rng 4);
        Dna.Strand_pool.emit pool code
      end
      else if u < p.p_bad then Dna.Strand_pool.emit pool ((code + 1 + Dna.Rng.int rng 3) land 3)
      else Dna.Strand_pool.emit pool code
    end
    else if u < p.p_good then Dna.Strand_pool.emit pool ((code + 1 + Dna.Rng.int rng 3) land 3)
    else Dna.Strand_pool.emit pool code
  done

let create ?(params = default_params) () =
  validate params;
  { Channel.name = "gilbert-elliott"; transmit_into = transmit_into params }
