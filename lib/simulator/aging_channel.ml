(** Decay-over-time channel: what [years] of storage do to a molecule.

    Archived DNA degrades through three slow per-day processes —
    thermal depurination, hydrolytic backbone cleavage, and oxidative
    base lesions (the degradation factors of the biological storage
    managers this models). Integrated over the simulated storage period
    they yield one cumulative damage exposure, expressed here as

    - whole-strand loss: a molecule survives the archive with
      probability [exp (-cumulative)] (applied at pool level by the
      scenario engine via {!dropout});
    - per-base damage on surviving molecules: each base is hit with a
      position-biased probability (strand ends fray first). A hit is
      either an oxidative lesion — the sequencer misreads the base, a
      substitution — or a nick: the backbone is cleaved and the read
      terminates there (the 3' remainder is lost).

    Rates are per-base per-day fractions of the whole-strand decay
    constant, so doubling [years] doubles both dropout pressure and
    per-base damage. *)

type params = {
  years : float;  (** simulated storage time *)
  thermal_per_day : float;  (** depurination rate contribution per day *)
  hydrolytic_per_day : float;  (** backbone hydrolysis per day *)
  oxidative_per_day : float;  (** base oxidation per day *)
  per_base_scale : float;
      (** fraction of the cumulative whole-strand exposure that lands as
          per-base damage on surviving molecules *)
  sub_fraction : float;  (** damage events that read back as substitutions; the rest nick *)
  end_bias : float;  (** extra damage multiplier at strand ends (fraying) *)
}

(* Cold-storage rates: after 5 years, ~8% whole-strand loss, ~0.1%
   per-base lesion rate on survivors, and rare nicks. Pool-level damage
   is far more costly than read noise — every read of the molecule
   shares it, so consensus faithfully reproduces it and only the
   cross-strand RS parity can absorb it (and a lesion in the strand's
   index header misaddresses the whole molecule). The defaults sit
   inside a default RS budget at 5 years and visibly eat into the
   parity margin when [years] doubles. *)
let default_params =
  {
    years = 5.0;
    thermal_per_day = 2.5e-5;
    hydrolytic_per_day = 1.5e-5;
    oxidative_per_day = 6e-6;
    per_base_scale = 0.012;
    sub_fraction = 0.98;
    end_bias = 1.5;
  }

let validate p =
  if p.years < 0.0 then invalid_arg "Aging_channel: years must be nonnegative";
  if p.thermal_per_day < 0.0 || p.hydrolytic_per_day < 0.0 || p.oxidative_per_day < 0.0 then
    invalid_arg "Aging_channel: per-day rates must be nonnegative";
  if p.per_base_scale < 0.0 || p.per_base_scale > 1.0 then
    invalid_arg "Aging_channel: per_base_scale out of range";
  if p.sub_fraction < 0.0 || p.sub_fraction > 1.0 then
    invalid_arg "Aging_channel: sub_fraction out of range";
  if p.end_bias < 0.0 then invalid_arg "Aging_channel: end_bias must be nonnegative"

(* Cumulative damage exposure over the storage period. *)
let cumulative p =
  p.years *. 365.25 *. (p.thermal_per_day +. p.hydrolytic_per_day +. p.oxidative_per_day)

let survival p = exp (-.cumulative p)
let dropout p = 1.0 -. survival p
let per_base_rate p = min 0.5 (cumulative p *. p.per_base_scale)

(* Fraying bias: ends take up to [1 + end_bias] times the midpoint
   damage, quadratic in the distance from the center. *)
let position_weight p ~len i =
  if len <= 1 then 1.0 +. p.end_bias
  else begin
    let mid = float_of_int (len - 1) /. 2.0 in
    let d = (float_of_int i -. mid) /. mid in
    1.0 +. (p.end_bias *. d *. d)
  end

(* Per base one uniform for the damage trial; on damage a second
   uniform classifies it; a substitution draws one more int for the
   replacement base. A nick ends the read — no further draws for the
   lost tail. *)
let transmit_into p rng strand pool =
  let n = Dna.Strand.length strand in
  let rate = per_base_rate p in
  let i = ref 0 and nicked = ref false in
  while (not !nicked) && !i < n do
    let u = Dna.Rng.float rng in
    if u < rate *. position_weight p ~len:n !i then begin
      if Dna.Rng.float rng < p.sub_fraction then begin
        let code = Dna.Strand.unsafe_get_code strand !i in
        Dna.Strand_pool.emit pool ((code + 1 + Dna.Rng.int rng 3) land 3)
      end
      else nicked := true (* backbone cleaved: the 3' remainder is lost *)
    end
    else Dna.Strand_pool.emit pool (Dna.Strand.unsafe_get_code strand !i);
    incr i
  done

let create ?(params = default_params) () =
  validate params;
  {
    Channel.name = Printf.sprintf "aging(%.1fy)" params.years;
    transmit_into = transmit_into params;
  }

(* Pool-level application: each archived molecule is independently lost
   with probability [dropout p]; survivors carry the per-base damage of
   one pass through the channel. Zero-length wrecks are discarded. *)
let age_pool ?(params = default_params) rng (strands : Dna.Strand.t array) : Dna.Strand.t array =
  let channel = create ~params () in
  let p_drop = dropout params in
  let out = ref [] in
  Array.iter
    (fun s ->
      if Dna.Rng.float rng >= p_drop then begin
        let aged = Channel.transmit channel rng s in
        if Dna.Strand.length aged > 0 then out := aged :: !out
      end)
    strands;
  Array.of_list (List.rev !out)
