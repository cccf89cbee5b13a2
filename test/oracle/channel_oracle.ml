(* Boxed reference implementations of the native channel models, kept
   as the oracle for the emitters in [Simulator]'s [Iid_channel],
   [Solqc_channel], [Wetlab_channel], [Burst_channel], [Aging_channel]
   and [Trace_channel]. Each builds a fresh strand through a [Buffer]
   and must consume the rng exactly as the library channel does and
   return the same read: the tests run the production sequencer against
   [Read_oracle.sequence] over these functions, and the benches time
   them against the pooled loop.

   The private helpers the models read (the wetlab substitution matrix,
   the aging fraying weight, the trace rate lookup and the categorical
   sampler) are copied with them, so the oracle does not lean on the
   code it checks. Parameters are not validated here: the library's
   [create] functions do that once per channel. *)

let sample_dist rng (dist : float array) =
  let u = Dna.Rng.float rng in
  let rec pick i acc =
    if i >= Array.length dist - 1 then i
    else if acc +. dist.(i) >= u then i
    else pick (i + 1) (acc +. dist.(i))
  in
  pick 0 0.0

(* ---------- iid (Rashtchian et al.) ---------- *)

let iid (params : Simulator.Iid_channel.params) rng strand =
  let buf = Buffer.create (Dna.Strand.length strand + 8) in
  let n = Dna.Strand.length strand in
  for i = 0 to n - 1 do
    let base = Dna.Strand.get strand i in
    let u = Dna.Rng.float rng in
    if u < params.p_ins then begin
      (* Insertion before the current base; the base itself survives. *)
      Buffer.add_char buf (Dna.Nucleotide.to_char (Dna.Nucleotide.random rng));
      Buffer.add_char buf (Dna.Nucleotide.to_char base)
    end
    else if u < params.p_ins +. params.p_del then () (* deletion *)
    else if u < params.p_ins +. params.p_del +. params.p_sub then
      Buffer.add_char buf (Dna.Nucleotide.to_char (Dna.Nucleotide.random_other rng base))
    else Buffer.add_char buf (Dna.Nucleotide.to_char base)
  done;
  Dna.Strand.of_string (Buffer.contents buf)

(* ---------- SOLQC ---------- *)

let solqc (params : Simulator.Solqc_channel.params) rng strand =
  let buf = Buffer.create (Dna.Strand.length strand + 8) in
  let n = Dna.Strand.length strand in
  for i = 0 to n - 1 do
    let code = Dna.Strand.get_code strand i in
    let p = params.(code) in
    if Dna.Rng.float rng < p.Simulator.Solqc_channel.p_pre_ins then
      Buffer.add_char buf Dna.Strand.char_of_code.(sample_dist rng p.ins_dist);
    if Dna.Rng.float rng < p.p_del then ()
    else Buffer.add_char buf Dna.Strand.char_of_code.(sample_dist rng p.sub_dist)
  done;
  Dna.Strand.of_string (Buffer.contents buf)

(* ---------- wetlab stand-in ---------- *)

let wetlab_sub_matrix =
  [|
    [| 0.0; 0.2; 0.6; 0.2 |];
    [| 0.2; 0.0; 0.2; 0.6 |];
    [| 0.6; 0.2; 0.0; 0.2 |];
    [| 0.2; 0.6; 0.2; 0.0 |];
  |]

let wetlab (p : Simulator.Wetlab_channel.params) rng strand =
  let n = Dna.Strand.length strand in
  let buf = Buffer.create (n + 8) in
  let i = ref 0 in
  while !i < n do
    let w = Simulator.Wetlab_channel.position_weight p ~len:n !i in
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
      let code = Dna.Strand.get_code strand !i in
      Buffer.add_char buf Dna.Strand.char_of_code.(sample_dist rng wetlab_sub_matrix.(code));
      incr i
    end
    else if u < rate then begin
      Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.int rng 4);
      (* post-insertion: the original base still follows *)
      Buffer.add_char buf (Dna.Nucleotide.to_char (Dna.Strand.get strand !i));
      incr i
    end
    else begin
      Buffer.add_char buf (Dna.Nucleotide.to_char (Dna.Strand.get strand !i));
      incr i
    end
  done;
  let read = Buffer.contents buf in
  let read =
    if Dna.Rng.float rng < p.p_truncate && String.length read > 4 then begin
      let max_cut = int_of_float (p.truncate_max_frac *. float_of_int (String.length read)) in
      let cut = if max_cut = 0 then 0 else Dna.Rng.int rng (max_cut + 1) in
      String.sub read 0 (String.length read - cut)
    end
    else read
  in
  Dna.Strand.of_string read

(* ---------- Gilbert-Elliott bursts ---------- *)

let burst (p : Simulator.Burst_channel.params) rng strand =
  let n = Dna.Strand.length strand in
  let buf = Buffer.create (n + 8) in
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
        Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.int rng 4);
        Buffer.add_char buf Dna.Strand.char_of_code.(code)
      end
      else if u < p.p_bad then
        Buffer.add_char buf Dna.Strand.char_of_code.((code + 1 + Dna.Rng.int rng 3) land 3)
      else Buffer.add_char buf Dna.Strand.char_of_code.(code)
    end
    else if u < p.p_good then
      Buffer.add_char buf Dna.Strand.char_of_code.((code + 1 + Dna.Rng.int rng 3) land 3)
    else Buffer.add_char buf Dna.Strand.char_of_code.(code)
  done;
  Dna.Strand.of_string (Buffer.contents buf)

(* ---------- aging ---------- *)

let aging_position_weight (p : Simulator.Aging_channel.params) ~len i =
  if len <= 1 then 1.0 +. p.end_bias
  else begin
    let mid = float_of_int (len - 1) /. 2.0 in
    let d = (float_of_int i -. mid) /. mid in
    1.0 +. (p.end_bias *. d *. d)
  end

let aging (p : Simulator.Aging_channel.params) rng strand =
  let n = Dna.Strand.length strand in
  let rate = Simulator.Aging_channel.per_base_rate p in
  let buf = Buffer.create (n + 1) in
  let i = ref 0 and nicked = ref false in
  while (not !nicked) && !i < n do
    let u = Dna.Rng.float rng in
    if u < rate *. aging_position_weight p ~len:n !i then begin
      if Dna.Rng.float rng < p.sub_fraction then begin
        let code = Dna.Strand.unsafe_get_code strand !i in
        Buffer.add_char buf Dna.Strand.char_of_code.((code + 1 + Dna.Rng.int rng 3) land 3)
      end
      else nicked := true (* backbone cleaved: the 3' remainder is lost *)
    end
    else Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Strand.unsafe_get_code strand !i);
    incr i
  done;
  Dna.Strand.of_string (Buffer.contents buf)

(* The pool-level archive over [aging]: drop, damage, discard wrecks. *)
let age_pool (params : Simulator.Aging_channel.params) rng (strands : Dna.Strand.t array) =
  let p_drop = Simulator.Aging_channel.dropout params in
  let out = ref [] in
  Array.iter
    (fun s ->
      if Dna.Rng.float rng >= p_drop then begin
        let aged = aging params rng s in
        if Dna.Strand.length aged > 0 then out := aged :: !out
      end)
    strands;
  Array.of_list (List.rev !out)

(* ---------- trace replay ---------- *)

let trace_rate_at (profile : Simulator.Trace_channel.profile) ~i =
  let n = Array.length profile.positions in
  profile.positions.(if i < n then i else n - 1)

let trace (profile : Simulator.Trace_channel.profile) rng strand =
  let n = Dna.Strand.length strand in
  let buf = Buffer.create (n + 8) in
  for i = 0 to n - 1 do
    let code = Dna.Strand.unsafe_get_code strand i in
    let p = trace_rate_at profile ~i in
    let u = Dna.Rng.float rng in
    if u < p *. profile.ins_frac then begin
      (* insertion before the current base; the base itself survives *)
      Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.int rng 4);
      Buffer.add_char buf Dna.Strand.char_of_code.(code)
    end
    else if u < p *. (profile.ins_frac +. profile.del_frac) then () (* deletion *)
    else if u < p *. (profile.ins_frac +. profile.del_frac +. profile.sub_frac) then
      Buffer.add_char buf Dna.Strand.char_of_code.((code + 1 + Dna.Rng.int rng 3) land 3)
    else Buffer.add_char buf Dna.Strand.char_of_code.(code)
  done;
  Dna.Strand.of_string (Buffer.contents buf)
