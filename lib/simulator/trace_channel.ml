(** Trace-driven replay channel: error statistics fitted from real (or
    recorded) sequencer output.

    [fit] streams a FASTQ once (via {!Dna.Fastq.fold_file}, so traces of
    any size fit in constant memory) and estimates, for every read
    position, the per-base error probability implied by the Phred
    quality track: [p = 10^(-q/10)], averaged over the reads covering
    that position. The fitted profile is replayed as a channel: position
    [i] of a transmitted strand is hit with the trace's probability at
    [i] (clamped to the last fitted position for longer strands), and a
    hit becomes a substitution, deletion or insertion according to the
    [sub_frac]/[del_frac]/[ins_frac] split — FASTQ qualities do not
    distinguish error types, so the split is a parameter with
    nanopore-flavored defaults.

    This is the scenario engine's bridge to wetlab data the simulator
    survey says end-to-end toolkits lack: record a run once, replay its
    per-position error structure forever, deterministically. *)

type profile = {
  positions : float array;  (** per-position mean error probability *)
  mean_rate : float;  (** base-weighted mean of [positions] *)
  n_reads : int;  (** reads the fit consumed *)
  sub_frac : float;
  del_frac : float;
  ins_frac : float;
}

let default_splits = (0.55, 0.30, 0.15)

let phred_to_p q = 10.0 ** (-.float_of_int (max 0 q) /. 10.0)

let fit_qualities ?(splits = default_splits) (quals : int array list) =
  let sub_frac, del_frac, ins_frac = splits in
  if sub_frac < 0.0 || del_frac < 0.0 || ins_frac < 0.0 || sub_frac +. del_frac +. ins_frac > 1.0
  then invalid_arg "Trace_channel: splits must be nonnegative and sum to at most 1";
  let max_len = List.fold_left (fun a q -> max a (Array.length q)) 0 quals in
  if max_len = 0 then Error "trace fit: no positions (empty or missing quality tracks)"
  else begin
    let sums = Array.make max_len 0.0 and counts = Array.make max_len 0 in
    List.iter
      (fun q ->
        Array.iteri
          (fun i qi ->
            sums.(i) <- sums.(i) +. phred_to_p qi;
            counts.(i) <- counts.(i) + 1)
          q)
      quals;
    let positions =
      Array.mapi (fun i s -> if counts.(i) = 0 then 0.0 else s /. float_of_int counts.(i)) sums
    in
    let total_bases = Array.fold_left ( + ) 0 counts in
    let mean_rate =
      if total_bases = 0 then 0.0
      else Array.fold_left ( +. ) 0.0 sums /. float_of_int total_bases
    in
    Ok { positions; mean_rate; n_reads = List.length quals; sub_frac; del_frac; ins_frac }
  end

let fit ?splits path =
  match
    Dna.Fastq.fold_file path ~init:[] ~f:(fun acc r -> r.Dna.Fastq.qual :: acc)
  with
  | exception Sys_error msg -> Error ("trace fit: " ^ msg)
  | quals, _errors -> (
      match quals with
      | [] -> Error (Printf.sprintf "trace fit: no parseable records in %s" path)
      | quals -> fit_qualities ?splits quals)

(* Replay: one uniform per clean base; an insertion draws one extra
   base, a substitution one shift. *)

let rate_at profile ~i =
  let n = Array.length profile.positions in
  profile.positions.(if i < n then i else n - 1)

let transmit_into profile rng strand pool =
  let n = Dna.Strand.length strand in
  for i = 0 to n - 1 do
    let code = Dna.Strand.unsafe_get_code strand i in
    let p = rate_at profile ~i in
    let u = Dna.Rng.float rng in
    if u < p *. profile.ins_frac then begin
      (* insertion before the current base; the base itself survives *)
      Dna.Strand_pool.emit pool (Dna.Rng.int rng 4);
      Dna.Strand_pool.emit pool code
    end
    else if u < p *. (profile.ins_frac +. profile.del_frac) then () (* deletion *)
    else if u < p *. (profile.ins_frac +. profile.del_frac +. profile.sub_frac) then
      Dna.Strand_pool.emit pool ((code + 1 + Dna.Rng.int rng 3) land 3)
    else Dna.Strand_pool.emit pool code
  done

let create profile =
  if Array.length profile.positions = 0 then invalid_arg "Trace_channel: empty profile";
  {
    Channel.name = Printf.sprintf "trace(%d reads)" profile.n_reads;
    transmit_into = transmit_into profile;
  }

(* A deterministic stand-in trace for CI and demos: random bases with a
   nanopore-flavored quality track (clean center, noisy start from
   adapter effects, decaying 3' tail), written as a normal FASTQ so the
   fit path exercises exactly what a real recorded run would. *)
let write_synthetic ?(reads = 64) ?(len = 120) ~seed path =
  let rng = Dna.Rng.create seed in
  let q_at i =
    let x = float_of_int i /. float_of_int (max 1 (len - 1)) in
    let base = 24.0 -. (12.0 *. x *. x) -. (6.0 *. exp (-.float_of_int i /. 8.0)) in
    max 5 (min 40 (int_of_float base))
  in
  let records =
    List.init reads (fun k ->
        let seq = Dna.Strand.random rng len in
        let qual = Array.init len (fun i -> max 2 (q_at i + Dna.Rng.int rng 5 - 2)) in
        { Dna.Fastq.id = Printf.sprintf "trace_%d" k; seq; qual })
  in
  Dna.Fastq.write_file path records
