(** A data-driven channel estimated from paired (clean, noisy) reads.

    This is the count-based counterpart of the RNN simulator: every pair
    is aligned with Needleman-Wunsch and the edit script is folded into

    - per-position insertion rates and deletion-burst *start* rates,
    - per-position substitution rates with a global base-to-base matrix,
    - a histogram of deletion-run lengths (burstiness),
    - a distribution over inserted bases.

    Sampling replays those statistics generatively. Unlike the i.i.d. and
    SOLQC models, this captures the position dependence and error bursts
    that Section V-A identifies as the gap between naive simulation and
    wetlab data. All strands of one dataset share a nominal length, so
    positions index directly into the profile arrays. *)

type model = {
  len : int;  (** nominal clean-strand length *)
  n_pairs : int;
  p_ins : float array;  (** per position: insertion before this base *)
  p_del_start : float array;  (** per position: a deletion run starts here *)
  p_sub : float array;  (** per position: substitution of this base *)
  sub_matrix : float array array;  (** [original].(read) distribution *)
  ins_dist : float array;  (** distribution of inserted bases *)
  run_length : float array;  (** deletion-run length distribution, index 0 = length 1 *)
  p_tail_ins : float;  (** insertion appended after the final base *)
}

let max_run = 16

let train (pairs : (Dna.Strand.t * Dna.Strand.t) list) : model =
  let len =
    match pairs with
    | [] -> invalid_arg "Learned_channel.train: empty dataset"
    | (clean, _) :: _ -> Dna.Strand.length clean
  in
  let n_pairs = List.length pairs in
  let ins = Array.make len 0 and del_start = Array.make len 0 and sub = Array.make len 0 in
  let subm = Array.make_matrix 4 4 0 in
  let insd = Array.make 4 0 in
  let runs = Array.make max_run 0 in
  let tail_ins = ref 0 in
  List.iter
    (fun (clean, noisy) ->
      if Dna.Strand.length clean <> len then
        invalid_arg "Learned_channel.train: inconsistent strand lengths";
      let al = Dna.Alignment.align clean noisy in
      let pos = ref 0 in
      let run = ref 0 in
      let flush_run () =
        if !run > 0 then begin
          let start = !pos - !run in
          if start < len then del_start.(start) <- del_start.(start) + 1;
          let bucket = min (max_run - 1) (!run - 1) in
          runs.(bucket) <- runs.(bucket) + 1;
          run := 0
        end
      in
      List.iter
        (fun op ->
          match op with
          | Dna.Alignment.Match _ ->
              flush_run ();
              incr pos
          | Dna.Alignment.Substitute (a, b) ->
              flush_run ();
              if !pos < len then sub.(!pos) <- sub.(!pos) + 1;
              subm.(Dna.Nucleotide.to_code a).(Dna.Nucleotide.to_code b) <-
                subm.(Dna.Nucleotide.to_code a).(Dna.Nucleotide.to_code b) + 1;
              incr pos
          | Dna.Alignment.Delete _ ->
              run := !run + 1;
              incr pos
          | Dna.Alignment.Insert b ->
              flush_run ();
              if !pos < len then ins.(!pos) <- ins.(!pos) + 1 else incr tail_ins;
              insd.(Dna.Nucleotide.to_code b) <- insd.(Dna.Nucleotide.to_code b) + 1)
        al.Dna.Alignment.script;
      flush_run ())
    pairs;
  let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let norm counts =
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then Array.make (Array.length counts) (1.0 /. float_of_int (Array.length counts))
    else Array.map (fun c -> fdiv c total) counts
  in
  {
    len;
    n_pairs;
    p_ins = Array.map (fun c -> fdiv c n_pairs) ins;
    p_del_start = Array.map (fun c -> fdiv c n_pairs) del_start;
    p_sub = Array.map (fun c -> fdiv c n_pairs) sub;
    sub_matrix =
      Array.init 4 (fun a ->
          (* A base never "substitutes" to itself in an edit script; drop
             any such count before normalizing. *)
          let counts = Array.mapi (fun b c -> if b = a then 0 else c) subm.(a) in
          if Array.for_all (( = ) 0) counts then
            Array.init 4 (fun b -> if b = a then 0.0 else 1.0 /. 3.0)
          else norm counts);
    ins_dist = norm insd;
    run_length = norm runs;
    p_tail_ins = fdiv !tail_ins n_pairs;
  }

let transmit (m : model) rng strand =
  let n = Dna.Strand.length strand in
  let buf = Buffer.create (n + 8) in
  let i = ref 0 in
  while !i < n do
    (* Positions beyond the trained profile reuse the last bucket. *)
    let p = min !i (m.len - 1) in
    if Dna.Rng.float rng < m.p_ins.(p) then
      Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.categorical rng m.ins_dist);
    if Dna.Rng.float rng < m.p_del_start.(p) then begin
      let run = 1 + Dna.Rng.categorical rng m.run_length in
      i := !i + run
    end
    else begin
      let code = Dna.Strand.get_code strand !i in
      if Dna.Rng.float rng < m.p_sub.(p) then
        Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.categorical rng m.sub_matrix.(code))
      else Buffer.add_char buf Dna.Strand.char_of_code.(code);
      incr i
    end
  done;
  if Dna.Rng.float rng < m.p_tail_ins then
    Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.categorical rng m.ins_dist);
  Dna.Strand.of_string (Buffer.contents buf)

let create model = Channel.create ~name:"learned-empirical" (transmit model)
