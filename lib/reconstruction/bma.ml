(** Bitwise Majority Alignment with lookahead (Section VII-A, after
    Organick et al. [25]) and its double-sided variant (Section VII-B,
    after Lin et al. [23]).

    Every read keeps a pointer. Each step takes the majority vote of the
    pointed-at bases to fix the next consensus base; reads that disagree
    are realigned by guessing the most likely edit (substitution,
    insertion or deletion) from a small lookahead window. A wrong guess
    propagates: single-sided BMA grows less reliable toward the far end
    of the strand, and double-sided BMA meets in the middle, which is
    exactly the positional reliability skew that motivates the Gini and
    DNAMapper codecs. *)

(* Width of the expected-continuation window that scores each
   realignment hypothesis. *)
let lookahead = 2

(* The algorithm runs over the first [n] minted views in the domain
   arena, with all state (pointers, lookahead expectations, vote
   counts, output codes) in the arena's flat buffers. [rev] addresses
   each read back-to-front — the double-sided variant's reversed pass —
   without materializing reversed strands. A read is active while its
   pointer is inside it; activity is tested lazily, but pointers.(i)
   only changes when slot i itself is processed, so each test sees the
   step-entry value. The list-based BMA in the test oracle
   (test/oracle/recon_oracle.ml) is the reference this core reproduces. *)
let core ~target_len (views : Dna.Strand.t array) n ~rev ~pointers ~expected ~counts ~put =
  let len i = Dna.Strand.length (Array.unsafe_get views i) in
  let code i p =
    let v = Array.unsafe_get views i in
    Dna.Strand.get_code v (if rev then Dna.Strand.length v - 1 - p else p)
  in
  Array.fill pointers 0 n 0;
  (* Majority base at the reads' pointers shifted by [offset], over the
     still-active reads — restricted, when [agree >= 0], to reads whose
     pointed-at base equals it. -1 when nothing votes. *)
  let majority ~offset ~agree =
    Array.fill counts 0 4 0;
    for i = 0 to n - 1 do
      let p0 = pointers.(i) in
      if p0 < len i && (agree < 0 || code i p0 = agree) then begin
        let p = p0 + offset in
        if p >= 0 && p < len i then begin
          let c = code i p in
          counts.(c) <- counts.(c) + 1
        end
      end
    done;
    let best = ref (-1) and best_count = ref 0 in
    for c = 0 to 3 do
      if counts.(c) > !best_count then begin
        best := c;
        best_count := counts.(c)
      end
    done;
    !best
  in
  let hypothesis_score i ~start =
    let ni = len i in
    let score = ref 0 in
    for k = 0 to lookahead - 1 do
      let e = expected.(k) in
      if e >= 0 && start + k < ni && start + k >= 0 && code i (start + k) = e then incr score
    done;
    !score
  in
  for t = 0 to target_len - 1 do
    let c = majority ~offset:0 ~agree:(-1) in
    let c = if c < 0 then 0 (* all reads exhausted; emit A *) else c in
    put t c;
    (* Expected continuation after this consensus base: the majority of
       the agreeing reads' next bases. *)
    for k = 0 to lookahead - 1 do
      expected.(k) <- majority ~offset:(k + 1) ~agree:c
    done;
    for i = 0 to n - 1 do
      let p = pointers.(i) in
      if p < len i then
        if code i p = c then pointers.(i) <- p + 1
        else begin
          (* Disagreement: guess the edit. Each hypothesis implies where
             the read should resume to match the expected continuation. *)
          let sub_score = hypothesis_score i ~start:(p + 1) in
          let ins_score = hypothesis_score i ~start:(p + 2) in
          let del_score = hypothesis_score i ~start:p in
          (* Insertion additionally requires the consensus base to appear
             right after the inserted one. *)
          let ins_ok = p + 1 < len i && code i (p + 1) = c in
          let ins_score = if ins_ok then ins_score + 1 else -1 in
          if sub_score >= ins_score && sub_score >= del_score then pointers.(i) <- p + 1
          else if del_score >= ins_score then () (* base belongs to the next position *)
          else pointers.(i) <- p + 2
        end
    done
  done

let reconstruct_pool ~target_len pool (idxs : int array) : Dna.Strand.t =
  let open Recon_arena in
  let a = get () in
  let n = mint a pool idxs ~keep_empty:true in
  if n = 0 then invalid_arg "Bma.reconstruct: empty cluster";
  a.pointers <- ints a.pointers n;
  a.expected <- ints a.expected lookahead;
  a.out <- ints a.out target_len;
  core ~target_len a.views n ~rev:false ~pointers:a.pointers ~expected:a.expected
    ~counts:a.counts4
    ~put:(fun t c -> a.out.(t) <- c);
  Dna.Strand.init_codes target_len (fun i -> Array.unsafe_get a.out i)

let reconstruct_double_pool ~target_len pool (idxs : int array) : Dna.Strand.t =
  let open Recon_arena in
  let a = get () in
  let n = mint a pool idxs ~keep_empty:true in
  if n = 0 then invalid_arg "Bma.reconstruct: empty cluster";
  let left_len = (target_len + 1) / 2 in
  let right_len = target_len - left_len in
  a.pointers <- ints a.pointers n;
  a.expected <- ints a.expected lookahead;
  a.out <- ints a.out target_len;
  let out = a.out in
  core ~target_len:left_len a.views n ~rev:false ~pointers:a.pointers
    ~expected:a.expected ~counts:a.counts4
    ~put:(fun t c -> out.(t) <- c);
  (* The reversed pass writes position t of the reversed right half,
     which is final position [target_len - 1 - t] — the same join as
     [append left (rev right_rev)], with no reversed copies. *)
  core ~target_len:right_len a.views n ~rev:true ~pointers:a.pointers
    ~expected:a.expected ~counts:a.counts4
    ~put:(fun t c -> out.(target_len - 1 - t) <- c);
  Dna.Strand.init_codes target_len (fun i -> Array.unsafe_get out i)
