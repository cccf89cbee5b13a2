(* Equivalence of the bit-parallel (Myers) distance kernels with the
   scalar two-row DP oracle ([Kernel_oracle.levenshtein],
   [Kernel_oracle.levenshtein_leq]). The bit-parallel kernels are exact, so
   on every input they must agree with the oracle bit for bit: on the
   full distance (register and array kernels) and on the
   thresholded [levenshtein_leq] (both [Some] and [None] outcomes). *)

let seeds = [ 1; 7; 42 ]

let lev = Dna.Distance.levenshtein
let leq = Dna.Distance.levenshtein_leq
let lev_ref = Kernel_oracle.levenshtein
let leq_ref = Kernel_oracle.levenshtein_leq

let check_pair a b =
  let ds = lev_ref a b in
  let dm = lev a b in
  Alcotest.(check int)
    (Printf.sprintf "full distance (%d vs %d nt)" (Dna.Strand.length a) (Dna.Strand.length b))
    ds dm;
  (* leq must agree with the exact distance at bounds below, at and
     above it, plus the extremes. *)
  List.iter
    (fun bound ->
      let expect = if ds <= bound then Some ds else None in
      Alcotest.(check (option int))
        (Printf.sprintf "leq bound=%d exact=%d" bound ds)
        expect
        (leq ~bound a b);
      Alcotest.(check (option int))
        (Printf.sprintf "scalar leq bound=%d exact=%d" bound ds)
        expect
        (leq_ref ~bound a b))
    [ 0; 1; ds - 1; ds; ds + 1; 40; max (Dna.Strand.length a) (Dna.Strand.length b) ]

(* A mutated copy: substitutions, insertions and deletions at ~[rate]
   each, so sibling pairs have small distances and ragged lengths. *)
let mutate rng rate s =
  let buf = Buffer.create (Dna.Strand.length s + 8) in
  Dna.Strand.iter
    (fun b ->
      let c = Dna.Nucleotide.to_char b in
      let r = Dna.Rng.float rng in
      if r < rate then Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.int rng 4)
      else if r < 2.0 *. rate then begin
        Buffer.add_char buf c;
        Buffer.add_char buf Dna.Strand.char_of_code.(Dna.Rng.int rng 4)
      end
      else if r < 3.0 *. rate then () (* deletion *)
      else Buffer.add_char buf c)
    s;
  Dna.Strand.of_string (Buffer.contents buf)

let test_random_pairs () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      for _ = 1 to 400 do
        let la = Dna.Rng.int rng 301 and lb = Dna.Rng.int rng 301 in
        let a = Dna.Strand.random rng la in
        let b =
          if Dna.Rng.int rng 2 = 0 then Dna.Strand.random rng lb else mutate rng 0.05 a
        in
        check_pair a b
      done)
    seeds

let test_equal_strands () =
  let rng = Dna.Rng.create 11 in
  List.iter
    (fun n ->
      let a = Dna.Strand.random rng n in
      Alcotest.(check int) "equal strands scalar" 0 (lev_ref a a);
      Alcotest.(check int) "equal strands myers" 0 (lev a a);
      Alcotest.(check (option int)) "equal strands leq" (Some 0) (leq ~bound:0 a a))
    [ 0; 1; 30; 63; 64; 65; 120; 300 ]

let test_empty_vs_nonempty () =
  let rng = Dna.Rng.create 13 in
  List.iter
    (fun n ->
      let a = Dna.Strand.random rng n in
      let e = Dna.Strand.empty in
      Alcotest.(check int) "empty vs strand" n (lev e a);
      Alcotest.(check int) "strand vs empty" n (lev a e);
      Alcotest.(check (option int)) "empty leq at n" (Some n) (leq ~bound:n e a);
      (* bound = n - 1 is below the true distance n; for n = 0 it is
         negative, which the contract also maps to [None]. *)
      Alcotest.(check (option int)) "empty leq below n" None (leq ~bound:(n - 1) e a))
    [ 0; 1; 63; 64; 65; 200 ]

(* Lengths straddling the 63-bit word boundaries exercise the carry
   between blocks and the final-block bookkeeping of the thresholded
   kernel; 188/189/190 straddle the handover from the register kernel
   (up to three blocks) to the array one. *)
let test_word_boundary () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      let lens = [ 62; 63; 64; 65; 126; 127; 128; 188; 189; 190 ] in
      List.iter
        (fun la ->
          List.iter
            (fun lb ->
              let a = Dna.Strand.random rng la in
              check_pair a (Dna.Strand.random rng lb);
              check_pair a (mutate rng 0.05 a))
            lens)
        lens)
    seeds

(* Both outcomes of the merge test must actually occur and agree with
   the oracle on clustering-shaped inputs (sibling and unrelated pairs
   at the paper's strand lengths and thresholds). *)
let test_leq_outcomes () =
  let rng = Dna.Rng.create 5 in
  let le = ref 0 and gt = ref 0 in
  for _ = 1 to 300 do
    let a = Dna.Strand.random rng 120 in
    let b = if Dna.Rng.int rng 2 = 0 then Dna.Strand.random rng 120 else mutate rng 0.06 a in
    let bound = 40 in
    let s = leq_ref ~bound a b in
    let m = leq ~bound a b in
    Alcotest.(check (option int)) "leq agreement" s m;
    match m with Some _ -> incr le | None -> incr gt
  done;
  Alcotest.(check bool) "saw Le outcomes" true (!le > 0);
  Alcotest.(check bool) "saw Gt outcomes" true (!gt > 0)

(* The merge test on the strands every trip and get compares (136 nt at
   default codec params): a call allocates at most the option it
   returns, 2 minor words for a [Some], nothing for a [None]. *)
let test_leq_allocation () =
  let rng = Dna.Rng.create 19 in
  let pairs =
    Array.init 64 (fun _ ->
        let a = Dna.Strand.random rng 136 in
        let b = mutate rng 0.06 a in
        ignore (Dna.Strand.eq_masks a);
        ignore (Dna.Strand.eq_masks b);
        (a, b))
  in
  let calls = 10_000 in
  let run () =
    for i = 1 to calls do
      let a, b = pairs.(i land 63) in
      ignore (Sys.opaque_identity (leq ~bound:44 a b))
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "<= 2 minor words per call (%.0f for %d calls)" words calls)
    true
    (words <= 2.0 *. float_of_int calls)

(* Structure of the cached Eq masks: one word-set per base code, bit i of
   word w set exactly when base w*63+i has that code. *)
let test_eq_masks_structure () =
  let rng = Dna.Rng.create 17 in
  List.iter
    (fun n ->
      let s = Dna.Strand.random rng n in
      let masks = Dna.Strand.eq_masks s in
      let words = (n + Dna.Strand.mask_bits - 1) / Dna.Strand.mask_bits in
      Alcotest.(check int) "mask array size" (4 * words) (Array.length masks);
      for i = 0 to n - 1 do
        let w = i / Dna.Strand.mask_bits and bit = i mod Dna.Strand.mask_bits in
        for c = 0 to 3 do
          let set = masks.((c * words) + w) land (1 lsl bit) <> 0 in
          Alcotest.(check bool)
            (Printf.sprintf "mask bit len=%d i=%d code=%d" n i c)
            (Dna.Strand.get_code s i = c)
            set
        done
      done;
      Alcotest.(check bool) "cache returns same array" true (masks == Dna.Strand.eq_masks s))
    [ 1; 62; 63; 64; 65; 130 ]

let () =
  Alcotest.run "distance"
    [
      ( "myers-vs-scalar",
        [
          Alcotest.test_case "random pairs 0-300nt, 3 seeds" `Quick test_random_pairs;
          Alcotest.test_case "equal strands" `Quick test_equal_strands;
          Alcotest.test_case "empty vs non-empty" `Quick test_empty_vs_nonempty;
          Alcotest.test_case "63/64/65 word boundary" `Quick test_word_boundary;
          Alcotest.test_case "leq Le and Gt outcomes" `Quick test_leq_outcomes;
          Alcotest.test_case "leq allocates only its option (136 nt)" `Quick test_leq_allocation;
        ] );
      ("eq-masks", [ Alcotest.test_case "structure and caching" `Quick test_eq_masks_structure ]);
    ]
