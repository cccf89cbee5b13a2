(* Tests for the dna substrate library: RNG, nucleotides, strands,
   bitstream packing, randomizer, distances, alignment, FASTA/FASTQ. *)

let rng () = Dna.Rng.create 12345

let strand = Alcotest.testable Dna.Strand.pp Dna.Strand.equal

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Dna.Rng.create 7 and b = Dna.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Dna.Rng.int a 1000) (Dna.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Dna.Rng.create 7 in
  let b = Dna.Rng.split a in
  let xs = List.init 50 (fun _ -> Dna.Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Dna.Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Dna.Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_rejection_bounds () =
  (* Rejection sampling must stay in range (and terminate) across small,
     large and power-of-two-adjacent bounds, including max_int. *)
  let r = rng () in
  List.iter
    (fun bound ->
      for _ = 1 to 500 do
        let v = Dna.Rng.int r bound in
        Alcotest.(check bool)
          (Printf.sprintf "in [0,%d)" bound)
          true
          (v >= 0 && v < bound)
      done)
    [ 1; 2; 3; 17; (1 lsl 40) + 1; max_int ]

let test_rng_int_covers_residues () =
  (* With an unbiased draw every residue of a small bound appears
     quickly; a stuck or truncated generator would fail this. *)
  let r = rng () in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    seen.(Dna.Rng.int r 7) <- true
  done;
  Alcotest.(check (array bool)) "all residues hit" (Array.make 7 true) seen

let test_rng_float_bounds () =
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Dna.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_poisson_mean () =
  let r = rng () in
  let n = 5000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Dna.Rng.poisson r 10.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 10" true (mean > 9.5 && mean < 10.5)

let test_rng_geometric_support () =
  let r = rng () in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "at least 1" true (Dna.Rng.geometric r 0.4 >= 1)
  done;
  Alcotest.(check int) "p=1 is always 1" 1 (Dna.Rng.geometric r 1.0)

let test_rng_shuffle_permutation () =
  let r = rng () in
  let a = Array.init 100 (fun i -> i) in
  Dna.Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_sample_indices_distinct () =
  let r = rng () in
  let s = Dna.Rng.sample_indices r ~n:50 ~k:20 in
  Alcotest.(check int) "20 samples" 20 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "all distinct" 20 (List.length distinct);
  Array.iter (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 50)) s

(* Golden stream: literal outputs of the xoshiro256** generator, so any
   change to the state representation must reproduce the exact stream.
   One generator per seed is drawn through every entry point in this
   order, so each value also pins the state the earlier draws left. *)
type golden = {
  raw : int64 list;  (* next_int64 x3 *)
  ints : int list;  (* int 1000 x4 *)
  big : int;  (* int max_int *)
  floats : float list;  (* x2, compared bit for bit *)
  bools : bool list;  (* x8 *)
  poissons : int list;  (* poisson 4.0 x4 *)
  split_child : int64 list;  (* next_int64 x2 on [split] *)
  split_parent : int64;  (* next_int64 on the parent after the split *)
  copy : int64 list;  (* next_int64 x2 on a [copy], then on the original *)
  shuffle : int array;  (* shuffle_in_place of [0..9] *)
  sample : int array;  (* sample_indices ~n:50 ~k:5 *)
}

let golden_streams =
  [
    ( 0,
      {
        raw = [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L ];
        ints = [ 883; 934; 874; 86 ];
        big = 2470272057467781775;
        floats = [ 0x1.b60658174ea72p-1; 0x1.d6748eb47ce93p-1 ];
        bools = [ false; true; false; true; false; false; false; false ];
        poissons = [ 2; 6; 5; 5 ];
        split_child = [ -1745827497278709292L; -1630180807903192609L ];
        split_parent = -1893426409611530813L;
        copy = [ 706796178320219295L; 2399897250337011413L ];
        shuffle = [| 1; 2; 5; 6; 4; 3; 7; 0; 8; 9 |];
        sample = [| 11; 27; 36; 28; 39 |];
      } );
    ( 1,
      {
        raw = [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L ];
        ints = [ 345; 92; 40; 321 ];
        big = 1757902983245101607;
        floats = [ 0x1.bbfb691573da9p-1; 0x1.1a79b718754b6p-1 ];
        bools = [ true; false; true; true; true; true; true; true ];
        poissons = [ 1; 5; 4; 5 ];
        split_child = [ 1704864455275086411L; 8875600768211362021L ];
        split_parent = 7084622563335324071L;
        copy = [ 8654072644765974953L; 1545422153750379572L ];
        shuffle = [| 1; 3; 7; 4; 6; 8; 9; 0; 2; 5 |];
        sample = [| 20; 24; 45; 39; 0 |];
      } );
    ( 12345,
      {
        raw = [ -4725905248023948133L; 2398916695208396998L; -676359223724682360L ];
        ints = [ 348; 586; 849; 702 ];
        big = 1364157423378986927;
        floats = [ 0x1.8b3a9a88b3c2ep-2; 0x1.d23be08599bd2p-1 ];
        bools = [ false; false; true; true; true; true; false; false ];
        poissons = [ 3; 2; 1; 8 ];
        split_child = [ -1066648725246158953L; 4082815482250149581L ];
        split_parent = -4688678675626043565L;
        copy = [ 3653971381950402123L; -5550867832113341342L ];
        shuffle = [| 3; 9; 8; 7; 1; 2; 5; 4; 0; 6 |];
        sample = [| 49; 44; 15; 0; 21 |];
      } );
    ( -1,
      {
        raw = [ -8118546653352383224L; -4290065566684577747L; -9088772293754075490L ];
        ints = [ 91; 690; 913; 375 ];
        big = 3540337710754932408;
        floats = [ 0x1.40ce8db76af89p-1; 0x1.3a82832dfbe0bp-1 ];
        bools = [ true; true; false; true; true; false; true; false ];
        poissons = [ 2; 5; 2; 3 ];
        split_child = [ -7897969512908281076L; -98582453360696889L ];
        split_parent = 5667829991038092787L;
        copy = [ -1583208143907771398L; -4525163574873516079L ];
        shuffle = [| 7; 0; 4; 3; 9; 1; 8; 5; 2; 6 |];
        sample = [| 1; 19; 25; 43; 7 |];
      } );
  ]

let test_rng_golden_stream () =
  let int64s = Alcotest.(list int64) in
  List.iter
    (fun (seed, g) ->
      let label what = Printf.sprintf "seed %d: %s" seed what in
      let r = Dna.Rng.create seed in
      let draws n f = List.init n (fun _ -> f ()) in
      Alcotest.check int64s (label "next_int64") g.raw
        (draws 3 (fun () -> Dna.Rng.next_int64 r));
      Alcotest.(check (list int)) (label "int 1000") g.ints
        (draws 4 (fun () -> Dna.Rng.int r 1000));
      Alcotest.(check int) (label "int max_int") g.big (Dna.Rng.int r max_int);
      Alcotest.(check (list int64))
        (label "float bits")
        (List.map Int64.bits_of_float g.floats)
        (draws 2 (fun () -> Int64.bits_of_float (Dna.Rng.float r)));
      Alcotest.(check (list bool)) (label "bool") g.bools (draws 8 (fun () -> Dna.Rng.bool r));
      Alcotest.(check (list int))
        (label "poisson")
        g.poissons
        (draws 4 (fun () -> Dna.Rng.poisson r 4.0));
      let child = Dna.Rng.split r in
      Alcotest.check int64s (label "split child") g.split_child
        (draws 2 (fun () -> Dna.Rng.next_int64 child));
      Alcotest.(check int64) (label "split parent") g.split_parent (Dna.Rng.next_int64 r);
      let c = Dna.Rng.copy r in
      Alcotest.check int64s (label "copy") g.copy (draws 2 (fun () -> Dna.Rng.next_int64 c));
      Alcotest.check int64s (label "original after copy") g.copy
        (draws 2 (fun () -> Dna.Rng.next_int64 r));
      let perm = Array.init 10 Fun.id in
      Dna.Rng.shuffle_in_place r perm;
      Alcotest.(check (array int)) (label "shuffle") g.shuffle perm;
      Alcotest.(check (array int)) (label "sample_indices") g.sample
        (Dna.Rng.sample_indices r ~n:50 ~k:5))
    golden_streams

(* Minor words allocated by [n] calls of [f] (the measuring itself is
   allocation-free: [Gc.minor_words] returns an unboxed float). *)
let minor_words_of n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. before

let test_rng_draws_allocation_free () =
  let r = rng () in
  let draw f = minor_words_of 10_000 (fun () -> ignore (Sys.opaque_identity (f r))) in
  Alcotest.(check (float 0.)) "Rng.int allocates nothing" 0.0 (draw (fun r -> Dna.Rng.int r 1000));
  let words = draw Dna.Rng.float in
  Alcotest.(check bool)
    (Printf.sprintf "Rng.float allocates <= 2 words per draw (%.0f for 10k)" words)
    true
    (words <= 20_000.0)

(* ---------- Nucleotide ---------- *)

let test_nucleotide_roundtrip () =
  Array.iter
    (fun b ->
      Alcotest.(check char) "char roundtrip" (Dna.Nucleotide.to_char b)
        (Dna.Nucleotide.to_char (Dna.Nucleotide.of_char (Dna.Nucleotide.to_char b)));
      Alcotest.(check int) "code roundtrip" (Dna.Nucleotide.to_code b)
        (Dna.Nucleotide.to_code (Dna.Nucleotide.of_code (Dna.Nucleotide.to_code b))))
    Dna.Nucleotide.all

let test_nucleotide_complement_involutive () =
  Array.iter
    (fun b ->
      Alcotest.(check bool) "complement twice" true
        (Dna.Nucleotide.equal b Dna.Nucleotide.(complement (complement b))))
    Dna.Nucleotide.all

let test_nucleotide_random_other () =
  let r = rng () in
  for _ = 1 to 200 do
    let b = Dna.Nucleotide.random r in
    let o = Dna.Nucleotide.random_other r b in
    Alcotest.(check bool) "differs" false (Dna.Nucleotide.equal b o)
  done

let test_nucleotide_invalid_char () =
  Alcotest.check_raises "of_char 'N'" (Invalid_argument "Nucleotide.of_char: 'N'") (fun () ->
      ignore (Dna.Nucleotide.of_char 'N'))

(* ---------- Strand ---------- *)

let test_strand_of_string_roundtrip () =
  let s = "ACGTACGTTTGGCA" in
  Alcotest.(check string) "roundtrip" s (Dna.Strand.to_string (Dna.Strand.of_string s))

let test_strand_of_string_invalid () =
  Alcotest.(check bool) "invalid base rejected" true
    (Dna.Strand.of_string_opt "ACGX" = None)

let test_strand_reverse_complement () =
  let s = Dna.Strand.of_string "AACGT" in
  Alcotest.(check string) "revcomp" "ACGTT" (Dna.Strand.to_string (Dna.Strand.reverse_complement s));
  (* involution *)
  let r = rng () in
  for _ = 1 to 50 do
    let s = Dna.Strand.random r 30 in
    Alcotest.check strand "revcomp involutive" s
      (Dna.Strand.reverse_complement (Dna.Strand.reverse_complement s))
  done

let test_strand_gc_content () =
  Alcotest.(check (float 1e-9)) "all GC" 1.0 (Dna.Strand.gc_content (Dna.Strand.of_string "GGCC"));
  Alcotest.(check (float 1e-9)) "no GC" 0.0 (Dna.Strand.gc_content (Dna.Strand.of_string "ATAT"));
  Alcotest.(check (float 1e-9)) "half" 0.5 (Dna.Strand.gc_content (Dna.Strand.of_string "ACGT"));
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Dna.Strand.gc_content Dna.Strand.empty)

let test_strand_max_homopolymer () =
  Alcotest.(check int) "empty" 0 (Dna.Strand.max_homopolymer Dna.Strand.empty);
  Alcotest.(check int) "single" 1 (Dna.Strand.max_homopolymer (Dna.Strand.of_string "A"));
  Alcotest.(check int) "run of 4" 4 (Dna.Strand.max_homopolymer (Dna.Strand.of_string "ACGGGGTA"));
  Alcotest.(check int) "run at end" 3 (Dna.Strand.max_homopolymer (Dna.Strand.of_string "ACGTTT"))

let test_strand_find () =
  let s = Dna.Strand.of_string "ACGTACGT" in
  Alcotest.(check (option int)) "find CGT" (Some 1)
    (Dna.Strand.find s ~pattern:(Dna.Strand.of_string "CGT"));
  Alcotest.(check (option int)) "find from 2" (Some 5)
    (Dna.Strand.find ~from:2 s ~pattern:(Dna.Strand.of_string "CGT"));
  Alcotest.(check (option int)) "absent" None
    (Dna.Strand.find s ~pattern:(Dna.Strand.of_string "TTT"));
  Alcotest.(check (option int)) "empty pattern" (Some 0)
    (Dna.Strand.find s ~pattern:Dna.Strand.empty)

let test_strand_codes () =
  let r = rng () in
  for _ = 1 to 50 do
    let s = Dna.Strand.random r 40 in
    Alcotest.check strand "codes roundtrip" s (Dna.Strand.of_codes (Dna.Strand.to_codes s))
  done

let test_strand_sub_concat () =
  let s = Dna.Strand.of_string "ACGTACGT" in
  let a = Dna.Strand.sub s ~pos:0 ~len:4 and b = Dna.Strand.sub s ~pos:4 ~len:4 in
  Alcotest.check strand "split+concat" s (Dna.Strand.concat [ a; b ]);
  Alcotest.check strand "append" s (Dna.Strand.append a b)

let test_strand_count () =
  let s = Dna.Strand.of_string "AACGTA" in
  Alcotest.(check int) "count A" 3 (Dna.Strand.count s Dna.Nucleotide.A);
  Alcotest.(check int) "count G" 1 (Dna.Strand.count s Dna.Nucleotide.G)

(* ---------- Bitstream ---------- *)

let test_bitstream_bytes_roundtrip () =
  let r = rng () in
  for _ = 1 to 50 do
    let n = 1 + Dna.Rng.int r 64 in
    let b = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let s = Dna.Bitstream.strand_of_bytes b in
    Alcotest.(check int) "4 bases per byte" (4 * n) (Dna.Strand.length s);
    Alcotest.(check bytes) "roundtrip" b (Dna.Bitstream.bytes_of_strand s)
  done

let test_bitstream_writer_reader () =
  let w = Dna.Bitstream.Writer.create () in
  Dna.Bitstream.Writer.add w ~width:3 5;
  Dna.Bitstream.Writer.add w ~width:11 1027;
  Dna.Bitstream.Writer.add w ~width:2 2;
  let b = Dna.Bitstream.Writer.to_bytes w in
  let r = Dna.Bitstream.Reader.create b in
  Alcotest.(check int) "field 1" 5 (Dna.Bitstream.Reader.read r ~width:3);
  Alcotest.(check int) "field 2" 1027 (Dna.Bitstream.Reader.read r ~width:11);
  Alcotest.(check int) "field 3" 2 (Dna.Bitstream.Reader.read r ~width:2)

let test_bitstream_writer_rejects_wide_value () =
  let w = Dna.Bitstream.Writer.create () in
  Alcotest.check_raises "value too wide"
    (Invalid_argument "Bitstream.Writer.add: value too wide") (fun () ->
      Dna.Bitstream.Writer.add w ~width:3 9)

(* ---------- Randomizer ---------- *)

let test_randomizer_involution () =
  let r = rng () in
  for _ = 1 to 50 do
    let n = Dna.Rng.int r 200 in
    let b = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let scrambled = Dna.Randomizer.scramble ~seed:99 b in
    Alcotest.(check bytes) "unscramble inverts" b (Dna.Randomizer.unscramble ~seed:99 scrambled)
  done

let test_randomizer_changes_data () =
  let b = Bytes.make 100 '\000' in
  let s = Dna.Randomizer.scramble ~seed:1 b in
  Alcotest.(check bool) "scrambled differs" false (Bytes.equal b s);
  let s2 = Dna.Randomizer.scramble ~seed:2 b in
  Alcotest.(check bool) "seed matters" false (Bytes.equal s s2)

let test_randomizer_breaks_homopolymers () =
  (* The whole point of unconstrained coding: an all-zero payload should
     come out without long homopolymers. *)
  let b = Bytes.make 256 '\000' in
  let s = Dna.Bitstream.strand_of_bytes (Dna.Randomizer.scramble ~seed:42 b) in
  Alcotest.(check bool) "homopolymer bounded" true (Dna.Strand.max_homopolymer s <= 10)

(* ---------- Distance ---------- *)

let test_levenshtein_known () =
  let d a b = Dna.Distance.levenshtein (Dna.Strand.of_string a) (Dna.Strand.of_string b) in
  Alcotest.(check int) "identical" 0 (d "ACGT" "ACGT");
  Alcotest.(check int) "one sub" 1 (d "ACGT" "AGGT");
  Alcotest.(check int) "one del" 1 (d "ACGT" "AGT");
  Alcotest.(check int) "one ins" 1 (d "ACGT" "ACCGT");
  Alcotest.(check int) "empty vs s" 4 (d "" "ACGT");
  Alcotest.(check int) "disjoint" 4 (d "AAAA" "CCCC")

let test_hamming () =
  let d a b = Dna.Distance.hamming (Dna.Strand.of_string a) (Dna.Strand.of_string b) in
  Alcotest.(check int) "identical" 0 (d "ACGT" "ACGT");
  Alcotest.(check int) "two diffs" 2 (d "ACGT" "TCGA");
  Alcotest.check_raises "unequal lengths"
    (Invalid_argument "Distance.hamming: unequal lengths") (fun () ->
      ignore (d "ACG" "ACGT"))

let test_levenshtein_leq_agrees () =
  let r = rng () in
  for _ = 1 to 200 do
    let a = Dna.Strand.random r (10 + Dna.Rng.int r 40) in
    let b = Dna.Strand.random r (10 + Dna.Rng.int r 40) in
    let d = Dna.Distance.levenshtein a b in
    (match Dna.Distance.levenshtein_leq ~bound:d a b with
    | Some d' -> Alcotest.(check int) "exact at bound" d d'
    | None -> Alcotest.fail "leq missed distance at exact bound");
    Alcotest.(check (option int)) "below bound rejects" None
      (Dna.Distance.levenshtein_leq ~bound:(d - 1) a b)
  done

let test_l1 () =
  Alcotest.(check int) "l1" 6 (Dna.Distance.l1 [| 1; 2; 3 |] [| 3; 0; 1 |])

(* ---------- Alignment ---------- *)

let test_alignment_score_equals_levenshtein () =
  let r = rng () in
  for _ = 1 to 100 do
    let a = Dna.Strand.random r (5 + Dna.Rng.int r 40) in
    let b = Dna.Strand.random r (5 + Dna.Rng.int r 40) in
    let al = Dna.Alignment.align a b in
    Alcotest.(check int) "score = edit distance" (Dna.Distance.levenshtein a b) al.Dna.Alignment.score
  done

let test_alignment_script_applies () =
  let r = rng () in
  for _ = 1 to 100 do
    let a = Dna.Strand.random r (5 + Dna.Rng.int r 30) in
    let b = Dna.Strand.random r (5 + Dna.Rng.int r 30) in
    let al = Dna.Alignment.align a b in
    Alcotest.check strand "apply_script recovers b" b
      (Dna.Alignment.apply_script al.Dna.Alignment.script)
  done

let test_alignment_padded_same_length () =
  let a = Dna.Strand.of_string "ACGTAC" and b = Dna.Strand.of_string "AGTACC" in
  let al = Dna.Alignment.align a b in
  let pa, pb = Dna.Alignment.padded al in
  Alcotest.(check int) "padded equal lengths" (String.length pa) (String.length pb)

let test_alignment_counts () =
  let a = Dna.Strand.of_string "ACGT" and b = Dna.Strand.of_string "ACGT" in
  let m, s, d, i = Dna.Alignment.counts (Dna.Alignment.align a b) in
  Alcotest.(check (list int)) "all matches" [ 4; 0; 0; 0 ] [ m; s; d; i ]

(* ---------- Fasta / Fastq ---------- *)

let test_fasta_roundtrip () =
  let records =
    [
      { Dna.Fasta.id = "a"; seq = Dna.Strand.of_string "ACGT" };
      { Dna.Fasta.id = "b longer name"; seq = Dna.Strand.of_string "GGGG" };
    ]
  in
  let parsed, errors = Dna.Fasta.parse_string (Dna.Fasta.to_string records) in
  Alcotest.(check int) "no errors" 0 (List.length errors);
  Alcotest.(check int) "two records" 2 (List.length parsed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "id" a.Dna.Fasta.id b.Dna.Fasta.id;
      Alcotest.check strand "seq" a.Dna.Fasta.seq b.Dna.Fasta.seq)
    records parsed

let test_fasta_multiline_and_errors () =
  let text = ">ok\nACGT\nACGT\n>bad\nACXT\n>also_ok\nTTTT\n" in
  let parsed, errors = Dna.Fasta.parse_string text in
  Alcotest.(check int) "two good records" 2 (List.length parsed);
  Alcotest.(check int) "one error" 1 (List.length errors);
  Alcotest.(check string) "wrapped seq" "ACGTACGT"
    (Dna.Strand.to_string (List.hd parsed).Dna.Fasta.seq)

let test_fastq_roundtrip () =
  let records =
    [
      { Dna.Fastq.id = "r1"; seq = Dna.Strand.of_string "ACGT"; qual = [| 30; 30; 20; 10 |] };
      { Dna.Fastq.id = "r2"; seq = Dna.Strand.of_string "TT"; qual = [| 5; 40 |] };
    ]
  in
  let parsed, errors = Dna.Fastq.parse_string (Dna.Fastq.to_string records) in
  Alcotest.(check int) "no errors" 0 (List.length errors);
  Alcotest.(check int) "two records" 2 (List.length parsed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "id" a.Dna.Fastq.id b.Dna.Fastq.id;
      Alcotest.check strand "seq" a.Dna.Fastq.seq b.Dna.Fastq.seq;
      Alcotest.(check (array int)) "qual" a.Dna.Fastq.qual b.Dna.Fastq.qual)
    records parsed

let test_fastq_malformed () =
  let text = "@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nIII\n@r3\nAC\n+\nII\n" in
  let parsed, errors = Dna.Fastq.parse_string text in
  Alcotest.(check int) "two good" 2 (List.length parsed);
  Alcotest.(check int) "one bad (quality length)" 1 (List.length errors)

let test_fastq_rejects_negative_quality () =
  (* A quality character below '!' would decode to a negative Phred
     score; the record must be reported, not silently parsed. *)
  let text = "@bad\nACGT\n+\nII I\n@good\nACGT\n+\nIIII\n" in
  let parsed, errors = Dna.Fastq.parse_string text in
  Alcotest.(check int) "good record kept" 1 (List.length parsed);
  Alcotest.(check int) "bad record reported" 1 (List.length errors);
  List.iter
    (fun r ->
      Array.iter
        (fun q -> Alcotest.(check bool) "no negative phred" true (q >= 0))
        r.Dna.Fastq.qual)
    parsed;
  Alcotest.(check bool) "opt variant rejects" true (Dna.Fastq.qual_of_string_opt "II I" = None);
  Alcotest.check_raises "raising variant"
    (Invalid_argument "Fastq.qual_of_string: quality character below '!'") (fun () ->
      ignore (Dna.Fastq.qual_of_string "II I"))

let test_readers_close_on_parse_exit () =
  (* read_file must close its channel on every exit path; after reading,
     deleting the file and re-reading must fail with Sys_error (not hit
     a stale descriptor), and repeated reads must not exhaust fds. *)
  let path = Filename.temp_file "dnastore_test" ".fastq" in
  let oc = open_out path in
  output_string oc "@r1\nACGT\n+\nIIII\n";
  close_out oc;
  for _ = 1 to 256 do
    let records, errors = Dna.Fastq.read_file path in
    Alcotest.(check int) "record parsed" 1 (List.length records);
    Alcotest.(check int) "no errors" 0 (List.length errors)
  done;
  let fasta_path = Filename.temp_file "dnastore_test" ".fasta" in
  let oc = open_out fasta_path in
  output_string oc ">r1\nACGT\n";
  close_out oc;
  for _ = 1 to 256 do
    let records, _ = Dna.Fasta.read_file fasta_path in
    Alcotest.(check int) "fasta record parsed" 1 (List.length records)
  done;
  Sys.remove path;
  Sys.remove fasta_path

(* ---------- Strand_pool ---------- *)

let test_pool_builder_roundtrip () =
  let pool = Dna.Strand_pool.create () in
  String.iter (fun c -> Dna.Strand_pool.emit pool (Dna.Strand.code_of_char c)) "ACGT";
  Alcotest.(check int) "open length" 4 (Dna.Strand_pool.open_length pool);
  Alcotest.(check int) "first index" 0 (Dna.Strand_pool.commit pool);
  Alcotest.(check int) "second index" 1 (Dna.Strand_pool.add_string pool "GATTACA");
  Alcotest.check strand "read 0" (Dna.Strand.of_string "ACGT") (Dna.Strand_pool.get pool 0);
  Alcotest.check strand "read 1" (Dna.Strand.of_string "GATTACA")
    (Dna.Strand_pool.get pool 1);
  Alcotest.(check int) "length" 2 (Dna.Strand_pool.length pool);
  Alcotest.(check int) "total bases" 11 (Dna.Strand_pool.total_bases pool);
  Alcotest.(check int) "read_length" 7 (Dna.Strand_pool.read_length pool 1)

let test_pool_rollback_truncate_revcomp () =
  let pool = Dna.Strand_pool.create () in
  (* A rolled-back read leaves no trace: the next read must not inherit
     its bits (emit ORs into the buffer, so orphaned bits would show). *)
  String.iter (fun c -> Dna.Strand_pool.emit pool (Dna.Strand.code_of_char c)) "TTTTTTTT";
  Dna.Strand_pool.rollback pool;
  ignore (Dna.Strand_pool.add_string pool "AACA");
  Alcotest.check strand "rollback leaves no bits" (Dna.Strand.of_string "AACA")
    (Dna.Strand_pool.get pool 0);
  (* Truncation zeroes the cut tail for the same reason. *)
  String.iter (fun c -> Dna.Strand_pool.emit pool (Dna.Strand.code_of_char c)) "GGGGGG";
  Dna.Strand_pool.truncate_open pool 3;
  String.iter (fun c -> Dna.Strand_pool.emit pool (Dna.Strand.code_of_char c)) "AA";
  ignore (Dna.Strand_pool.commit pool);
  Alcotest.check strand "truncate then extend" (Dna.Strand.of_string "GGGAA")
    (Dna.Strand_pool.get pool 1);
  String.iter (fun c -> Dna.Strand_pool.emit pool (Dna.Strand.code_of_char c)) "ACCGTA";
  Dna.Strand_pool.revcomp_open pool;
  ignore (Dna.Strand_pool.commit pool);
  Alcotest.check strand "revcomp in place"
    (Dna.Strand.reverse_complement (Dna.Strand.of_string "ACCGTA"))
    (Dna.Strand_pool.get pool 2)

let test_pool_views_survive_growth () =
  let pool = Dna.Strand_pool.create ~capacity_bases:8 ~capacity_reads:1 () in
  ignore (Dna.Strand_pool.add_string pool "ACGTACGT");
  let early = Dna.Strand_pool.get pool 0 in
  (* Force several buffer growths; the early view keeps the old array
     alive and must still read its original bases. *)
  for _ = 1 to 64 do
    ignore (Dna.Strand_pool.add_string pool "GGGGCCCCAAAATTTT")
  done;
  Alcotest.check strand "early view intact" (Dna.Strand.of_string "ACGTACGT") early;
  Alcotest.check strand "re-minted view agrees" early (Dna.Strand_pool.get pool 0)

let test_pool_swap_permute () =
  let pool = Dna.Strand_pool.create () in
  let names = [| "AAAA"; "CCCC"; "GGGG"; "TTTT" |] in
  Array.iter (fun s -> ignore (Dna.Strand_pool.add_string pool s)) names;
  Dna.Strand_pool.swap pool 0 3;
  Alcotest.check strand "swap 0" (Dna.Strand.of_string "TTTT") (Dna.Strand_pool.get pool 0);
  Dna.Strand_pool.swap pool 0 3;
  (* permute: position i takes the read that was at perm.(i). *)
  Dna.Strand_pool.permute pool [| 3; 2; 1; 0 |];
  Array.iteri
    (fun i _ ->
      Alcotest.check strand
        (Printf.sprintf "permuted %d" i)
        (Dna.Strand.of_string names.(3 - i))
        (Dna.Strand_pool.get pool i))
    names;
  (* partial permute over a suffix *)
  Dna.Strand_pool.permute pool ~from:2 [| 1; 0 |];
  Alcotest.check strand "suffix permuted" (Dna.Strand.of_string "AAAA")
    (Dna.Strand_pool.get pool 2)

let test_pool_clear_reuse () =
  let pool = Dna.Strand_pool.create () in
  ignore (Dna.Strand_pool.add_string pool "TTTTTTTTTTTTTTTT");
  Dna.Strand_pool.clear pool;
  Alcotest.(check int) "empty after clear" 0 (Dna.Strand_pool.length pool);
  (* clear must zero the buffer or the OR-emit discipline would leak the
     old read's bits into the new one. *)
  ignore (Dna.Strand_pool.add_string pool "AACA");
  Alcotest.check strand "no stale bits" (Dna.Strand.of_string "AACA")
    (Dna.Strand_pool.get pool 0)

(* ---------- Streaming folds ---------- *)

let test_fastq_fold_matches_read_file () =
  let path = Filename.temp_file "dnastore_test" ".fastq" in
  let oc = open_out path in
  output_string oc "@r1\nACGT\n+\nIIII\n@bad\nACGT\n+\nIII\n@r2\nGATTACA\n+comment\nIIIIIII\n";
  close_out oc;
  let records, errors = Dna.Fastq.read_file path in
  let folded_rev, fold_errors =
    Dna.Fastq.fold_file path ~init:[] ~f:(fun acc r -> r :: acc)
  in
  let folded = List.rev folded_rev in
  Alcotest.(check int) "same record count" (List.length records) (List.length folded);
  List.iter2
    (fun (a : Dna.Fastq.record) (b : Dna.Fastq.record) ->
      Alcotest.(check string) "id" a.id b.id;
      Alcotest.check strand "seq" a.seq b.seq;
      Alcotest.(check (array int)) "qual" a.qual b.qual)
    records folded;
  Alcotest.(check (list (pair int string)))
    "same errors"
    (List.map (fun (e : Dna.Fastq.error) -> (e.line, e.message)) errors)
    (List.map (fun (e : Dna.Fastq.error) -> (e.line, e.message)) fold_errors);
  let n = ref 0 in
  Dna.Fastq.iter_file path ~f:(fun _ -> incr n);
  Alcotest.(check int) "iter_file count" (List.length records) !n;
  Sys.remove path

let test_fasta_fold_matches_read_file () =
  let path = Filename.temp_file "dnastore_test" ".fasta" in
  let oc = open_out path in
  output_string oc ">r1 desc\nACGT\nTTAA\n\n>bad\nACXT\n>r2\nGATTACA\n";
  close_out oc;
  let records, errors = Dna.Fasta.read_file path in
  let folded_rev, fold_errors =
    Dna.Fasta.fold_file path ~init:[] ~f:(fun acc r -> r :: acc)
  in
  let folded = List.rev folded_rev in
  Alcotest.(check int) "same record count" (List.length records) (List.length folded);
  List.iter2
    (fun (a : Dna.Fasta.record) (b : Dna.Fasta.record) ->
      Alcotest.(check string) "id" a.id b.id;
      Alcotest.check strand "seq" a.seq b.seq)
    records folded;
  Alcotest.(check (list (pair int string)))
    "same errors"
    (List.map (fun (e : Dna.Fasta.error) -> (e.line, e.message)) errors)
    (List.map (fun (e : Dna.Fasta.error) -> (e.line, e.message)) fold_errors);
  Sys.remove path

(* Every row is parsed twice, from a string and from a file holding the
   same bytes; both readers must give equal records and equal errors.
   Rows cover the framing edge cases (CRLF, blank lines, a missing
   trailing newline, records cut at each line) and each error kind. *)
let with_temp_file text f =
  let path = Filename.temp_file "dnastore_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let fasta_rows =
  [
    ("wrapped", ">r1 desc\nACGT\nTTAA\n>r2\nGATTACA\n");
    ("CRLF", ">r1\r\nACGT\r\nTT\r\n>r2\r\nGG\r\n");
    ("blank lines", "\n>r1\n\nACGT\n\n\n>r2\nCC\n\n");
    ("no trailing newline", ">r1\nACGT\n>r2\nGGA");
    ("sequence before header", "ACGT\n>r1\nTTTT\n");
    ("bad base", ">r1\nACXT\n>r2\nACGT\n");
    ("empty input", "");
  ]

let fastq_rows =
  [
    ("well-formed", "@a\nACGT\n+\nIIII\n@b\nGATTACA\n+b\nIIIII#I\n");
    ("no trailing newline", "@a\nACGT\n+\nIIII\n@b\nGA\n+\nII");
    ("CRLF", "@a\r\nACGT\r\n+\r\nIIII\r\n@b\r\nGG\r\n+\r\nII\r\n");
    ("cut after header", "@a\nACGT\n+\nIIII\n@b\n");
    ("cut after sequence", "@a\nACGT\n+\nIIII\n@b\nACGT\n");
    ("cut after +", "@a\nACGT\n+\nIIII\n@b\nACGT\n+\n");
    ("bad base", "@a\nACNT\n+\nIIII\n@b\nACGT\n+\nIIII\n");
    ("quality length mismatch", "@a\nACGT\n+\nIII\n@b\nACGT\n+\nIIII\n");
    ("quality below '!'", "@a\nACGT\n+\nII I\n@b\nACGT\n+\nIIII\n");
    ("missing @", "a\nACGT\n+\nIIII\n@b\nACGT\n+\nIIII\n");
    ("empty input", "");
  ]

let test_parse_string_matches_read_file () =
  let show_error line message = Printf.sprintf "%d %s" line message in
  List.iter
    (fun (label, text) ->
      let render (records, errors) =
        ( List.map
            (fun (r : Dna.Fasta.record) -> r.id ^ " " ^ Dna.Strand.to_string r.seq)
            records,
          List.map (fun (e : Dna.Fasta.error) -> show_error e.line e.message) errors )
      in
      let from_string = render (Dna.Fasta.parse_string text) in
      let from_file = with_temp_file text (fun path -> render (Dna.Fasta.read_file path)) in
      Alcotest.(check (pair (list string) (list string)))
        ("fasta: " ^ label) from_file from_string)
    fasta_rows;
  List.iter
    (fun (label, text) ->
      let render (records, errors) =
        ( List.map
            (fun (r : Dna.Fastq.record) ->
              String.concat " "
                [ r.id; Dna.Strand.to_string r.seq; Dna.Fastq.qual_to_string r.qual ])
            records,
          List.map (fun (e : Dna.Fastq.error) -> show_error e.line e.message) errors )
      in
      let from_string = render (Dna.Fastq.parse_string text) in
      let from_file = with_temp_file text (fun path -> render (Dna.Fastq.read_file path)) in
      Alcotest.(check (pair (list string) (list string)))
        ("fastq: " ^ label) from_file from_string)
    fastq_rows;
  (* The answer kept for a record cut after its [+] line. *)
  let _, errors = Dna.Fastq.parse_string (List.assoc "cut after +" fastq_rows) in
  Alcotest.(check (list string))
    "fastq: cut after + is a truncated record" [ "5 truncated record" ]
    (List.map (fun (e : Dna.Fastq.error) -> show_error e.line e.message) errors)

(* ---------- QCheck properties ---------- *)

let arb_strand =
  QCheck.make
    ~print:(fun s -> Dna.Strand.to_string s)
    QCheck.Gen.(
      map
        (fun codes -> Dna.Strand.of_codes (Array.of_list codes))
        (list_size (int_range 0 60) (int_range 0 3)))

let prop_levenshtein_symmetric =
  QCheck.Test.make ~name:"levenshtein symmetric" ~count:300 (QCheck.pair arb_strand arb_strand)
    (fun (a, b) -> Dna.Distance.levenshtein a b = Dna.Distance.levenshtein b a)

let prop_levenshtein_triangle =
  QCheck.Test.make ~name:"levenshtein triangle inequality" ~count:200
    (QCheck.triple arb_strand arb_strand arb_strand) (fun (a, b, c) ->
      Dna.Distance.levenshtein a c
      <= Dna.Distance.levenshtein a b + Dna.Distance.levenshtein b c)

let prop_levenshtein_identity =
  QCheck.Test.make ~name:"levenshtein identity" ~count:100 arb_strand (fun a ->
      Dna.Distance.levenshtein a a = 0)

let prop_revcomp_involution =
  QCheck.Test.make ~name:"reverse complement involutive" ~count:200 arb_strand (fun s ->
      Dna.Strand.equal s (Dna.Strand.reverse_complement (Dna.Strand.reverse_complement s)))

let prop_bytes_strand_roundtrip =
  QCheck.Test.make ~name:"bytes->strand->bytes" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_bound 255))
    (fun l ->
      let b = Bytes.of_string (String.init (List.length l) (fun i -> Char.chr (List.nth l i))) in
      Bytes.equal b (Dna.Bitstream.bytes_of_strand (Dna.Bitstream.strand_of_bytes b)))

let prop_scramble_involution =
  QCheck.Test.make ~name:"scramble involutive" ~count:200
    QCheck.(pair small_int (list (int_bound 255)))
    (fun (seed, l) ->
      let b = Bytes.of_string (String.init (List.length l) (fun i -> Char.chr (List.nth l i))) in
      Bytes.equal b (Dna.Randomizer.unscramble ~seed (Dna.Randomizer.scramble ~seed b)))

let prop_alignment_score =
  QCheck.Test.make ~name:"alignment score = levenshtein" ~count:200
    (QCheck.pair arb_strand arb_strand) (fun (a, b) ->
      (Dna.Alignment.align a b).Dna.Alignment.score = Dna.Distance.levenshtein a b)

(* ---------- Packed-representation properties ----------

   The packed strand must be observationally identical to the plain
   code-array semantics. Lengths are biased onto the word boundaries of
   both layouts: 2-bit packing (16 bases/word: 31/32/33) and the Myers
   masks (63 bits/word: 63/64/65). *)

let gen_codes =
  QCheck.Gen.(
    let boundary = oneofl [ 0; 1; 15; 16; 17; 31; 32; 33; 62; 63; 64; 65; 300 ] in
    let len = oneof [ int_range 0 300; boundary ] in
    map Array.of_list (list_size len (int_range 0 3)))

let arb_codes =
  QCheck.make
    ~print:(fun a ->
      Dna.Strand.to_string (Dna.Strand.of_codes a))
    gen_codes

let prop_packed_codes_roundtrip =
  QCheck.Test.make ~name:"packed of_codes/to_codes/get_code" ~count:300 arb_codes
    (fun codes ->
      let s = Dna.Strand.of_codes codes in
      Dna.Strand.to_codes s = codes
      && Array.for_all
           (fun i -> Dna.Strand.get_code s i = codes.(i))
           (Array.init (Array.length codes) Fun.id))

let prop_packed_sub =
  QCheck.Test.make ~name:"packed sub = code-array slice" ~count:300
    QCheck.(triple arb_codes small_nat small_nat)
    (fun (codes, p, l) ->
      let n = Array.length codes in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let len = if n - pos = 0 then 0 else l mod (n - pos + 1) in
      let s = Dna.Strand.of_codes codes in
      Dna.Strand.to_codes (Dna.Strand.sub s ~pos ~len) = Array.sub codes pos len)

let prop_packed_sub_of_sub =
  (* Slices of slices alias the same packed words at a composed offset. *)
  QCheck.Test.make ~name:"packed sub of sub" ~count:300
    QCheck.(quad arb_codes small_nat small_nat small_nat)
    (fun (codes, p, l, q) ->
      let n = Array.length codes in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let len = if n - pos = 0 then 0 else l mod (n - pos + 1) in
      let pos2 = if len = 0 then 0 else q mod (len + 1) in
      let len2 = len - pos2 in
      let s = Dna.Strand.of_codes codes in
      Dna.Strand.equal
        (Dna.Strand.sub (Dna.Strand.sub s ~pos ~len) ~pos:pos2 ~len:len2)
        (Dna.Strand.sub s ~pos:(pos + pos2) ~len:len2))

let prop_packed_rev_complement =
  QCheck.Test.make ~name:"packed rev/complement = code transforms" ~count:300 arb_codes
    (fun codes ->
      let n = Array.length codes in
      let s = Dna.Strand.of_codes codes in
      let rev_ref = Array.init n (fun i -> codes.(n - 1 - i)) in
      let comp_ref = Array.map (fun c -> c lxor 3) codes in
      let revcomp_ref = Array.init n (fun i -> codes.(n - 1 - i) lxor 3) in
      Dna.Strand.to_codes (Dna.Strand.rev s) = rev_ref
      && Dna.Strand.to_codes (Dna.Strand.complement s) = comp_ref
      && Dna.Strand.to_codes (Dna.Strand.reverse_complement s) = revcomp_ref)

let prop_packed_eq_masks =
  QCheck.Test.make ~name:"packed eq_masks bits" ~count:300 arb_codes (fun codes ->
      let s = Dna.Strand.of_codes codes in
      let n = Array.length codes in
      let mb = Dna.Strand.mask_bits in
      let words = (n + mb - 1) / mb in
      let masks = Dna.Strand.eq_masks s in
      Array.length masks = 4 * words
      && List.for_all
           (fun j ->
             List.for_all
               (fun c ->
                 let bit = (masks.((c * words) + (j / mb)) lsr (j mod mb)) land 1 in
                 bit = if codes.(j) = c then 1 else 0)
               [ 0; 1; 2; 3 ])
           (List.init n Fun.id))

let prop_packed_eq_masks_of_slice =
  (* Masks of an offset view must describe the view, not word 0 of the
     backing buffer. *)
  QCheck.Test.make ~name:"packed eq_masks of slice" ~count:300
    QCheck.(pair arb_codes small_nat)
    (fun (codes, p) ->
      let n = Array.length codes in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let view = Dna.Strand.sub (Dna.Strand.of_codes codes) ~pos ~len:(n - pos) in
      let fresh = Dna.Strand.of_codes (Array.sub codes pos (n - pos)) in
      Dna.Strand.eq_masks view = Dna.Strand.eq_masks fresh)

let prop_packed_concat_append =
  QCheck.Test.make ~name:"packed concat/append = array concat" ~count:300
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 5) arb_codes) arb_codes)
    (fun (pieces, extra) ->
      let strands = List.map Dna.Strand.of_codes pieces in
      let cat_ref = Array.concat pieces in
      let s = Dna.Strand.concat strands in
      Dna.Strand.to_codes s = cat_ref
      && Dna.Strand.to_codes (Dna.Strand.append s (Dna.Strand.of_codes extra))
         = Array.append cat_ref extra)

let prop_packed_equal_hash_on_views =
  (* A strand reached through an arbitrary word offset (slice of a
     concat) is indistinguishable from a freshly packed one: equal,
     compare 0, same hash, same find. *)
  QCheck.Test.make ~name:"packed equal/hash offset-independent" ~count:300
    QCheck.(pair arb_codes arb_codes)
    (fun (prefix, codes) ->
      let s = Dna.Strand.of_codes codes in
      let view =
        Dna.Strand.sub
          (Dna.Strand.concat [ Dna.Strand.of_codes prefix; s ])
          ~pos:(Array.length prefix) ~len:(Array.length codes)
      in
      Dna.Strand.equal s view
      && Dna.Strand.compare s view = 0
      && Dna.Strand.hash s = Dna.Strand.hash view)

let prop_pool_roundtrip =
  QCheck.Test.make ~name:"pool add/get roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) arb_codes)
    (fun pieces ->
      let pool = Dna.Strand_pool.create ~capacity_bases:4 ~capacity_reads:1 () in
      List.iter (fun codes -> ignore (Dna.Strand_pool.add_codes pool codes)) pieces;
      List.for_all
        (fun (i, codes) -> Dna.Strand.to_codes (Dna.Strand_pool.get pool i) = codes)
        (List.mapi (fun i c -> (i, c)) pieces))

(* [Strand.find] against a position-by-position reference scan. Texts
   are offset views (a [sub] of a longer strand, so the packed words do
   not start at base 0); patterns run to 40 bases, past the 31-base
   rolling key, and are often cut from the text (possibly with one base
   changed) so hits and near-misses are both common. *)
let naive_find ~from text pattern =
  let n = Dna.Strand.length text and m = Dna.Strand.length pattern in
  if m = 0 then Some from
  else begin
    let matches i =
      let ok = ref true in
      for r = 0 to m - 1 do
        if Dna.Strand.get_code text (i + r) <> Dna.Strand.get_code pattern r then ok := false
      done;
      !ok
    in
    let rec at i = if i > n - m then None else if matches i then Some i else at (i + 1) in
    at (max 0 from)
  end

let gen_find_case =
  QCheck.Gen.(
    let random_pattern m = map Dna.Strand.of_codes (array_size (return m) (int_range 0 3)) in
    let* len = int_range 0 200 in
    let* pad = int_range 0 20 in
    let* codes = array_size (return (pad + len)) (int_range 0 3) in
    let text = Dna.Strand.sub (Dna.Strand.of_codes codes) ~pos:pad ~len in
    let* m = int_range 0 40 in
    let* pattern =
      if len >= m && m > 0 then
        let* pos = int_range 0 (len - m) in
        let* mutate = int_range (-1) (m - 1) in
        let piece = Dna.Strand.to_codes (Dna.Strand.sub text ~pos ~len:m) in
        if mutate >= 0 then piece.(mutate) <- (piece.(mutate) + 1) land 3;
        oneof [ return (Dna.Strand.of_codes piece); random_pattern m ]
      else random_pattern m
    in
    let* from = int_range (-3) (len + 3) in
    return (text, pattern, from))

let prop_find_matches_naive =
  QCheck.Test.make ~name:"find = naive scan" ~count:2000
    (QCheck.make
       ~print:(fun (t, p, from) ->
         Printf.sprintf "text %s pattern %s from %d" (Dna.Strand.to_string t)
           (Dna.Strand.to_string p) from)
       gen_find_case)
    (fun (text, pattern, from) ->
      Dna.Strand.find ~from text ~pattern = naive_find ~from text pattern)

let test_find_allocation_free () =
  (* A 3-base anchor search, as clustering keys representatives: a miss
     allocates nothing, a hit only the [Some] it returns. *)
  let r = rng () in
  let text = Dna.Strand.init_codes 150 (fun _ -> Dna.Rng.int r 3) in
  let search pattern =
    minor_words_of 10_000 (fun () -> ignore (Sys.opaque_identity (Dna.Strand.find text ~pattern)))
  in
  Alcotest.(check (float 0.)) "miss allocates nothing" 0.0 (search (Dna.Strand.of_string "TTT"));
  Alcotest.(check (float 0.))
    "hit allocates only its Some" 20_000.0
    (search (Dna.Strand.sub text ~pos:100 ~len:3))

let () =
  Alcotest.run "dna"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejection bounds" `Quick test_rng_int_rejection_bounds;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers_residues;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "geometric support" `Quick test_rng_geometric_support;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_indices_distinct;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "draws allocation-free" `Quick test_rng_draws_allocation_free;
        ] );
      ( "nucleotide",
        [
          Alcotest.test_case "roundtrip" `Quick test_nucleotide_roundtrip;
          Alcotest.test_case "complement involutive" `Quick test_nucleotide_complement_involutive;
          Alcotest.test_case "random other" `Quick test_nucleotide_random_other;
          Alcotest.test_case "invalid char" `Quick test_nucleotide_invalid_char;
        ] );
      ( "strand",
        [
          Alcotest.test_case "string roundtrip" `Quick test_strand_of_string_roundtrip;
          Alcotest.test_case "invalid rejected" `Quick test_strand_of_string_invalid;
          Alcotest.test_case "reverse complement" `Quick test_strand_reverse_complement;
          Alcotest.test_case "gc content" `Quick test_strand_gc_content;
          Alcotest.test_case "max homopolymer" `Quick test_strand_max_homopolymer;
          Alcotest.test_case "find" `Quick test_strand_find;
          Alcotest.test_case "find allocation-free" `Quick test_find_allocation_free;
          Alcotest.test_case "codes roundtrip" `Quick test_strand_codes;
          Alcotest.test_case "sub/concat" `Quick test_strand_sub_concat;
          Alcotest.test_case "count" `Quick test_strand_count;
        ] );
      ( "bitstream",
        [
          Alcotest.test_case "bytes roundtrip" `Quick test_bitstream_bytes_roundtrip;
          Alcotest.test_case "writer/reader fields" `Quick test_bitstream_writer_reader;
          Alcotest.test_case "rejects wide values" `Quick test_bitstream_writer_rejects_wide_value;
        ] );
      ( "randomizer",
        [
          Alcotest.test_case "involution" `Quick test_randomizer_involution;
          Alcotest.test_case "changes data" `Quick test_randomizer_changes_data;
          Alcotest.test_case "breaks homopolymers" `Quick test_randomizer_breaks_homopolymers;
        ] );
      ( "distance",
        [
          Alcotest.test_case "levenshtein known" `Quick test_levenshtein_known;
          Alcotest.test_case "hamming" `Quick test_hamming;
          Alcotest.test_case "leq agrees" `Quick test_levenshtein_leq_agrees;
          Alcotest.test_case "l1" `Quick test_l1;
        ] );
      ( "alignment",
        [
          Alcotest.test_case "score = levenshtein" `Quick test_alignment_score_equals_levenshtein;
          Alcotest.test_case "script applies" `Quick test_alignment_script_applies;
          Alcotest.test_case "padded lengths" `Quick test_alignment_padded_same_length;
          Alcotest.test_case "counts" `Quick test_alignment_counts;
        ] );
      ( "fasta",
        [
          Alcotest.test_case "roundtrip" `Quick test_fasta_roundtrip;
          Alcotest.test_case "multiline + errors" `Quick test_fasta_multiline_and_errors;
        ] );
      ( "fastq",
        [
          Alcotest.test_case "roundtrip" `Quick test_fastq_roundtrip;
          Alcotest.test_case "malformed" `Quick test_fastq_malformed;
          Alcotest.test_case "negative quality rejected" `Quick test_fastq_rejects_negative_quality;
          Alcotest.test_case "readers close channels" `Quick test_readers_close_on_parse_exit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_levenshtein_symmetric;
            prop_levenshtein_triangle;
            prop_levenshtein_identity;
            prop_revcomp_involution;
            prop_bytes_strand_roundtrip;
            prop_scramble_involution;
            prop_alignment_score;
            prop_packed_codes_roundtrip;
            prop_packed_sub;
            prop_packed_sub_of_sub;
            prop_packed_rev_complement;
            prop_packed_eq_masks;
            prop_packed_eq_masks_of_slice;
            prop_packed_concat_append;
            prop_packed_equal_hash_on_views;
            prop_pool_roundtrip;
            prop_find_matches_naive;
          ] );
      ( "strand_pool",
        [
          Alcotest.test_case "builder roundtrip" `Quick test_pool_builder_roundtrip;
          Alcotest.test_case "rollback/truncate/revcomp" `Quick
            test_pool_rollback_truncate_revcomp;
          Alcotest.test_case "views survive growth" `Quick test_pool_views_survive_growth;
          Alcotest.test_case "swap/permute" `Quick test_pool_swap_permute;
          Alcotest.test_case "clear reuse" `Quick test_pool_clear_reuse;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "fastq fold = read_file" `Quick test_fastq_fold_matches_read_file;
          Alcotest.test_case "fasta fold = read_file" `Quick test_fasta_fold_matches_read_file;
          Alcotest.test_case "parse_string = read_file (table)" `Quick
            test_parse_string_matches_read_file;
        ] );
    ]
