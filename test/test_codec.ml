(* Tests for the codec library: index, primers, layouts, matrix codec,
   file codec and DNAMapper. *)

let rng () = Dna.Rng.create 8128

let strand = Alcotest.testable Dna.Strand.pp Dna.Strand.equal

(* ---------- index ---------- *)

let test_index_roundtrip () =
  let r = rng () in
  for _ = 1 to 200 do
    let idx =
      { Codec.Index.unit_id = Dna.Rng.int r (Codec.Index.max_unit + 1);
        column = Dna.Rng.int r (Codec.Index.max_column + 1) }
    in
    let s = Codec.Index.encode idx in
    Alcotest.(check int) "fixed length" Codec.Index.nt_length (Dna.Strand.length s);
    match Codec.Index.decode s with
    | Ok idx' -> Alcotest.(check bool) "roundtrip" true (Codec.Index.equal idx idx')
    | Error e -> Alcotest.fail ("clean index rejected: " ^ Codec.Index.error_message e)
  done

let test_index_checksum_rejects_corruption () =
  let r = rng () in
  let rejected = ref 0 and misplaced = ref 0 and trials = 300 in
  for _ = 1 to trials do
    let idx = { Codec.Index.unit_id = Dna.Rng.int r 100; column = Dna.Rng.int r 26 } in
    let s = Codec.Index.encode idx in
    (* Corrupt one base. *)
    let codes = Dna.Strand.to_codes s in
    let p = Dna.Rng.int r (Array.length codes) in
    codes.(p) <- (codes.(p) + 1 + Dna.Rng.int r 3) land 3;
    match Codec.Index.decode (Dna.Strand.of_codes codes) with
    | Error _ -> incr rejected
    | Ok idx' -> if not (Codec.Index.equal idx idx') then incr misplaced
  done;
  (* Checksum must catch the vast majority of single-base corruptions. *)
  Alcotest.(check bool)
    (Printf.sprintf "rejected %d, misplaced %d" !rejected !misplaced)
    true
    (!rejected >= trials - 5 && !misplaced <= 5)

let test_index_avoids_homopolymers () =
  (* The mask must prevent small ids from emitting long A-runs. *)
  let s = Codec.Index.encode { Codec.Index.unit_id = 0; column = 0 } in
  Alcotest.(check bool) "no long homopolymer" true (Dna.Strand.max_homopolymer s <= 5)

let test_index_range_validation () =
  Alcotest.check_raises "unit out of range"
    (Invalid_argument "Index.encode: unit_id out of range") (fun () ->
      ignore (Codec.Index.encode { Codec.Index.unit_id = -1; column = 0 }))

(* ---------- primers ---------- *)

let test_primer_generation_constraints () =
  let r = rng () in
  let primers =
    match Codec.Primer.generate ~min_distance:8 r 12 with
    | Ok primers -> primers
    | Error e -> Alcotest.fail (Codec.Primer.error_message e)
  in
  Array.iter
    (fun p ->
      Alcotest.(check int) "length 20" Codec.Primer.primer_length (Dna.Strand.length p);
      let gc = Dna.Strand.gc_content p in
      Alcotest.(check bool) "gc balanced" true (gc >= 0.4 && gc <= 0.6);
      Alcotest.(check bool) "homopolymer <= 3" true (Dna.Strand.max_homopolymer p <= 3))
    primers;
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j q ->
          if i < j then
            Alcotest.(check bool) "pairwise distance" true (Dna.Distance.hamming p q >= 8))
        primers)
    primers

(* The core [find_core] locates, materialized: the slice for a forward
   read, its reverse complement for a reversed one. *)
let core_of pair read =
  Option.map
    (fun (pos, len, dir) ->
      let s = Dna.Strand.sub read ~pos ~len in
      match dir with
      | Codec.Primer.Forward -> (s, dir)
      | Codec.Primer.Reverse -> (Dna.Strand.reverse_complement s, dir))
    (Codec.Primer.find_core (Codec.Primer.key pair) read)

let test_primer_attach_strip_clean () =
  let r = rng () in
  let pair = (Codec.Primer.generate_pairs_exn r 1).(0) in
  for _ = 1 to 30 do
    let core = Dna.Strand.random r 100 in
    let tagged = Codec.Primer.attach pair core in
    Alcotest.(check int) "tagged length" 140 (Dna.Strand.length tagged);
    match Codec.Primer.find_core (Codec.Primer.key pair) tagged with
    | Some (pos, len, Codec.Primer.Forward) ->
        Alcotest.check strand "strip recovers core" core (Dna.Strand.sub tagged ~pos ~len)
    | _ -> Alcotest.fail "strip failed on clean molecule"
  done

let test_primer_strip_with_noise () =
  let r = rng () in
  let pair = (Codec.Primer.generate_pairs_exn r 1).(0) in
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.06 in
  let ok = ref 0 and trials = 100 in
  for _ = 1 to trials do
    let core = Dna.Strand.random r 100 in
    let tagged = Codec.Primer.attach pair core in
    let noisy = Simulator.Channel.transmit ch r tagged in
    match core_of pair noisy with
    | Some (stripped, _) ->
        (* allow the boundary to drift a little under noise *)
        if abs (Dna.Strand.length stripped - 100) <= 8 then incr ok
    | None -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "stripped %d/%d" !ok trials) true (!ok >= 92)

let test_primer_orientation_detection () =
  let r = rng () in
  let pair = (Codec.Primer.generate_pairs_exn r 1).(0) in
  let core = Dna.Strand.random r 80 in
  let tagged = Codec.Primer.attach pair core in
  (match core_of pair tagged with
  | Some (got, Codec.Primer.Forward) -> Alcotest.check strand "forward core" core got
  | _ -> Alcotest.fail "forward read misdetected");
  let rc = Dna.Strand.reverse_complement tagged in
  match core_of pair rc with
  | Some (got, Codec.Primer.Reverse) -> Alcotest.check strand "reverse core normalized" core got
  | _ -> Alcotest.fail "reverse read misdetected"

let test_primer_foreign_molecule_rejected () =
  let r = rng () in
  let pairs = Codec.Primer.generate_pairs_exn r 2 in
  let core = Dna.Strand.random r 80 in
  let tagged = Codec.Primer.attach pairs.(0) core in
  Alcotest.(check bool) "other pair does not match" true
    (Codec.Primer.find_core (Codec.Primer.key pairs.(1)) tagged = None)

let test_primer_normalize_reverse_noisy () =
  let r = rng () in
  let pair = (Codec.Primer.generate_pairs_exn r 1).(0) in
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.05 in
  let ok = ref 0 and trials = 80 in
  for _ = 1 to trials do
    let core = Dna.Strand.random r 100 in
    let noisy = Simulator.Channel.transmit ch r (Codec.Primer.attach pair core) in
    let read = Dna.Strand.reverse_complement noisy in
    match core_of pair read with
    | Some (stripped, _) when abs (Dna.Strand.length stripped - 100) <= 8 -> incr ok
    | Some _ | None -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "normalized %d/%d" !ok trials) true (!ok >= 72)

let test_primer_pattern_length_checked () =
  let read = Dna.Strand.random (rng ()) 100 in
  List.iter
    (fun m ->
      let pattern = Dna.Strand.random (rng ()) m in
      Alcotest.check_raises (Printf.sprintf "%d nt rejected" m)
        (Invalid_argument "Primer.locate_prefix: pattern must be 1..63 nt") (fun () ->
          ignore (Codec.Primer.locate_prefix ~slack:4 ~max_edits:5 pattern read)))
    [ 0; 64; 100 ];
  Alcotest.(check bool) "63 nt accepted" true
    (Codec.Primer.locate_prefix ~slack:4 ~max_edits:5 (Dna.Strand.sub read ~pos:0 ~len:63) read
    = Some (63, 0))

(* The packed registry must make every accept/reject decision the
   list-based reference makes: same pair sequence, same exhaustion, same
   reserved set, over registries of 0-2000 seeded pairs with releases
   interleaved. Both sides draw from rngs on the same seed, so one
   diverging decision desynchronizes every later pair. *)
let test_registry_matches_oracle () =
  let run ~size ~steps ~max_attempts seed =
    let r = Dna.Rng.create seed in
    let random_pair () =
      {
        Codec.Primer.forward = Dna.Strand.random r Codec.Primer.primer_length;
        reverse = Dna.Strand.random r Codec.Primer.primer_length;
      }
    in
    let initial = List.init size (fun _ -> random_pair ()) in
    let packed = Codec.Primer.Registry.of_pairs initial in
    let oracle = Registry_oracle.of_pairs initial in
    let rng_packed = Dna.Rng.create (seed + 1) and rng_oracle = Dna.Rng.create (seed + 1) in
    let exhausted = ref 0 in
    for step = 1 to steps do
      if step mod 3 = 0 && Registry_oracle.size oracle > 0 then begin
        let all = Registry_oracle.pairs oracle in
        let victim = List.nth all (Dna.Rng.int r (List.length all)) in
        Codec.Primer.Registry.release packed victim;
        Registry_oracle.release oracle victim
      end
      else begin
        let got = Codec.Primer.Registry.fresh ~max_attempts packed rng_packed in
        let want = Registry_oracle.fresh ~max_attempts oracle rng_oracle in
        (match (got, want) with
        | Ok a, Ok b ->
            Alcotest.(check bool)
              (Printf.sprintf "size %d step %d: same pair" size step)
              true (Registry_oracle.pair_equal a b)
        | Error a, Error b ->
            incr exhausted;
            Alcotest.(check bool) "same exhaustion" true (a = b)
        | _ -> Alcotest.failf "size %d step %d: one side exhausted, the other not" size step)
      end;
      Alcotest.(check int) "same size" (Registry_oracle.size oracle)
        (Codec.Primer.Registry.size packed);
      Alcotest.(check bool) "same pairs, newest first" true
        (List.equal Registry_oracle.pair_equal (Registry_oracle.pairs oracle)
           (Codec.Primer.Registry.pairs packed))
    done;
    !exhausted
  in
  List.iter
    (fun size -> ignore (run ~size ~steps:24 ~max_attempts:1000 (100 + size)))
    [ 0; 1; 30; 300; 2000 ];
  Alcotest.(check bool) "small max_attempts hits Constraints_unsatisfiable" true
    (run ~size:2000 ~steps:6 ~max_attempts:3 77 > 0)

(* The scalar demux the kernel replaced, kept as the oracle: orient by
   the forward primer on the read and on its reverse complement, then
   strip both primers from the oriented copy. *)
let reference_find_core (pair : Codec.Primer.pair) read =
  let slack = Codec.Primer.slack and max_edits = Codec.Primer.max_edits in
  let head = Kernel_oracle.locate_prefix ~slack ~max_edits pair.forward in
  let strip oriented =
    match
      (head oriented, Kernel_oracle.locate_suffix ~slack ~max_edits pair.reverse oriented)
    with
    | Some (s, _), Some (e, _) when e > s -> Some (Dna.Strand.sub oriented ~pos:s ~len:(e - s))
    | _ -> None
  in
  let rc = Dna.Strand.reverse_complement read in
  let with_dir dir = Option.map (fun core -> (core, dir)) in
  match (head read, head rc) with
  | Some (_, fd), Some (_, rd) when fd <= rd -> with_dir Codec.Primer.Forward (strip read)
  | Some _, None -> with_dir Codec.Primer.Forward (strip read)
  | _, Some _ -> with_dir Codec.Primer.Reverse (strip rc)
  | None, None -> None

(* A noisy copy of [s]: each base is substituted, deleted or followed by
   an insertion with probability [rate / 3] each. *)
let mutate r rate s =
  let out = ref [] in
  for i = 0 to Dna.Strand.length s - 1 do
    let c = Dna.Strand.get_code s i in
    let u = Dna.Rng.float r in
    if u < rate /. 3. then out := ((c + 1 + Dna.Rng.int r 3) land 3) :: !out
    else if u < 2. *. rate /. 3. then ()
    else begin
      out := c :: !out;
      if u < rate then out := Dna.Rng.int r 4 :: !out
    end
  done;
  Dna.Strand.of_codes (Array.of_list (List.rev !out))

let prop_locate_matches_reference =
  QCheck.Test.make ~name:"locate_prefix/suffix = scalar DP" ~count:3000
    QCheck.(make Gen.(pair (int_bound 1_000_000_000) (int_bound 2)))
    (fun (seed, kind) ->
      let r = Dna.Rng.create seed in
      let m = 1 + Dna.Rng.int r 63 in
      let pattern = Dna.Strand.random r m in
      let slack = Dna.Rng.int r 7 and max_edits = Dna.Rng.int r 9 in
      let n = Dna.Rng.int r 141 in
      (* kind 0: a random read; 1: a noisy copy planted after 0..6 bases
         (before them for the tail search); 2: as 1, at high noise. *)
      let head, tail =
        if kind = 0 then
          let read = Dna.Strand.random r n in
          (read, read)
        else begin
          let lead = Dna.Strand.random r (Dna.Rng.int r 7) in
          let copy = mutate r (if kind = 1 then 0.08 else 0.3) pattern in
          let pad () =
            Dna.Strand.random r (max 0 (n - Dna.Strand.length lead - Dna.Strand.length copy))
          in
          let cut s = Dna.Strand.sub s ~pos:0 ~len:(min n (Dna.Strand.length s)) in
          let tail_cut s =
            let l = Dna.Strand.length s in
            Dna.Strand.sub s ~pos:(l - min n l) ~len:(min n l)
          in
          ( cut (Dna.Strand.concat [ lead; copy; pad () ]),
            tail_cut (Dna.Strand.concat [ pad (); copy; lead ]) )
        end
      in
      Codec.Primer.locate_prefix ~slack ~max_edits pattern head
      = Kernel_oracle.locate_prefix ~slack ~max_edits pattern head
      && Codec.Primer.locate_suffix ~slack ~max_edits pattern tail
         = Kernel_oracle.locate_suffix ~slack ~max_edits pattern tail)

let prop_find_core_matches_reference =
  let pairs = Codec.Primer.generate_pairs_exn (Dna.Rng.create 4242) 2 in
  (* A pair whose reverse primer is its forward primer's reverse
     complement: both orientations of its reads show the forward primer
     at the head about equally well, so the tie-break is exercised. *)
  let mirrored =
    { Codec.Primer.forward = pairs.(0).forward;
      reverse = Dna.Strand.reverse_complement pairs.(0).forward }
  in
  let key0 = Codec.Primer.key pairs.(0) and key_mirrored = Codec.Primer.key mirrored in
  QCheck.Test.make ~name:"find_core = scalar orient-then-strip" ~count:2000
    QCheck.(make Gen.(pair (int_bound 1_000_000_000) (int_bound 4)))
    (fun (seed, kind) ->
      let r = Dna.Rng.create seed in
      let rate = Dna.Rng.float r *. 0.15 in
      (* Some cores are a few bases long, so the primers' ends meet. *)
      let core () =
        Dna.Strand.random r (if Dna.Rng.int r 4 = 0 then Dna.Rng.int r 4 else 40 + Dna.Rng.int r 120)
      in
      (* kind 0, 1: carries pair 0; 2: carries the other pair; 3: no
         primers at all; 4: carries the mirrored pair. Half of the reads
         arrive reversed. *)
      let pair, key, molecule =
        match kind with
        | 0 | 1 -> (pairs.(0), key0, Codec.Primer.attach pairs.(0) (core ()))
        | 2 -> (pairs.(0), key0, Codec.Primer.attach pairs.(1) (core ()))
        | 3 -> (pairs.(0), key0, Dna.Strand.random r (Dna.Rng.int r 180))
        | _ -> (mirrored, key_mirrored, Codec.Primer.attach mirrored (core ()))
      in
      let noisy = if kind = 4 && Dna.Rng.bool r then molecule else mutate r rate molecule in
      let read = if Dna.Rng.bool r then Dna.Strand.reverse_complement noisy else noisy in
      let got =
        Option.map
          (fun (pos, len, dir) ->
            let s = Dna.Strand.sub read ~pos ~len in
            ( Dna.Strand.to_string
                (if dir = Codec.Primer.Forward then s else Dna.Strand.reverse_complement s),
              dir ))
          (Codec.Primer.find_core key read)
      in
      let want =
        Option.map (fun (core, dir) -> (Dna.Strand.to_string core, dir))
          (reference_find_core pair read)
      in
      got = want)

(* ---------- layouts ---------- *)

let test_layout_baseline_rows () =
  for cw = 0 to 9 do
    for c = 0 to 9 do
      Alcotest.(check int) "baseline row = codeword" cw
        (Codec.Layout.row_of Codec.Layout.Baseline ~rows:10 ~codeword:cw ~position:c)
    done
  done

let test_layout_gini_covers_all_rows () =
  (* Each Gini codeword must touch every row exactly once per [rows]
     consecutive positions. *)
  let rows = 10 in
  for cw = 0 to rows - 1 do
    let seen = Array.make rows 0 in
    for c = 0 to rows - 1 do
      let row = Codec.Layout.row_of Codec.Layout.Gini ~rows ~codeword:cw ~position:c in
      seen.(row) <- seen.(row) + 1
    done;
    Array.iter (fun n -> Alcotest.(check int) "each row once" 1 n) seen
  done

let test_layout_gini_no_cell_collision () =
  (* Distinct codewords never claim the same (row, col) cell. *)
  let rows = 8 and cols = 12 in
  let owner = Hashtbl.create 128 in
  for cw = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let row = Codec.Layout.row_of Codec.Layout.Gini ~rows ~codeword:cw ~position:c in
      let key = (row, c) in
      Alcotest.(check bool) "cell unclaimed" false (Hashtbl.mem owner key);
      Hashtbl.add owner key cw
    done
  done

(* ---------- matrix codec ---------- *)

let params = Codec.Params.default

let decode_unit_exn params ~layout columns =
  match Codec.Matrix_codec.decode_unit params ~layout columns with
  | Ok r -> r
  | Error e -> Alcotest.fail (Codec.Matrix_codec.error_message e)

let test_matrix_roundtrip_clean () =
  let r = rng () in
  List.iter (fun layout ->
    let data = Bytes.init (Codec.Params.unit_data_bytes params) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let strands = Codec.Matrix_codec.encode_unit params ~layout ~unit_id:3 data in
    Alcotest.(check int) "column count" (Codec.Params.columns params) (Array.length strands);
    let columns =
      Array.map
        (fun s ->
          match Codec.Matrix_codec.parse_strand params s with
          | Some (_, payload) -> Some payload
          | None -> Alcotest.fail "clean strand unparsable")
        strands
    in
    let decoded, stats = decode_unit_exn params ~layout columns in
    Alcotest.(check bytes) "roundtrip" data decoded;
    Alcotest.(check (list int)) "no failures" [] stats.Codec.Matrix_codec.failed_codewords)
    Codec.Layout.all

let test_matrix_erasure_tolerance () =
  let r = rng () in
  List.iter
    (fun layout ->
      let data = Bytes.init (Codec.Params.unit_data_bytes params) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
      let strands = Codec.Matrix_codec.encode_unit params ~layout ~unit_id:0 data in
      let columns =
        Array.mapi
          (fun i s ->
            (* Drop rs_parity columns: still decodable via erasures. *)
            if i mod 5 = 2 && i < 5 * params.Codec.Params.rs_parity then None
            else
              match Codec.Matrix_codec.parse_strand params s with
              | Some (_, payload) -> Some payload
              | None -> None)
          strands
      in
      let n_dropped = Array.length (Array.of_list (List.filter (fun c -> c = None) (Array.to_list columns))) in
      Alcotest.(check bool) "dropped within parity" true (n_dropped <= params.Codec.Params.rs_parity);
      let decoded, stats = decode_unit_exn params ~layout columns in
      Alcotest.(check bytes) "erasures recovered" data decoded;
      Alcotest.(check (list int)) "no failed codewords" [] stats.Codec.Matrix_codec.failed_codewords)
    Codec.Layout.all

let test_matrix_error_tolerance () =
  let r = rng () in
  List.iter
    (fun layout ->
      let data = Bytes.init (Codec.Params.unit_data_bytes params) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
      let strands = Codec.Matrix_codec.encode_unit params ~layout ~unit_id:0 data in
      (* Corrupt whole payloads of 3 columns: each codeword sees 3 byte
         errors, correctable with parity 6. *)
      let columns =
        Array.mapi
          (fun i s ->
            match Codec.Matrix_codec.parse_strand params s with
            | Some (_, payload) ->
                if i = 1 || i = 7 || i = 13 then
                  Some (Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5a)) payload)
                else Some payload
            | None -> None)
          strands
      in
      let decoded, stats = decode_unit_exn params ~layout columns in
      Alcotest.(check bytes) "errors corrected" data decoded;
      Alcotest.(check (list int)) "no failures" [] stats.Codec.Matrix_codec.failed_codewords;
      Alcotest.(check bool) "corrections reported" true (stats.Codec.Matrix_codec.corrected_bytes > 0))
    Codec.Layout.all

let test_matrix_indel_shows_as_substitutions () =
  (* The paper's observation: a deletion inside one molecule surfaces as
     substitution errors in the codewords, which RS then corrects. *)
  let r = rng () in
  let data = Bytes.init (Codec.Params.unit_data_bytes params) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let strands = Codec.Matrix_codec.encode_unit params ~layout:Codec.Layout.Baseline ~unit_id:0 data in
  (* Reconstruct column 4 with a single-base slip: delete one payload
     base, then pad at the end to keep the length. *)
  let columns =
    Array.mapi
      (fun i s ->
        if i = 4 then begin
          let codes = Dna.Strand.to_codes s in
          let slipped =
            Array.init (Array.length codes) (fun j ->
                if j < 40 then codes.(j)
                else if j < Array.length codes - 1 then codes.(j + 1)
                else 0)
          in
          match Codec.Matrix_codec.parse_strand params (Dna.Strand.of_codes slipped) with
          | Some (_, payload) -> Some payload
          | None -> None (* index corrupted by the slip: becomes an erasure *)
        end
        else
          match Codec.Matrix_codec.parse_strand params s with
          | Some (_, payload) -> Some payload
          | None -> None)
      strands
  in
  let decoded, _ = decode_unit_exn params ~layout:Codec.Layout.Baseline columns in
  Alcotest.(check bytes) "slip corrected" data decoded

(* ---------- file codec ---------- *)

let test_file_roundtrip_sizes () =
  let r = rng () in
  List.iter
    (fun size ->
      let file = Bytes.init size (fun _ -> Char.chr (Dna.Rng.int r 256)) in
      List.iter
        (fun layout ->
          let encoded = Codec.File_codec.encode ~layout file in
          let strands = Array.to_list encoded.Codec.File_codec.strands in
          match Codec.File_codec.decode ~layout ~n_units:encoded.Codec.File_codec.n_units strands with
          | Ok (decoded, stats) ->
              Alcotest.(check bytes) (Printf.sprintf "size %d" size) file decoded;
              Alcotest.(check bool) "fully recovered" true (Codec.File_codec.fully_recovered stats)
          | Error e -> Alcotest.fail (Codec.File_codec.error_message e))
        Codec.Layout.all)
    [ 0; 1; 13; 100; 600; 601; 2000 ]

let test_file_strands_shuffled_and_duplicated () =
  let r = rng () in
  let file = Bytes.init 900 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let encoded = Codec.File_codec.encode file in
  let strands = Array.copy encoded.Codec.File_codec.strands in
  Dna.Rng.shuffle_in_place r strands;
  let with_dups = Array.to_list strands @ Array.to_list (Array.sub strands 0 10) in
  match Codec.File_codec.decode ~n_units:encoded.Codec.File_codec.n_units with_dups with
  | Ok (decoded, _) -> Alcotest.(check bytes) "order independent" file decoded
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)

let test_file_missing_strands_within_parity () =
  let r = rng () in
  let file = Bytes.init 500 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let encoded = Codec.File_codec.encode file in
  let strands = Array.to_list encoded.Codec.File_codec.strands in
  (* Drop every 9th molecule (at most parity-many per unit). *)
  let survivors = List.filteri (fun i _ -> i mod 9 <> 0) strands in
  match Codec.File_codec.decode ~n_units:encoded.Codec.File_codec.n_units survivors with
  | Ok (decoded, stats) ->
      Alcotest.(check bytes) "recovered with missing molecules" file decoded;
      Alcotest.(check bool) "missing reported" true (stats.Codec.File_codec.missing_strands > 0)
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)

let test_file_garbage_strands_ignored () =
  let r = rng () in
  let file = Bytes.init 300 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let encoded = Codec.File_codec.encode file in
  let garbage = List.init 20 (fun _ -> Dna.Strand.random r (Codec.Params.strand_nt Codec.Params.default)) in
  let strands = Array.to_list encoded.Codec.File_codec.strands @ garbage in
  match Codec.File_codec.decode ~n_units:encoded.Codec.File_codec.n_units strands with
  | Ok (decoded, _) -> Alcotest.(check bytes) "garbage tolerated" file decoded
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)

let test_file_wrong_length_strands_ignored () =
  let r = rng () in
  let file = Bytes.init 300 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let encoded = Codec.File_codec.encode file in
  let junk = List.init 5 (fun i -> Dna.Strand.random r (50 + i)) in
  let strands = junk @ Array.to_list encoded.Codec.File_codec.strands in
  match Codec.File_codec.decode ~n_units:encoded.Codec.File_codec.n_units strands with
  | Ok (decoded, stats) ->
      Alcotest.(check bytes) "recovered" file decoded;
      Alcotest.(check bool) "junk counted" true (stats.Codec.File_codec.unparsable_strands >= 5)
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)

let test_file_header_survives_one_bad_column () =
  let r = rng () in
  let file = Bytes.init 400 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let encoded = Codec.File_codec.encode file in
  (* Sabotage the strands of column 0 of unit 0 (first strand), replacing
     its payload with garbage while keeping a valid index: decode should
     still find the length via the other header copies + RS. *)
  let strands = Array.copy encoded.Codec.File_codec.strands in
  let bad_payload = Dna.Strand.random r Codec.Params.default.Codec.Params.payload_nt in
  strands.(0) <-
    Dna.Strand.append
      (Dna.Strand.sub strands.(0) ~pos:0 ~len:Codec.Index.nt_length)
      bad_payload;
  match Codec.File_codec.decode ~n_units:encoded.Codec.File_codec.n_units (Array.to_list strands) with
  | Ok (decoded, _) -> Alcotest.(check bytes) "header survived" file decoded
  | Error e -> Alcotest.fail (Codec.File_codec.error_message e)

let test_file_scrambling_avoids_homopolymers () =
  (* A pathological all-zero file must still produce synthesizable
     strands (bounded homopolymers) thanks to the randomizer. *)
  let file = Bytes.make 1200 '\000' in
  let encoded = Codec.File_codec.encode file in
  Array.iter
    (fun s -> Alcotest.(check bool) "homopolymer bounded" true (Dna.Strand.max_homopolymer s <= 12))
    encoded.Codec.File_codec.strands

(* ---------- dnamapper ---------- *)

let test_dnamapper_roundtrip () =
  let r = rng () in
  let rows = 30 in
  for _ = 1 to 20 do
    let t1 = Bytes.init (50 + Dna.Rng.int r 200) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let t2 = Bytes.init (50 + Dna.Rng.int r 200) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let t3 = Bytes.init (Dna.Rng.int r 100) (fun _ -> Char.chr (Dna.Rng.int r 256)) in
    let reliability = Array.init rows (fun i -> Dna.Rng.float r +. float_of_int i *. 0.0) in
    let arranged, plan = Codec.Dnamapper.arrange ~rows ~reliability [ t1; t2; t3 ] in
    match Codec.Dnamapper.extract plan arranged with
    | [ t1'; t2'; t3' ] ->
        Alcotest.(check bytes) "tier1" t1 t1';
        Alcotest.(check bytes) "tier2" t2 t2';
        Alcotest.(check bytes) "tier3" t3 t3'
    | _ -> Alcotest.fail "tier count"
  done

let test_dnamapper_roundtrip_with_offset () =
  let r = rng () in
  let rows = 12 in
  let t1 = Bytes.init 100 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let t2 = Bytes.init 80 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
  let reliability = Codec.Dnamapper.dbma_profile ~rows in
  let arranged, plan = Codec.Dnamapper.arrange ~offset:5 ~rows ~reliability [ t1; t2 ] in
  match Codec.Dnamapper.extract plan arranged with
  | [ t1'; t2' ] ->
      Alcotest.(check bytes) "tier1 with offset" t1 t1';
      Alcotest.(check bytes) "tier2 with offset" t2 t2'
  | _ -> Alcotest.fail "tier count"

let test_dnamapper_priority_placement () =
  (* Tier 0 bytes must land on the most reliable rows. *)
  let rows = 6 in
  let reliability = [| 0.9; 0.1; 0.5; 0.2; 0.8; 0.3 |] in
  (* most reliable = row 1 (lowest error) *)
  let t0 = Bytes.make 4 'H' and t1 = Bytes.make 20 'L' in
  let arranged, _ = Codec.Dnamapper.arrange ~rows ~reliability [ t0; t1 ] in
  (* The four H bytes occupy row 1 = positions 1, 7, 13, 19. *)
  List.iter
    (fun p -> Alcotest.(check char) (Printf.sprintf "H at %d" p) 'H' (Bytes.get arranged p))
    [ 1; 7; 13; 19 ]

let test_dnamapper_rank_rows () =
  let rank = Codec.Dnamapper.rank_rows [| 0.5; 0.1; 0.9; 0.2 |] in
  Alcotest.(check (array int)) "ranked by reliability" [| 1; 3; 0; 2 |] rank

let test_dbma_profile_shape () =
  let p = Codec.Dnamapper.dbma_profile ~rows:11 in
  Alcotest.(check bool) "peaks in middle" true (p.(5) > p.(0) && p.(5) > p.(10))

(* ---------- QCheck ---------- *)

let prop_file_roundtrip =
  QCheck.Test.make ~name:"file codec roundtrip" ~count:40
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 1500)) (QCheck.make (QCheck.Gen.oneofl Codec.Layout.all)))
    (fun (content, layout) ->
      let file = Bytes.of_string content in
      let encoded = Codec.File_codec.encode ~layout file in
      match
        Codec.File_codec.decode ~layout ~n_units:encoded.Codec.File_codec.n_units
          (Array.to_list encoded.Codec.File_codec.strands)
      with
      | Ok (decoded, _) -> Bytes.equal decoded file
      | Error _ -> false)

let prop_index_roundtrip =
  QCheck.Test.make ~name:"index roundtrip" ~count:200
    QCheck.(pair (int_bound Codec.Index.max_unit) (int_bound Codec.Index.max_column))
    (fun (unit_id, column) ->
      match Codec.Index.decode (Codec.Index.encode { Codec.Index.unit_id; column }) with
      | Ok idx -> idx.Codec.Index.unit_id = unit_id && idx.Codec.Index.column = column
      | Error _ -> false)

let prop_dnamapper_roundtrip =
  QCheck.Test.make ~name:"dnamapper arrange/extract" ~count:60
    QCheck.(triple (int_range 8 40) (list_of_size (QCheck.Gen.int_range 1 4) (string_of_size (QCheck.Gen.int_range 0 120))) (int_bound 20))
    (fun (rows, tiers, offset) ->
      let tiers = List.map Bytes.of_string tiers in
      let reliability = Array.init rows (fun i -> float_of_int ((i * 7) mod rows)) in
      let arranged, plan = Codec.Dnamapper.arrange ~offset ~rows ~reliability tiers in
      let extracted = Codec.Dnamapper.extract plan arranged in
      List.length extracted = List.length tiers
      && List.for_all2 Bytes.equal tiers extracted)

let () =
  Alcotest.run "codec"
    [
      ( "index",
        [
          Alcotest.test_case "roundtrip" `Quick test_index_roundtrip;
          Alcotest.test_case "checksum rejects corruption" `Quick test_index_checksum_rejects_corruption;
          Alcotest.test_case "avoids homopolymers" `Quick test_index_avoids_homopolymers;
          Alcotest.test_case "range validation" `Quick test_index_range_validation;
        ] );
      ( "primer",
        [
          Alcotest.test_case "generation constraints" `Quick test_primer_generation_constraints;
          Alcotest.test_case "attach/strip clean" `Quick test_primer_attach_strip_clean;
          Alcotest.test_case "strip with noise" `Quick test_primer_strip_with_noise;
          Alcotest.test_case "orientation detection" `Quick test_primer_orientation_detection;
          Alcotest.test_case "foreign rejected" `Quick test_primer_foreign_molecule_rejected;
          Alcotest.test_case "normalize reverse noisy" `Quick test_primer_normalize_reverse_noisy;
          Alcotest.test_case "pattern length checked" `Quick test_primer_pattern_length_checked;
          Alcotest.test_case "packed registry = list oracle" `Quick test_registry_matches_oracle;
          QCheck_alcotest.to_alcotest prop_locate_matches_reference;
          QCheck_alcotest.to_alcotest prop_find_core_matches_reference;
        ] );
      ( "layout",
        [
          Alcotest.test_case "baseline rows" `Quick test_layout_baseline_rows;
          Alcotest.test_case "gini covers all rows" `Quick test_layout_gini_covers_all_rows;
          Alcotest.test_case "gini no collision" `Quick test_layout_gini_no_cell_collision;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "roundtrip clean" `Quick test_matrix_roundtrip_clean;
          Alcotest.test_case "erasure tolerance" `Quick test_matrix_erasure_tolerance;
          Alcotest.test_case "error tolerance" `Quick test_matrix_error_tolerance;
          Alcotest.test_case "indel as substitutions" `Quick test_matrix_indel_shows_as_substitutions;
        ] );
      ( "file",
        [
          Alcotest.test_case "roundtrip sizes" `Quick test_file_roundtrip_sizes;
          Alcotest.test_case "shuffled + duplicated" `Quick test_file_strands_shuffled_and_duplicated;
          Alcotest.test_case "missing within parity" `Quick test_file_missing_strands_within_parity;
          Alcotest.test_case "garbage ignored" `Quick test_file_garbage_strands_ignored;
          Alcotest.test_case "wrong length ignored" `Quick test_file_wrong_length_strands_ignored;
          Alcotest.test_case "header survives bad column" `Quick test_file_header_survives_one_bad_column;
          Alcotest.test_case "scrambling homopolymers" `Quick test_file_scrambling_avoids_homopolymers;
        ] );
      ( "dnamapper",
        [
          Alcotest.test_case "roundtrip" `Quick test_dnamapper_roundtrip;
          Alcotest.test_case "roundtrip with offset" `Quick test_dnamapper_roundtrip_with_offset;
          Alcotest.test_case "priority placement" `Quick test_dnamapper_priority_placement;
          Alcotest.test_case "rank rows" `Quick test_dnamapper_rank_rows;
          Alcotest.test_case "dbma profile shape" `Quick test_dbma_profile_shape;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_file_roundtrip; prop_index_roundtrip; prop_dnamapper_roundtrip ] );
    ]
