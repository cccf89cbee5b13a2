(* The bit-parallel alignment kernel must return, on every input, the
   score (equal to the edit distance) and the script of the full-matrix
   oracle [Kernel_oracle.align], bit for bit.
   These tests sweep random pairs — siblings at several error rates plus
   unrelated strands — across lengths 0..300, every pairing of the
   63-bit block boundaries, the degenerate shapes (identical, unrelated,
   empty) and the memoized-reference path consensus rounds take. *)

let seeds = [ 1; 7; 42 ]

let sibling rng ~error_rate s =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  Simulator.Channel.transmit ch rng s

(* One strand pair per case: mostly siblings, some unrelated. *)
let random_pair rng =
  let la = Dna.Rng.int rng 301 in
  let a = Dna.Strand.random rng la in
  let b =
    if Dna.Rng.int rng 4 = 0 then Dna.Strand.random rng (Dna.Rng.int rng 301)
    else
      let rates = [| 0.02; 0.06; 0.15; 0.4 |] in
      sibling rng ~error_rate:rates.(Dna.Rng.int rng 4) a
  in
  (a, b)

(* A physically distinct copy: equal contents, but a miss for the
   arena's reference memo (keyed on physical equality). *)
let copy s = Dna.Strand.of_string (Dna.Strand.to_string s)

let check_exact ?(name = "random") (a, b) =
  let f = Kernel_oracle.align a b in
  let d = Dna.Distance.levenshtein a b in
  Alcotest.(check int) "full score is the edit distance" d f.Dna.Alignment.score;
  (* the script must replay to the second strand *)
  Alcotest.(check bool) "full script replays" true
    (Dna.Strand.equal b (Dna.Alignment.apply_script f.Dna.Alignment.script));
  let g = Dna.Alignment.align a b in
  let shape = Printf.sprintf "%s (%d x %d)" name (Dna.Strand.length a) (Dna.Strand.length b) in
  Alcotest.(check int) (shape ^ " score") f.Dna.Alignment.score g.Dna.Alignment.score;
  Alcotest.(check bool) (shape ^ " script identical") true
    (g.Dna.Alignment.script = f.Dna.Alignment.script)

let test_auto_matches_oracle () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      for _ = 1 to 150 do
        check_exact (random_pair rng)
      done)
    seeds

(* Every length 0..300 for the reference, against a sibling and against
   an unrelated strand; then every pairing of lengths on either side of
   the 63-bit block boundaries, so la < lb, la = lb and la > lb all
   cross them (the reference is the pattern, split into blocks). *)
let test_length_sweep () =
  let rng = Dna.Rng.create 5 in
  for la = 0 to 300 do
    let a = Dna.Strand.random rng la in
    check_exact ~name:"sibling" (a, sibling rng ~error_rate:0.1 a);
    check_exact ~name:"unrelated" (a, Dna.Strand.random rng (Dna.Rng.int rng 301))
  done;
  let boundaries = [ 1; 62; 63; 64; 125; 126; 127; 189 ] in
  List.iter
    (fun la ->
      List.iter
        (fun lb ->
          let a = Dna.Strand.random rng la in
          check_exact ~name:"boundary unrelated" (a, Dna.Strand.random rng lb);
          (* a sibling trimmed or padded to exactly [lb] bases *)
          let s = Dna.Strand.to_string (sibling rng ~error_rate:0.06 a) in
          let s =
            if String.length s >= lb then String.sub s 0 lb
            else s ^ Dna.Strand.to_string (Dna.Strand.random rng (lb - String.length s))
          in
          check_exact ~name:"boundary sibling" (a, Dna.Strand.of_string s))
        boundaries)
    boundaries

let test_degenerate_shapes () =
  let rng = Dna.Rng.create 11 in
  List.iter
    (fun len ->
      let a = Dna.Strand.random rng len in
      check_exact ~name:"identical" (a, copy a);
      check_exact ~name:"same strand" (a, a);
      check_exact ~name:"unrelated" (a, Dna.Strand.random rng len);
      check_exact ~name:"empty read" (a, Dna.Strand.empty);
      check_exact ~name:"empty reference" (Dna.Strand.empty, a))
    [ 0; 1; 2; 62; 63; 64; 127; 150; 300 ]

(* Consensus rounds align one reference against every read, and the
   arena skips refilling the reference's codes while it stays the same
   strand: repeated calls, interleaved with other references, must each
   match the oracle. *)
let test_memoized_reference () =
  let rng = Dna.Rng.create 13 in
  let refs = Array.init 3 (fun i -> Dna.Strand.random rng (60 + (70 * i))) in
  for round = 1 to 4 do
    Array.iter
      (fun r ->
        for _ = 1 to 10 do
          let read = sibling rng ~error_rate:0.1 r in
          let expect = Kernel_oracle.align r read in
          let p = Dna.Alignment.align_packed r read in
          Alcotest.(check int)
            (Printf.sprintf "round %d score" round)
            expect.Dna.Alignment.score p.Dna.Alignment.packed_score;
          Alcotest.(check bool)
            (Printf.sprintf "round %d script" round)
            true
            (Dna.Alignment.script_of_packed p = expect.Dna.Alignment.script)
        done)
      refs
  done

(* The arena is grow-only: once a warm-up batch has run, a second batch
   of pairs with the same lengths reuses every buffer — the capacity the
   pool-native reconstruction leans on. *)
let test_arena_capacity_steady () =
  let shapes = [ (120, 117); (120, 126); (150, 150); (189, 64); (64, 189); (0, 40); (40, 0) ] in
  let batch seed =
    let rng = Dna.Rng.create seed in
    List.iter
      (fun (la, lb) ->
        let a = Dna.Strand.random rng la and b = Dna.Strand.random rng lb in
        ignore (Dna.Alignment.align_packed a b))
      shapes
  in
  batch 1;
  let warm = Dna.Alignment.scratch_capacity_words () in
  Alcotest.(check bool) "warm-up allocated the arena" true (warm > 0);
  batch 2;
  Alcotest.(check int) "second batch reuses the arena" warm
    (Dna.Alignment.scratch_capacity_words ())

(* The packed script is the same alignment as the decoded one. *)
let test_packed_roundtrip () =
  let rng = Dna.Rng.create 3 in
  for _ = 1 to 50 do
    let a, b = random_pair rng in
    let p = Dna.Alignment.align_packed a b in
    let t = Kernel_oracle.align a b in
    Alcotest.(check int) "packed score" t.Dna.Alignment.score p.Dna.Alignment.packed_score;
    Alcotest.(check bool) "packed script decodes identically" true
      (Dna.Alignment.script_of_packed p = t.Dna.Alignment.script)
  done

(* On whole clusters, the alignments NW consensus runs match the oracle.
   A consensus round aligns every read against its reference: the first
   round's is the cluster's longest read, the last round's is (the
   backbone of) the returned consensus. Both are checked for every read,
   in score and script. *)
let test_consensus_alignments_match_reference () =
  let rng = Dna.Rng.create 17 in
  List.iter
    (fun coverage ->
      for _ = 1 to 6 do
        let clean = Dna.Strand.random rng 120 in
        let reads = Array.init coverage (fun _ -> sibling rng ~error_rate:0.06 clean) in
        let longest =
          Array.fold_left
            (fun l r -> if Dna.Strand.length r > Dna.Strand.length l then r else l)
            reads.(0) reads
        in
        let consensus =
          Recon_oracle.on_pool Reconstruction.Nw_consensus.reconstruct_pool ~target_len:120 reads
        in
        List.iter
          (fun (name, reference) ->
            Array.iter
              (fun read ->
                let expect = Kernel_oracle.align reference read in
                let got = Dna.Alignment.align reference read in
                let label = Printf.sprintf "cov %d vs %s" coverage name in
                Alcotest.(check int) (label ^ " score") expect.Dna.Alignment.score
                  got.Dna.Alignment.score;
                Alcotest.(check bool) (label ^ " script") true
                  (got.Dna.Alignment.script = expect.Dna.Alignment.script))
              reads)
          [ ("longest read", longest); ("consensus", consensus) ]
      done)
    [ 5; 10; 20 ]

(* The cluster order fed to reconstruction is a pure function of the
   cluster set: however the clustering stage happened to emit the
   clusters (e.g. across [--domains] settings), and wherever their reads
   sit in the arena, sorting yields the same sequence — including among
   same-size clusters, which tie-break on their reads (length, then
   lexicographic). *)
let test_cluster_sort_deterministic () =
  let rng = Dna.Rng.create 23 in
  let clusters =
    Array.init 12 (fun _ ->
        let clean = Dna.Strand.random rng 60 in
        (* fixed size 4: every cluster exercises the tie-break *)
        Array.init 4 (fun _ -> sibling rng ~error_rate:0.1 clean))
  in
  let shuffle arr =
    for i = Array.length arr - 1 downto 1 do
      let j = Dna.Rng.int rng (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done
  in
  (* Pack the clusters into a fresh arena in [order], hand the slices
     over shuffled, and read the sorted order back as strings. *)
  let sorted_reads order =
    let pool = Dna.Strand_pool.create () in
    let slices = Array.map (Array.map (Dna.Strand_pool.add_strand pool)) order in
    shuffle slices;
    Dnastore.Pipeline.sort_cluster_slices pool slices;
    Array.map (Array.map (fun i -> Dna.Strand.to_string (Dna.Strand_pool.get pool i))) slices
  in
  let reference = sorted_reads clusters in
  for _ = 1 to 5 do
    let order = Array.copy clusters in
    shuffle order;
    Alcotest.(check bool) "sorted cluster order identical" true (sorted_reads order = reference)
  done

(* ---- pool-native reconstruction: bit-identity with the boxed oracle ----

   On every cluster, each pool-native reconstructor over an index slice
   must return byte-for-byte what its boxed reference in [Recon_oracle]
   returns over the materialized reads — including which exceptions it
   raises (an empty slice must refuse exactly like an empty array). *)

(* A random cluster at coverage 3..20 over a clean strand of length
   0..300, packed into a pool alongside decoy reads so slices exercise
   non-contiguous, non-zero-based indexing. *)
let random_cluster rng =
  let coverage = 3 + Dna.Rng.int rng 18 in
  let len = Dna.Rng.int rng 301 in
  let clean = Dna.Strand.random rng len in
  let rates = [| 0.02; 0.06; 0.15 |] in
  let reads =
    Array.init coverage (fun _ -> sibling rng ~error_rate:rates.(Dna.Rng.int rng 3) clean)
  in
  let target_len = max 1 len in
  (reads, target_len)

(* Pack [reads] into a fresh pool interleaved with decoys; returns the
   pool and the slice addressing just the cluster. *)
let pool_of_reads rng reads =
  let pool = Dna.Strand_pool.create () in
  let idxs =
    Array.map
      (fun r ->
        if Dna.Rng.int rng 3 = 0 then
          ignore (Dna.Strand_pool.add_strand pool (Dna.Strand.random rng (Dna.Rng.int rng 50)));
        Dna.Strand_pool.add_strand pool r)
      reads
  in
  (pool, idxs)

let outcome f = match f () with s -> Ok s | exception e -> Error (Printexc.to_string e)

let check_strand_outcome name boxed pooled =
  match (boxed, pooled) with
  | Ok a, Ok b ->
      Alcotest.(check bool) (name ^ " byte-identical") true (Dna.Strand.equal a b)
  | Error a, Error b -> Alcotest.(check string) (name ^ " same failure") a b
  | Ok _, Error e -> Alcotest.failf "%s: boxed succeeded, pooled raised %s" name e
  | Error e, Ok _ -> Alcotest.failf "%s: boxed raised %s, pooled succeeded" name e

let algorithms =
  [
    ("nw", Recon_oracle.nw, Reconstruction.Nw_consensus.reconstruct_pool);
    ("bma", Recon_oracle.bma, Reconstruction.Bma.reconstruct_pool);
    ("dbma", Recon_oracle.bma_double, Reconstruction.Bma.reconstruct_double_pool);
    ("ensemble", Recon_oracle.ensemble, Reconstruction.Ensemble.reconstruct_pool);
    ("majority", Recon_oracle.majority, Reconstruction.Ensemble.majority_pool);
  ]

let test_pool_matches_boxed () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      for case = 1 to 25 do
        let reads, target_len = random_cluster rng in
        let pool, idxs = pool_of_reads rng reads in
        List.iter
          (fun (name, boxed, pooled) ->
            check_strand_outcome
              (Printf.sprintf "%s seed %d case %d" name seed case)
              (outcome (fun () -> boxed ~target_len reads))
              (outcome (fun () -> pooled ~target_len pool idxs)))
          algorithms;
        (* the fallback chain, including the empty slice *)
        let fb = Recon_oracle.fallback ~target_len reads in
        let fbp = Reconstruction.Ensemble.reconstruct_fallback_pool ~target_len pool idxs in
        (match (fb, fbp) with
        | Some a, Some b ->
            Alcotest.(check bool) "fallback byte-identical" true (Dna.Strand.equal a b)
        | None, None -> ()
        | _ -> Alcotest.fail "fallback chain diverged between spines");
        Alcotest.(check bool) "fallback on empty slice" true
          (Reconstruction.Ensemble.reconstruct_fallback_pool ~target_len pool [||] = None)
      done)
    seeds

(* Empty clusters refuse identically on both spines. *)
let test_pool_empty_cluster () =
  let pool = Dna.Strand_pool.create () in
  List.iter
    (fun (name, boxed, pooled) ->
      check_strand_outcome (name ^ " empty")
        (outcome (fun () -> boxed ~target_len:10 [||]))
        (outcome (fun () -> pooled ~target_len:10 pool [||])))
    algorithms

(* The per-domain arenas must not interfere: reconstructing many
   clusters through the domain pool (domains 1, 2 and 4) returns the
   same strands the boxed oracle's serial loop does. Each worker reuses
   its own arena across tasks, so any cross-task or cross-domain state
   leak shows up as a mismatch. *)
let test_pool_arena_isolation_across_domains () =
  let rng = Dna.Rng.create 2024 in
  let clusters = Array.init 24 (fun _ -> random_cluster rng) in
  let pools = Array.map (fun (reads, _) -> pool_of_reads rng reads) clusters in
  let serial =
    Array.map
      (fun (reads, target_len) -> Recon_oracle.ensemble ~target_len reads)
      clusters
  in
  List.iter
    (fun domains ->
      let pooled =
        Dna.Par.map_array ~label:"test.pool_isolation" ~domains
          (fun i ->
            let _, target_len = clusters.(i) in
            let pool, idxs = pools.(i) in
            Reconstruction.Ensemble.reconstruct_pool ~target_len pool idxs)
          (Array.init (Array.length clusters) Fun.id)
      in
      Array.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "domains %d cluster %d identical" domains i)
            true (Dna.Strand.equal serial.(i) s))
        pooled)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "alignment"
    [
      ( "exactness",
        [
          Alcotest.test_case "auto == full == levenshtein" `Quick test_auto_matches_oracle;
          Alcotest.test_case "lengths 0..300 and block boundaries" `Quick test_length_sweep;
          Alcotest.test_case "identical, unrelated, empty" `Quick test_degenerate_shapes;
          Alcotest.test_case "memoized reference" `Quick test_memoized_reference;
          Alcotest.test_case "arena capacity steady after warm-up" `Quick
            test_arena_capacity_steady;
          Alcotest.test_case "packed roundtrip" `Quick test_packed_roundtrip;
        ] );
      ( "consensus",
        [
          Alcotest.test_case "nw alignments == reference" `Quick
            test_consensus_alignments_match_reference;
          Alcotest.test_case "cluster sort deterministic" `Quick test_cluster_sort_deterministic;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pool == boxed (all algorithms)" `Quick test_pool_matches_boxed;
          Alcotest.test_case "empty cluster refuses identically" `Quick test_pool_empty_cluster;
          Alcotest.test_case "arena isolation across domains" `Quick
            test_pool_arena_isolation_across_domains;
        ] );
    ]
