(* Quality-aware storage with DNAMapper (Section IV-C).

   Run with: dune exec examples/image_storage.exe

   A synthetic grayscale image is split into two quality tiers: the high
   nibbles of the pixels (most of the visual content) and the low
   nibbles (fine detail, corruption-tolerant). Double-sided BMA makes
   the middle matrix rows the least reliable, so DNAMapper places the
   high tier on reliable rows and the low tier on the unreliable middle.
   Under a harsh channel with thin error correction, the same wetlab run
   corrupts far fewer high-tier bytes with the mapping than without. *)

let image_side = 48

(* A gradient with a bright diagonal stripe: any byte corruption of the
   high nibble is visually obvious, low-nibble noise is not. *)
let synthetic_image () =
  Bytes.init (image_side * image_side) (fun i ->
      let x = i mod image_side and y = i / image_side in
      let base = (x * 255 / image_side / 2) + (y * 255 / image_side / 2) in
      let stripe = if abs (x - y) < 3 then 64 else 0 in
      Char.chr (min 255 (base + stripe)))

let split_tiers img =
  let n = Bytes.length img in
  let msb = Bytes.init n (fun i -> Char.chr (Char.code (Bytes.get img i) land 0xf0)) in
  let lsb = Bytes.init n (fun i -> Char.chr (Char.code (Bytes.get img i) land 0x0f)) in
  (msb, lsb)

let count_errors original decoded =
  let n = min (Bytes.length original) (Bytes.length decoded) in
  let e = ref (abs (Bytes.length original - Bytes.length decoded)) in
  for i = 0 to n - 1 do
    if Bytes.get original i <> Bytes.get decoded i then incr e
  done;
  !e

(* Thin parity so some codewords genuinely fail; the question is *which
   rows* the failures land on. Under double-sided BMA they concentrate
   on the middle rows. *)
let params = { Codec.Params.default with Codec.Params.rs_parity = 2 }

let run_trial rng ~mapped img =
  let msb, lsb = split_tiers img in
  let rows = Codec.Params.rows params in
  let reliability =
    if mapped then Codec.Dnamapper.dbma_profile ~rows
    else Array.make rows 0.0 (* uniform: arrangement degenerates to concat *)
  in
  (* The header spans whole columns, so tier data starts row-aligned. *)
  let arranged, plan = Codec.Dnamapper.arrange ~offset:0 ~rows ~reliability [ msb; lsb ] in
  let encoded = Codec.File_codec.encode ~params arranged in
  let channel =
    Simulator.Wetlab_channel.create
      ~params:{ Simulator.Wetlab_channel.default_params with base_error = 0.05 }
      ()
  in
  let sequencing = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 10) in
  let pool = Dna.Strand_pool.create () in
  ignore
    (Simulator.Sequencer.sequence_pool sequencing channel rng encoded.Codec.File_codec.strands
       ~pool);
  let clusters = Dnastore.Pipeline.cluster_default () rng pool in
  let target_len = Codec.Params.strand_nt params in
  let consensus =
    List.filter_map
      (fun idxs ->
        if Array.length idxs = 0 then None
        else Some (Reconstruction.Bma.reconstruct_double_pool ~target_len pool idxs))
      clusters
  in
  match Codec.File_codec.decode ~params ~n_units:encoded.Codec.File_codec.n_units consensus with
  | Error e -> failwith ("decode failed outright: " ^ Codec.File_codec.error_message e)
  | Ok (decoded_arranged, stats) ->
      let failed =
        Array.fold_left (fun a u -> a + List.length u.Codec.Matrix_codec.failed_codewords) 0
          stats.Codec.File_codec.units
      in
      (match Codec.Dnamapper.extract plan decoded_arranged with
      | [ msb'; lsb' ] -> (count_errors msb msb', count_errors lsb lsb', failed)
      | _ -> assert false)

let () =
  let img = synthetic_image () in
  Printf.printf "image: %dx%d = %d bytes; tiers: high nibbles / low nibbles\n" image_side
    image_side (Bytes.length img);
  Printf.printf "channel: wetlab (5%% base error, bursty), coverage 10, parity %d, DBMA recon\n\n"
    params.Codec.Params.rs_parity;
  (* Paired trials: the same seed drives both arms, so each pair of runs
     sees the identical wetlab noise and the only difference is the
     byte-to-row mapping. *)
  let trials = 6 in
  let tally mapped =
    let hi = ref 0 and lo = ref 0 and failed = ref 0 in
    for t = 1 to trials do
      let h, l, f = run_trial (Dna.Rng.create (1000 + t)) ~mapped img in
      hi := !hi + h;
      lo := !lo + l;
      failed := !failed + f
    done;
    (!hi, !lo, !failed)
  in
  let m_hi, m_lo, m_failed = tally true in
  let n_hi, n_lo, n_failed = tally false in
  Printf.printf "%-22s %14s %14s %14s\n" "" "hi-tier errors" "lo-tier errors" "failed codewords";
  Printf.printf "%-22s %14d %14d %14d\n" "DNAMapper" m_hi m_lo m_failed;
  Printf.printf "%-22s %14d %14d %14d\n" "naive arrangement" n_hi n_lo n_failed;
  print_newline ();
  if m_failed = 0 && n_failed = 0 then
    print_endline "(no codewords failed this run: error correction absorbed everything)"
  else begin
    Printf.printf
      "DNAMapper pushed corruption into the low tier: hi-tier errors %d vs %d naive.\n" m_hi n_hi;
    if m_hi <= n_hi then print_endline "quality-critical data survived better: OK"
  end
