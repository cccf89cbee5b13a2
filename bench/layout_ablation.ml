(* Experiment E8 — layout ablation (Sections IV-B and IV-C).

   The design claims behind Gini and DNAMapper, isolated at the codec
   level: double-sided BMA concentrates reconstruction errors on the
   middle rows of the matrix, so

   - the Baseline layout leaves middle-row codewords much more likely to
     fail than edge-row codewords;
   - Gini spreads every codeword across all rows, equalizing failure
     probability (and lowering the worst-case);
   - DNAMapper keeps the skew but steers low-priority data onto the
     unreliable rows, protecting the high-priority tier.

   The same wetlab runs (paired seeds) drive all arms. *)

open Exp_common

let n_trials = pick ~fast:3 ~full:8
let coverage = 10
let params = { Codec.Params.default with Codec.Params.rs_parity = 2 }

let channel () =
  Simulator.Wetlab_channel.create
    ~params:{ Simulator.Wetlab_channel.default_params with base_error = 0.05 }
    ()

(* Run encode->noise->cluster->DBMA->decode; report failed rows. *)
let run_trial rng ~layout file =
  let encoded = Codec.File_codec.encode ~params ~layout file in
  let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
  let pool = Dna.Strand_pool.create () in
  ignore
    (Simulator.Sequencer.sequence_pool sp (channel ()) rng encoded.Codec.File_codec.strands ~pool);
  let clusters = Dnastore.Pipeline.cluster_default () rng pool in
  let target_len = Codec.Params.strand_nt params in
  let consensus =
    List.filter_map
      (fun idxs ->
        if idxs = [||] then None
        else Some (Reconstruction.Bma.reconstruct_double_pool ~target_len pool idxs))
      clusters
  in
  match Codec.File_codec.decode ~params ~layout ~n_units:encoded.Codec.File_codec.n_units consensus with
  | Ok (decoded, stats) ->
      let per_row = Array.make (Codec.Params.rows params) 0 in
      Array.iter
        (fun u ->
          List.iter
            (fun r -> per_row.(r) <- per_row.(r) + 1)
            u.Codec.Matrix_codec.failed_codewords)
        stats.Codec.File_codec.units;
      Some (decoded, per_row)
  | Error _ -> None

let run () =
  print_string (section "Layout ablation: Baseline vs Gini vs DNAMapper");
  Printf.printf
    "setting: thin parity (%d), wetlab 5%% error, coverage %d, DBMA; %d paired trials\n"
    params.Codec.Params.rs_parity coverage n_trials;
  let rows = Codec.Params.rows params in
  let file_bytes = 3 * Codec.Params.unit_data_bytes params in

  (* Baseline vs Gini: distribution of failed codewords over rows. *)
  let tally layout =
    let per_row = Array.make rows 0 in
    let failed_total = ref 0 and decode_fail = ref 0 in
    for t = 1 to n_trials do
      let rng = Dna.Rng.create (4000 + t) in
      let file = Bytes.init file_bytes (fun i -> Char.chr ((i * 131 + t) land 0xff)) in
      match run_trial rng ~layout file with
      | Some (_, rows_failed) ->
          Array.iteri
            (fun r c ->
              per_row.(r) <- per_row.(r) + c;
              failed_total := !failed_total + c)
            rows_failed
      | None -> incr decode_fail
    done;
    (per_row, !failed_total, !decode_fail)
  in
  let base_rows, base_failed, base_hdr = tally Codec.Layout.Baseline in
  let gini_rows, gini_failed, gini_hdr = tally Codec.Layout.Gini in
  Printf.printf "\nBaseline: %d failed codewords (%d unreadable runs); per-row distribution:\n"
    base_failed base_hdr;
  print_string (profile ~height:6 ~buckets:rows (Array.map float_of_int base_rows));
  Printf.printf "\nGini: %d failed codewords (%d unreadable runs); per-row distribution:\n"
    gini_failed gini_hdr;
  print_string (profile ~height:6 ~buckets:rows (Array.map float_of_int gini_rows));
  let spread a =
    let mx = Array.fold_left max 0 a and mn = Array.fold_left min max_int a in
    mx - mn
  in
  Printf.printf
    "\nrow-failure spread (max-min): baseline %d vs gini %d — Gini equalizes the skew\n"
    (spread base_rows) (spread gini_rows);

  (* DNAMapper: tier corruption under the baseline layout. *)
  let tier_errors mapped =
    let hi = ref 0 and lo = ref 0 in
    for t = 1 to n_trials do
      let rng = Dna.Rng.create (6000 + t) in
      let half = (file_bytes - Codec.File_codec.header_span ~rows) / 2 in
      let tier_hi = Bytes.init half (fun i -> Char.chr ((i * 17 + t) land 0xff)) in
      let tier_lo = Bytes.init half (fun i -> Char.chr ((i * 91 + t) land 0xff)) in
      let reliability =
        if mapped then Codec.Dnamapper.dbma_profile ~rows else Array.make rows 0.0
      in
      let arranged, plan = Codec.Dnamapper.arrange ~rows ~reliability [ tier_hi; tier_lo ] in
      match run_trial rng ~layout:Codec.Layout.Baseline arranged with
      | Some (decoded, _) -> (
          match Codec.Dnamapper.extract plan decoded with
          | [ hi'; lo' ] ->
              let count a b =
                let e = ref 0 in
                Bytes.iteri (fun i c -> if i < Bytes.length b && c <> Bytes.get b i then incr e) a;
                !e
              in
              hi := !hi + count tier_hi hi';
              lo := !lo + count tier_lo lo'
          | _ -> ())
      | None -> ()
    done;
    (!hi, !lo)
  in
  let m_hi, m_lo = tier_errors true in
  let n_hi, n_lo = tier_errors false in
  print_string "\nDNAMapper: corrupted bytes per quality tier (baseline layout, same noise)\n";
  print_string
    (table
       [
         [ "arrangement"; "hi-tier errors"; "lo-tier errors" ];
         [ "DNAMapper"; string_of_int m_hi; string_of_int m_lo ];
         [ "naive"; string_of_int n_hi; string_of_int n_lo ];
       ]);
  print_newline ()
