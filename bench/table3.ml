(* Experiment E6 — Table III (Section IX).

   Latency of the pipeline modules in seconds for every combination of
   clustering signature ({q,w}-gram) and reconstruction algorithm
   (BMA / double-sided BMA / NWA), at coverage 10 and coverage 50.
   Setting mirrors the paper: baseline encoding, payload length 120,
   error rate 6%. Absolute numbers differ from the paper's 24-core Xeon;
   the comparisons of interest are across rows and columns. *)

open Exp_common

let n_units = pick ~fast:1 ~full:4 (* 26 molecules per unit *)
let n_runs = pick ~fast:1 ~full:3
let coverages = [ 10; 50 ]

let run_config ~kind ~algo ~coverage ~file rng =
  let stages =
    {
      Dnastore.Pipeline.channel = Simulator.Iid_channel.create_rate ~error_rate:0.06;
      sequencing = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage);
      cluster = Dnastore.Pipeline.cluster_default ~kind ();
      reconstruct =
        (match algo with
        | `Bma -> Reconstruction.Bma.reconstruct_pool
        | `Dbma -> Reconstruction.Bma.reconstruct_double_pool
        | `Nw -> Reconstruction.Nw_consensus.reconstruct_pool);
    }
  in
  let out = Dnastore.Pipeline.run ~stages rng file in
  (out.Dnastore.Pipeline.timings, out.Dnastore.Pipeline.exact)

let run () =
  print_string (section "Table III: per-module latency of the pipeline (seconds)");
  Printf.printf
    "setting: baseline encoding, payload length 120, error rate 6%%, %d units (%d molecules), avg over %d runs\n"
    n_units (26 * n_units) n_runs;
  let file_bytes = (n_units * Codec.Params.unit_data_bytes Codec.Params.default) - 200 in
  let mk_rng = Dna.Rng.create in
  let file =
    let r = mk_rng 7 in
    Bytes.init file_bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  List.iter
    (fun coverage ->
      Printf.printf "\nCoverage = %d\n" coverage;
      let rows = ref [ [ "Pipeline"; "Encoding"; "Clustering"; "Recon"; "Decoding"; "Total"; "Exact" ] ] in
      List.iter
        (fun kind ->
          List.iter
            (fun algo ->
              let totals = Array.make 5 0.0 in
              let all_exact = ref true in
              for run = 1 to n_runs do
                let rng = mk_rng (run * 31) in
                let t, exact = run_config ~kind ~algo ~coverage ~file rng in
                totals.(0) <- totals.(0) +. t.Dnastore.Pipeline.encode_s;
                totals.(1) <- totals.(1) +. t.cluster_s;
                totals.(2) <- totals.(2) +. t.reconstruct_s;
                totals.(3) <- totals.(3) +. t.decode_s;
                totals.(4) <- totals.(4) +. Dnastore.Pipeline.total_s t -. t.simulate_s;
                if not exact then all_exact := false
              done;
              let avg i = totals.(i) /. float_of_int n_runs in
              let kname =
                match kind with Clustering.Signature.Qgram -> "q-gram" | _ -> "w-gram"
              in
              rows :=
                [
                  Printf.sprintf "%s + %s" kname (recon_name algo);
                  f3 (avg 0);
                  f3 (avg 1);
                  f3 (avg 2);
                  f3 (avg 3);
                  f3 (avg 4);
                  (if !all_exact then "yes" else "NO");
                ]
                :: !rows)
            [ `Bma; `Dbma; `Nw ])
        [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ];
      print_string (table (List.rev !rows)))
    coverages;
  print_newline ()
