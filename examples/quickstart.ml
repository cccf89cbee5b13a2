(* Quickstart: take a message through the entire DNA storage pipeline.

   Run with: dune exec examples/quickstart.exe

   The five stages mirror Figure 1 of the paper: encode -> simulate the
   wetlab -> cluster the noisy reads -> reconstruct each cluster ->
   decode with error correction. *)

let message =
  "DNA as a storage medium offers extreme density and durability: \
   this very sentence survived synthesis, storage, sequencing, \
   clustering, trace reconstruction and Reed-Solomon decoding."

let () =
  let rng = Dna.Rng.create 2024 in
  let file = Bytes.of_string message in

  (* 1. Encode: file -> DNA strands (index + payload columns of the
     Reed-Solomon matrix unit). The wetlab channel below is harsh
     (~12% per-base error with bursts), so spend a little more on
     parity, as a real deployment facing Nanopore noise would. *)
  let params = { Codec.Params.default with Codec.Params.rs_parity = 8 } in
  let encoded = Codec.File_codec.encode ~params file in
  let strands = encoded.Codec.File_codec.strands in
  Printf.printf "1. encoded %d bytes into %d strands of %d nt each\n" (Bytes.length file)
    (Array.length strands)
    (Codec.Params.strand_nt params);
  Printf.printf "   first strand: %s...\n"
    (String.sub (Dna.Strand.to_string strands.(0)) 0 48);

  (* 2. Simulate the wetlab: synthesis + storage + sequencing noise at
     coverage 30, through the position-dependent bursty channel. *)
  let channel = Simulator.Wetlab_channel.create () in
  let sequencing =
    Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 30)
  in
  let pool = Dna.Strand_pool.create () in
  ignore (Simulator.Sequencer.sequence_pool sequencing channel rng strands ~pool);
  Printf.printf "2. sequenced %d noisy reads through the '%s' channel\n"
    (Dna.Strand_pool.length pool) (Simulator.Channel.name channel);

  (* 3. Cluster the reads by similarity; thresholds auto-configured. *)
  let clusters = Dnastore.Pipeline.cluster_default () rng pool in
  Printf.printf "3. clustered into %d clusters (expected %d)\n" (List.length clusters)
    (Array.length strands);

  (* 4. Trace reconstruction: one consensus strand per cluster, using the
     Needleman-Wunsch / partial-order-alignment algorithm. *)
  let target_len = Codec.Params.strand_nt params in
  let consensus =
    List.filter_map
      (fun idxs ->
        if Array.length idxs = 0 then None
        else Some (Dnastore.Pipeline.reconstruct_nw ~target_len pool idxs))
      clusters
  in
  Printf.printf "4. reconstructed %d consensus strands\n" (List.length consensus);

  (* 5. Decode: indices order the columns, Reed-Solomon fixes the rest. *)
  match Codec.File_codec.decode ~params ~n_units:encoded.Codec.File_codec.n_units consensus with
  | Ok (bytes, stats) ->
      Printf.printf "5. decoded %d bytes (%d molecules missing, %d RS codewords failed)\n"
        (Bytes.length bytes)
        stats.Codec.File_codec.missing_strands
        (Array.fold_left
           (fun a u -> a + List.length u.Codec.Matrix_codec.failed_codewords)
           0 stats.Codec.File_codec.units);
      print_newline ();
      print_endline (Bytes.to_string bytes);
      assert (Bytes.equal bytes file);
      print_endline "\nround trip: EXACT"
  | Error e ->
      Printf.eprintf "decode failed: %s\n" (Codec.File_codec.error_message e);
      exit 1
