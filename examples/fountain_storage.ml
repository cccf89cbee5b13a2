(* Rateless storage with the DNA Fountain codec.

   Run with: dune exec examples/fountain_storage.exe

   The matrix architecture must know *which* molecules were lost
   (erasure positions). The fountain codec doesn't care: any
   sufficiently large subset of droplets decodes the file, so molecule
   dropout, failed reconstructions and corrupt droplets all just shrink
   the usable set. This example pushes droplets through the full noisy
   path — synthesis-style dropout, sequencing noise, clustering,
   reconstruction — and decodes from whatever survives. *)

let () =
  let rng = Dna.Rng.create 404 in
  let file =
    Bytes.of_string
      (String.concat " "
         (List.init 40 (fun i -> Printf.sprintf "droplet-%d spills no secrets alone;" i)))
  in
  Printf.printf "file: %d bytes\n" (Bytes.length file);

  (* Encode into droplets (each XORs a seed-determined chunk subset). *)
  let enc = Codec.Fountain.encode rng file in
  let droplets = enc.Codec.Fountain.strands in
  Printf.printf "fountain: k=%d chunks -> %d droplets of %d nt\n" enc.Codec.Fountain.k
    (Array.length droplets)
    (Codec.Fountain.strand_nt enc.Codec.Fountain.params);

  (* Wetlab: 10%% of molecules never synthesize; the rest are sequenced
     at coverage 8 through the i.i.d. channel. *)
  let sequencing =
    {
      (Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 8)) with
      Simulator.Sequencer.dropout = 0.10;
    }
  in
  let channel = Simulator.Iid_channel.create_rate ~error_rate:0.06 in
  let pool = Dna.Strand_pool.create () in
  ignore (Simulator.Sequencer.sequence_pool sequencing channel rng droplets ~pool);
  Printf.printf "sequenced %d reads (10%% molecule dropout)\n" (Dna.Strand_pool.length pool);

  (* Cluster and reconstruct as usual. *)
  let clusters = Dnastore.Pipeline.cluster_default () rng pool in
  let target_len = Codec.Fountain.strand_nt enc.Codec.Fountain.params in
  let consensus =
    List.filter_map
      (fun idxs ->
        if Array.length idxs = 0 then None
        else Some (Dnastore.Pipeline.reconstruct_nw ~target_len pool idxs))
      clusters
  in
  Printf.printf "reconstructed %d droplet candidates\n" (List.length consensus);

  (* Rateless decode: no erasure positions, just whatever survived. *)
  match Codec.Fountain.decode ~k:enc.Codec.Fountain.k ~file_bytes:enc.file_bytes consensus with
  | Ok (bytes, stats) ->
      Printf.printf "decoded from %d droplets (%d rejected by seed checksum, %d peeled)\n"
        stats.Codec.Fountain.droplets_used stats.droplets_bad stats.peeled;
      assert (Bytes.equal bytes file);
      print_endline "fountain round trip: EXACT"
  | Error e ->
      Printf.eprintf "decode failed: %s\n" e;
      exit 1
