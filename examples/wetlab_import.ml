(* Handling wetlab data (Section VIII).

   Run with: dune exec examples/wetlab_import.exe

   Instead of feeding simulator output straight into clustering, this
   example takes the detour a real experiment takes: reads are exported
   as a FASTQ file (as a sequencer would produce, in both orientations),
   then ingested back — parsing, primer-pair identification, 3'->5'
   orientation fixing, primer stripping — and only then decoded. The
   FASTQ file can equally come from a real Illumina/Nanopore run. *)

let () =
  let rng = Dna.Rng.create 77 in
  let file = Bytes.of_string "Wetlab data replaces the simulation module seamlessly." in

  (* Encode and tag with primers, as for real synthesis. *)
  let params = Codec.Params.default in
  let pair = (Codec.Primer.generate_pairs_exn rng 1).(0) in
  let encoded = Codec.File_codec.encode ~params file in
  let tagged = Array.map (Codec.Primer.attach pair) encoded.Codec.File_codec.strands in
  Printf.printf "synthesized %d primer-tagged molecules of %d nt\n" (Array.length tagged)
    (Dna.Strand.length tagged.(0));

  (* "Sequence": noisy reads, half of them in reverse orientation. *)
  let channel = Simulator.Iid_channel.create_rate ~error_rate:0.05 in
  let sequencing =
    {
      (Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 10)) with
      Simulator.Sequencer.p_reverse = 0.5;
    }
  in
  let pool = Dna.Strand_pool.create () in
  ignore (Simulator.Sequencer.sequence_pool sequencing channel rng tagged ~pool);
  let read_strands = Dna.Strand_pool.to_array pool in

  (* Export to FASTQ — the sequencer's output format. *)
  let path = Filename.temp_file "dnastore_run" ".fastq" in
  Dnastore.Wetlab_io.export_fastq_file path read_strands;
  Printf.printf "exported %d reads to %s\n" (Array.length read_strands) path;

  (* Ingest: parse, identify the primer pair, fix orientation, strip. *)
  let ingested = Dnastore.Wetlab_io.ingest_file_pool [ pair ] path in
  let stats = ingested.Dnastore.Wetlab_io.pool_stats in
  Printf.printf
    "ingested: %d records (%d parse errors), %d forward + %d reverse oriented, %d unmatched\n"
    stats.Dnastore.Wetlab_io.total_records stats.parse_errors stats.forward stats.reverse
    stats.no_primer_match;
  let cores =
    match ingested.Dnastore.Wetlab_io.pools_by_pair with
    | [ (_, cores) ] -> cores
    | _ -> failwith "expected exactly one primer group"
  in

  (* The rest of the pipeline is unchanged: cluster, reconstruct, decode. *)
  let clusters = Dnastore.Pipeline.cluster_default () rng cores in
  let target_len = Codec.Params.strand_nt params in
  let consensus =
    List.filter_map
      (fun idxs ->
        if Array.length idxs = 0 then None
        else Some (Dnastore.Pipeline.reconstruct_nw ~target_len cores idxs))
      clusters
  in
  (match
     Codec.File_codec.decode ~params ~n_units:encoded.Codec.File_codec.n_units consensus
   with
  | Ok (bytes, _) ->
      Printf.printf "decoded: %S\n" (Bytes.to_string bytes);
      assert (Bytes.equal bytes file);
      print_endline "wetlab import round trip: EXACT"
  | Error e ->
      Printf.eprintf "decode failed: %s\n" (Codec.File_codec.error_message e);
      exit 1);
  Sys.remove path
