(** The key-value store architecture over a DNA pool (Section II-F).

    A pair of PCR primers is the key; the payloads of all molecules
    flanked by that pair are the value. [put] encodes a file, assigns it
    a fresh primer pair and drops the tagged molecules into the shared
    pool — mixed with every other file. [get] runs the random access
    path: PCR selection by primer match, sequencing through the
    configured channel, clustering, reconstruction, primer stripping and
    decoding. *)

type entry = {
  key : string;
  pair : Codec.Primer.pair;
  n_units : int;
  params : Codec.Params.t;
  layout : Codec.Layout.t;
  original_size : int;
}

type t = {
  rng : Dna.Rng.t;
  mutable pool : Dna.Strand.t array;  (** the test tube: all molecules of all files *)
  mutable directory : entry list;  (** external metadata, not stored in DNA *)
  primers : Codec.Primer.Registry.t;  (** pairs in use, kept pairwise far apart *)
  index : Primer_index.t;  (** primer pair -> pool indices, maintained on [put] *)
}

let create ~seed =
  {
    rng = Dna.Rng.create seed;
    pool = [||];
    directory = [];
    primers = Codec.Primer.Registry.create ();
    index = Primer_index.create ();
  }

let mem t key = List.exists (fun e -> e.key = key) t.directory
let keys t = List.map (fun e -> e.key) t.directory
let pool_size t = Array.length t.pool

type put_error =
  | Duplicate_key of string
  | Primer_space_exhausted of { attempts : int }
      (** no primer pair far enough from every pair already in use *)

let put_error_message = function
  | Duplicate_key key -> "Kv_store.put: duplicate key " ^ key
  | Primer_space_exhausted { attempts } ->
      Printf.sprintf "Kv_store.put: primer space exhausted after %d attempts" attempts

let max_pair_attempts = 1000

let fresh_pair t : (Codec.Primer.pair, put_error) result =
  match Codec.Primer.Registry.fresh ~max_attempts:max_pair_attempts t.primers t.rng with
  | Ok pair -> Ok pair
  | Error (Codec.Primer.Constraints_unsatisfiable { attempts; _ }) ->
      Error (Primer_space_exhausted { attempts })

let put ?(params = Codec.Params.default) ?(layout = Codec.Layout.Baseline) t ~key
    (file : Bytes.t) : (unit, put_error) result =
  if mem t key then Error (Duplicate_key key)
  else begin
    match fresh_pair t with
    | Error err -> Error err
    | Ok pair -> (
        (* The pair is reserved before encoding; if encoding rejects the
           input, hand it back instead of leaking primer space. *)
        match Codec.File_codec.encode ~layout ~params file with
        | exception e ->
            Codec.Primer.Registry.release t.primers pair;
            raise e
        | encoded ->
            let tagged = Array.map (Codec.Primer.attach pair) encoded.Codec.File_codec.strands in
            let first = Array.length t.pool in
            t.pool <- Array.append t.pool tagged;
            (* The pool is no longer shuffled: selection is index-based
               and the sequencer shuffles reads, so pool order carries no
               information downstream. *)
            Primer_index.add_range t.index pair ~first ~len:(Array.length tagged);
            t.directory <-
              {
                key;
                pair;
                n_units = encoded.Codec.File_codec.n_units;
                params;
                layout;
                original_size = Bytes.length file;
              }
              :: t.directory;
            Ok ())
  end

let put_exn ?params ?layout t ~key file =
  match put ?params ?layout t ~key file with
  | Ok () -> ()
  | Error e -> invalid_arg (put_error_message e)

(* PCR selection: amplify exactly the molecules carrying both primers.
   Pairs recorded by [put] resolve through the index in O(own
   molecules); unknown pairs fall back to the tolerant full-pool scan. *)
let pcr_select t pair =
  if Primer_index.mem_pair t.index pair then Primer_index.select t.index t.pool pair
  else Primer_index.scan_select t.pool pair

type get_error = Key_not_found | Decode_failed of string

let get ?(stages = Pipeline.default_stages ()) ?(domains = Dna.Par.default_domains ()) t ~key :
    (Bytes.t * Pipeline.timings, get_error) result =
  match List.find_opt (fun e -> e.key = key) t.directory with
  | None -> Error Key_not_found
  | Some entry ->
      let t0 = Unix.gettimeofday () in
      let selected = pcr_select t entry.pair in
      (* Sequencing: noisy reads of the selected molecules, arriving in
         both orientations like a real sequencer run. *)
      let sequencing = { stages.Pipeline.sequencing with Simulator.Sequencer.p_reverse = 0.5 } in
      let reads = Dna.Strand_pool.create () in
      ignore
        (Simulator.Sequencer.sequence_pool sequencing stages.Pipeline.channel t.rng selected
           ~pool:reads);
      let t1 = Unix.gettimeofday () in
      (* Preprocess: orient each read and strip the entry's primers. *)
      let cores =
        match (Wetlab_io.ingest_pool [ entry.pair ] reads).Wetlab_io.pools_by_pair with
        | [ (_, cores) ] -> cores
        | _ -> Dna.Strand_pool.create ()
      in
      let clusters = stages.Pipeline.cluster t.rng cores in
      let t2 = Unix.gettimeofday () in
      let target_len = Codec.Params.strand_nt entry.params in
      let reconstructed =
        let slices = Array.of_list clusters in
        Pipeline.sort_cluster_slices cores slices;
        Dna.Par.map_array ~label:"kv.reconstruct" ~domains
          (fun idxs ->
            if Array.length idxs = 0 then (None, 0.0)
            else begin
              let c0 = Unix.gettimeofday () in
              let s = stages.Pipeline.reconstruct ~target_len cores idxs in
              (Some s, Unix.gettimeofday () -. c0)
            end)
          slices
      in
      let consensus = List.filter_map fst (Array.to_list reconstructed) in
      let cluster_times =
        Array.of_list
          (List.filter_map
             (fun (r, dt) -> if r = None then None else Some dt)
             (Array.to_list reconstructed))
      in
      let t3 = Unix.gettimeofday () in
      let result =
        Codec.File_codec.decode ~layout:entry.layout ~params:entry.params
          ~n_units:entry.n_units consensus
      in
      let t4 = Unix.gettimeofday () in
      let timings =
        {
          Pipeline.encode_s = 0.0;
          simulate_s = t1 -. t0;
          cluster_s = t2 -. t1;
          reconstruct_s = t3 -. t2;
          reconstruct_p50_s = Pipeline.percentile cluster_times 0.50;
          reconstruct_p95_s = Pipeline.percentile cluster_times 0.95;
          decode_s = t4 -. t3;
        }
      in
      (match result with
      | Ok (bytes, _) -> Ok (bytes, timings)
      | Error e -> Error (Decode_failed (Codec.File_codec.error_message e)))
