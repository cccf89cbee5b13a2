(** The key-value store architecture over a DNA pool (Section II-F).

    A pair of PCR primers is the key; the payloads of all molecules
    flanked by that pair are the value. [put] encodes a file, assigns it
    a fresh primer pair and drops the tagged molecules into the shared
    pool — mixed with every other file. [get] runs the random access
    path: indexed PCR selection, sequencing through the
    configured channel, primer stripping, clustering, reconstruction and
    decoding ({!Pipeline.random_access}). *)

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

(* PCR selection: amplify exactly the molecules carrying both primers,
   gathered through the index [put] maintains. *)
let pcr_select t pair = Primer_index.select t.index t.pool pair

type get_error = Key_not_found | Decode_failed of string

let get ?(stages = Pipeline.default_stages ()) ?(domains = Dna.Par.default_domains ()) t ~key :
    (Bytes.t * Pipeline.timings, get_error) result =
  match List.find_opt (fun e -> e.key = key) t.directory with
  | None -> Error Key_not_found
  | Some e -> (
      match
        Pipeline.random_access ~domains stages ~seq_rng:t.rng ~cluster_rng:t.rng ~pair:e.pair
          ~params:e.params ~layout:e.layout ~n_units:e.n_units (pcr_select t e.pair)
      with
      | Ok (bytes, _), timings -> Ok (bytes, timings)
      | Error err, _ -> Error (Decode_failed (Codec.File_codec.error_message err)))
