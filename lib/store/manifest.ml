(** The store's on-disk catalog: a versioned JSON checkpoint describing
    every shard file and every live object (its primer pair — the DNA
    "key" — codec parameters and location), plus the retired primer
    pairs whose molecules still sit in shards awaiting compaction, and
    an append-only journal of the writes made since that checkpoint.

    Format version 2 adds integrity metadata: a CRC-32 per shard (over
    the canonical serialization of the manifest-recorded strand prefix,
    so orphan molecules appended by an interrupted put do not disturb
    it), a CRC-32 per object (over the original payload, the ground
    truth scrub repairs against), an object health mark
    (healthy/degraded/lost, written by {!Store.scrub}) and a shard
    quarantine flag. Version-1 manifests load with the metadata absent.

    Format version 3 makes [MANIFEST.json] a checkpoint: [put],
    [overwrite] and [delete] append one {!delta} each to
    [MANIFEST.journal] instead of rewriting the document, so a write
    costs what it changes, not the size of the store. A journal record
    is framed by its length and two CRC-32s (one over the header, one
    over the payload); [load] replays the records newer than the
    checkpoint's generation, drops a torn final record (the debris of
    a crash mid-append) and refuses a damaged record that has more data
    after it. The checkpoint itself is still written temp-then-rename,
    so a reader sees either the old or the new one, never a torn one.
    Version 1 and 2 checkpoints still load; the store's first write to
    one folds a version-3 checkpoint, so an older build never reads a
    checkpoint whose journal it would ignore. All disk traffic goes
    through a {!Store_io.t}, so every write, append, rename and
    truncate is a fault-injection point. *)

let format_version = 3
let manifest_name = "MANIFEST.json"
let journal_name = "MANIFEST.journal"
let shards_dir = "shards"
let shard_file shard_id = Filename.concat shards_dir (Printf.sprintf "shard_%05d.fasta" shard_id)

type config = {
  shard_target_strands : int;  (** open a new shard once the current one reaches this *)
  cache_objects : int;  (** LRU capacity for decoded objects *)
  error_rate : float;  (** per-base error rate of the sequencing channel *)
  coverage : int;  (** base sequencing depth; scaled per shard access *)
}

let default_config =
  { shard_target_strands = 512; cache_objects = 16; error_rate = 0.06; coverage = 10 }

type shard_meta = {
  shard_id : int;
  file : string;  (** relative to the store directory *)
  n_strands : int;  (** molecules recorded in the manifest (orphans of an interrupted put may exceed this) *)
  dead_strands : int;  (** molecules of deleted/overwritten objects, reclaimed by compaction *)
  checksum : int option;
      (** CRC-32 of the canonical FASTA serialization of the first
          [n_strands] records; [None] in version-1 manifests *)
  quarantined : bool;
      (** scrub found this shard damaged and left it in place because
          degraded or lost objects still reference it *)
}

type health =
  | Healthy
  | Degraded of { recovered_fraction : float; ranges : (int * int) list }
  | Lost

type object_meta = {
  key : string;
  version : int;  (** bumped by every overwrite *)
  shard : int;
  pair : Codec.Primer.pair;
  n_units : int;
  params : Codec.Params.t;
  layout : Codec.Layout.t;
  original_size : int;
  checksum : int option;  (** CRC-32 of the payload; [None] in version-1 manifests *)
  health : health;
}

type t = {
  version : int;
  seed : int;
  generation : int;  (** bumped by every manifest write *)
  next_shard_id : int;
  config : config;
  shards : shard_meta list;
  objects : object_meta list;  (** insertion order *)
  retired : Codec.Primer.pair list;
      (** pairs of deleted/overwritten objects; their molecules are
          still physically present, so the pairs stay unavailable until
          compaction clears them *)
}

let empty ~seed ~config =
  {
    version = format_version;
    seed;
    generation = 0;
    next_shard_id = 0;
    config;
    shards = [];
    objects = [];
    retired = [];
  }

(* ---------- JSON encoding ---------- *)

module J = Store_json

let json_of_pair (pair : Codec.Primer.pair) =
  J.Obj
    [
      ("forward", J.String (Dna.Strand.to_string pair.Codec.Primer.forward));
      ("reverse", J.String (Dna.Strand.to_string pair.Codec.Primer.reverse));
    ]

let json_of_shard (s : shard_meta) =
  J.Obj
    ([
       ("id", J.Int s.shard_id);
       ("file", J.String s.file);
       ("n_strands", J.Int s.n_strands);
       ("dead_strands", J.Int s.dead_strands);
     ]
    @ (match s.checksum with None -> [] | Some c -> [ ("checksum", J.Int c) ])
    @ if s.quarantined then [ ("quarantined", J.Bool true) ] else [])

let health_name = function Healthy -> "healthy" | Degraded _ -> "degraded" | Lost -> "lost"

let json_of_health = function
  | Healthy -> [ ("health", J.String "healthy") ]
  | Lost -> [ ("health", J.String "lost") ]
  | Degraded { recovered_fraction; ranges } ->
      [
        ("health", J.String "degraded");
        ("recovered_fraction", J.Float recovered_fraction);
        ( "recovered_ranges",
          J.List (List.map (fun (a, b) -> J.List [ J.Int a; J.Int b ]) ranges) );
      ]

let json_of_object (o : object_meta) =
  J.Obj
    ([
       ("key", J.String o.key);
       ("version", J.Int o.version);
       ("shard", J.Int o.shard);
       ("pair", json_of_pair o.pair);
       ("n_units", J.Int o.n_units);
       ("payload_nt", J.Int o.params.Codec.Params.payload_nt);
       ("rs_data", J.Int o.params.Codec.Params.rs_data);
       ("rs_parity", J.Int o.params.Codec.Params.rs_parity);
       ("scramble_seed", J.Int o.params.Codec.Params.scramble_seed);
       ("layout", J.String (Codec.Layout.name o.layout));
       ("original_size", J.Int o.original_size);
     ]
    @ (match o.checksum with None -> [] | Some c -> [ ("checksum", J.Int c) ])
    @ json_of_health o.health)

let to_json (t : t) =
  J.Obj
    [
      ("format_version", J.Int format_version);
      ("seed", J.Int t.seed);
      ("generation", J.Int t.generation);
      ("next_shard_id", J.Int t.next_shard_id);
      ( "config",
        J.Obj
          [
            ("shard_target_strands", J.Int t.config.shard_target_strands);
            ("cache_objects", J.Int t.config.cache_objects);
            ("error_rate", J.Float t.config.error_rate);
            ("coverage", J.Int t.config.coverage);
          ] );
      ("shards", J.List (List.map json_of_shard t.shards));
      ("objects", J.List (List.map json_of_object t.objects));
      ("retired", J.List (List.map json_of_pair t.retired));
    ]

(* ---------- JSON decoding ---------- *)

let ( let* ) = Result.bind

let opt_int_field v k =
  match J.member k v with
  | None -> Ok None
  | Some f -> Result.map Option.some (J.as_int f)

let opt_bool_field v k =
  match J.member k v with
  | None -> Ok false
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S is not a bool" k)

let strand_field v k =
  let* s = J.string_field v k in
  match Dna.Strand.of_string_opt s with
  | Some strand -> Ok strand
  | None -> Error (Printf.sprintf "field %S is not a DNA strand" k)

let pair_of_json v =
  let* forward = strand_field v "forward" in
  let* reverse = strand_field v "reverse" in
  Ok { Codec.Primer.forward; reverse }

let shard_of_json v =
  let* shard_id = J.int_field v "id" in
  let* file = J.string_field v "file" in
  let* n_strands = J.int_field v "n_strands" in
  let* dead_strands = J.int_field v "dead_strands" in
  let* checksum = opt_int_field v "checksum" in
  let* quarantined = opt_bool_field v "quarantined" in
  Ok { shard_id; file; n_strands; dead_strands; checksum; quarantined }

let range_of_json = function
  | J.List [ J.Int a; J.Int b ] -> Ok (a, b)
  | _ -> Error "malformed recovered range (want [start, stop])"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let health_of_json v =
  match J.member "health" v with
  | None -> Ok Healthy (* version-1 objects carry no health mark *)
  | Some (J.String "healthy") -> Ok Healthy
  | Some (J.String "lost") -> Ok Lost
  | Some (J.String "degraded") ->
      let* recovered_fraction = J.float_field v "recovered_fraction" in
      let* ranges = Result.bind (J.list_field v "recovered_ranges") (map_result range_of_json) in
      Ok (Degraded { recovered_fraction; ranges })
  | Some _ -> Error "unknown health mark"

let object_of_json v =
  let* key = J.string_field v "key" in
  let* version = J.int_field v "version" in
  let* shard = J.int_field v "shard" in
  let* pair = Result.bind (J.field v "pair") pair_of_json in
  let* n_units = J.int_field v "n_units" in
  let* payload_nt = J.int_field v "payload_nt" in
  let* rs_data = J.int_field v "rs_data" in
  let* rs_parity = J.int_field v "rs_parity" in
  let* scramble_seed = J.int_field v "scramble_seed" in
  let* layout_name = J.string_field v "layout" in
  let* original_size = J.int_field v "original_size" in
  let* checksum = opt_int_field v "checksum" in
  let* health = health_of_json v in
  let* layout =
    match List.find_opt (fun l -> Codec.Layout.name l = layout_name) Codec.Layout.all with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "unknown layout %S" layout_name)
  in
  Ok
    {
      key;
      version;
      shard;
      pair;
      n_units;
      params = { Codec.Params.payload_nt; rs_data; rs_parity; scramble_seed };
      layout;
      original_size;
      checksum;
      health;
    }

let readable_versions = [ 1; 2; 3 ]

let of_json v : (t, string) result =
  let* version = J.int_field v "format_version" in
  if not (List.mem version readable_versions) then
    Error
      (Printf.sprintf "manifest format version %d, this build reads versions %s" version
         (String.concat "/" (List.map string_of_int readable_versions)))
  else
    let* seed = J.int_field v "seed" in
    let* generation = J.int_field v "generation" in
    let* next_shard_id = J.int_field v "next_shard_id" in
    let* cfg = J.field v "config" in
    let* shard_target_strands = J.int_field cfg "shard_target_strands" in
    let* cache_objects = J.int_field cfg "cache_objects" in
    let* error_rate = J.float_field cfg "error_rate" in
    let* coverage = J.int_field cfg "coverage" in
    let* shards = Result.bind (J.list_field v "shards") (map_result shard_of_json) in
    let* objects = Result.bind (J.list_field v "objects") (map_result object_of_json) in
    let* retired = Result.bind (J.list_field v "retired") (map_result pair_of_json) in
    Ok
      {
        version;
        seed;
        generation;
        next_shard_id;
        config = { shard_target_strands; cache_objects; error_rate; coverage };
        shards;
        objects;
        retired;
      }

(* ---------- journal deltas ---------- *)

type delta = {
  generation : int;
  next_shard_id : int;
  shards : shard_meta list;
  upsert : object_meta option;
  remove : string option;
  retire : Codec.Primer.pair option;
}

(* The one state transition of a journaled write, shared by the live
   store and replay, so a reopened manifest equals the live one. A
   removal goes first; an upserted object replaces its key in place or
   joins the end; an upserted shard replaces its id in place or joins
   the front. *)
let apply (t : t) (d : delta) =
  let objects =
    match d.remove with
    | None -> t.objects
    | Some key -> List.filter (fun (o : object_meta) -> o.key <> key) t.objects
  in
  let objects =
    match d.upsert with
    | None -> objects
    | Some o ->
        if List.exists (fun (x : object_meta) -> x.key = o.key) objects then
          List.map (fun (x : object_meta) -> if x.key = o.key then o else x) objects
        else objects @ [ o ]
  in
  let shards =
    List.fold_left
      (fun shards (s : shard_meta) ->
        if List.exists (fun (x : shard_meta) -> x.shard_id = s.shard_id) shards then
          List.map (fun (x : shard_meta) -> if x.shard_id = s.shard_id then s else x) shards
        else s :: shards)
      t.shards d.shards
  in
  {
    t with
    generation = d.generation;
    next_shard_id = d.next_shard_id;
    shards;
    objects;
    retired = (match d.retire with None -> t.retired | Some p -> p :: t.retired);
  }

let json_of_delta d =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  J.Obj
    ([
       ("generation", J.Int d.generation);
       ("next_shard_id", J.Int d.next_shard_id);
       ("shards", J.List (List.map json_of_shard d.shards));
     ]
    @ opt "upsert" json_of_object d.upsert
    @ opt "remove" (fun k -> J.String k) d.remove
    @ opt "retire" json_of_pair d.retire)

let delta_of_json v =
  let opt name f =
    match J.member name v with None -> Ok None | Some x -> Result.map Option.some (f x)
  in
  let* generation = J.int_field v "generation" in
  let* next_shard_id = J.int_field v "next_shard_id" in
  let* shards = Result.bind (J.list_field v "shards") (map_result shard_of_json) in
  let* upsert = opt "upsert" object_of_json in
  let* remove = opt "remove" J.as_string in
  let* retire = opt "retire" pair_of_json in
  Ok { generation; next_shard_id; shards; upsert; remove; retire }

(* A journal record: the payload's length, its CRC-32 and a CRC-32 of
   those first 8 bytes, each a big-endian u32, then the payload (the
   delta as JSON). The header check keeps a damaged length from passing
   for a torn tail. *)
let header_bytes = 12

let journal_record d =
  let payload = J.to_string (json_of_delta d) in
  let header = Bytes.create header_bytes in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_be header 4 (Int32.of_int (Store_io.crc32 payload));
  Bytes.set_int32_be header 8 (Int32.of_int (Store_io.crc32 (Bytes.sub_string header 0 8)));
  Bytes.to_string header ^ payload

type journal = { records : delta list; valid_bytes : int }

(* Split a journal into its records. Whatever follows the last whole
   record — an incomplete header or payload, or a final payload whose
   CRC fails — is a torn append and ends the scan; [valid_bytes] is
   where it starts. A bad header, or a bad payload with more data after
   it, is damage. *)
let parse_journal s : (journal, string) result =
  let n = String.length s in
  let u32 i = Int32.to_int (String.get_int32_be s i) land 0xFFFF_FFFF in
  let rec scan off acc =
    let torn () = Ok { records = List.rev acc; valid_bytes = off } in
    if n - off < header_bytes then torn ()
    else if Store_io.crc32 (String.sub s off 8) <> u32 (off + 8) then
      Error (Printf.sprintf "journal record at byte %d: header checksum mismatch" off)
    else
      let len = u32 off in
      if n - off - header_bytes < len then torn ()
      else
        let payload = String.sub s (off + header_bytes) len in
        let next = off + header_bytes + len in
        if Store_io.crc32 payload <> u32 (off + 4) then
          if next = n then torn ()
          else Error (Printf.sprintf "journal record at byte %d: payload checksum mismatch" off)
        else
          match Result.bind (J.of_string payload) delta_of_json with
          | Error msg -> Error (Printf.sprintf "journal record at byte %d: %s" off msg)
          | Ok d -> scan next (d :: acc)
  in
  scan 0 []

(* Records at or below the checkpoint's generation were folded into it
   (a crash between a checkpoint and the journal's truncation leaves
   them); the rest must continue the generation count one by one. *)
let replay (checkpoint : t) records =
  List.fold_left
    (fun acc (d : delta) ->
      let* (m : t) = acc in
      if d.generation <= m.generation then Ok m
      else if d.generation = m.generation + 1 then Ok (apply m d)
      else
        Error
          (Printf.sprintf "journal jumps from generation %d to %d" m.generation d.generation))
    (Ok checkpoint) records

(* ---------- disk ---------- *)


let save ?(io = Store_io.real) ~dir (t : t) =
  let content = J.to_string (to_json t) in
  Store_io.write_file_atomic io ~dir ~name:manifest_name content;
  String.length content

type loaded = {
  manifest : t;
  checkpoint_bytes : int;
  journal : journal;
  torn_bytes : int;
}

let read_whole io path what =
  match Store_io.read_file io path with
  | exception Sys_error msg -> Error (Printf.sprintf "%s unreadable: %s" what msg)
  | content -> Ok content

let load ?(io = Store_io.real) ~dir () : (loaded, string) result =
  let path = Filename.concat dir manifest_name in
  let jpath = Filename.concat dir journal_name in
  if not (Store_io.exists io path) then Error (Printf.sprintf "no manifest at %s" path)
  else
    let* content = read_whole io path "manifest" in
    let* checkpoint =
      Result.map_error (Printf.sprintf "manifest unreadable: %s") (J.of_string content)
    in
    let* checkpoint = of_json checkpoint in
    let* log = if Store_io.exists io jpath then read_whole io jpath "journal" else Ok "" in
    let* journal = parse_journal log in
    let* manifest = replay checkpoint journal.records in
    Ok
      {
        manifest;
        checkpoint_bytes = String.length content;
        journal;
        torn_bytes = String.length log - journal.valid_bytes;
      }
