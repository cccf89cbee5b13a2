(** The persistent, sharded, rewritable DNA object store.

    Layered over the toolkit's codec/simulator/clustering stages, the
    store keeps a pool of synthesized molecules on disk — a JSON
    manifest checkpoint ([MANIFEST.json], written temp-then-rename so a
    crash never tears it) with an append-only journal of the writes
    since ([MANIFEST.journal]), plus per-shard oligo pools serialized
    as FASTA — and
    serves primer-addressed random access in the style of Yazdi et al.'s
    rewritable DNA storage system:

    - [put] encodes an object, reserves a fresh primer pair (the DNA
      "key") and appends the tagged molecules to the open shard;
    - [get] runs the wetlab read path against only the object's shard:
      indexed PCR selection, sequencing at a depth scaled to the
      selection ({!Simulator.Sequencer.shard_depth}), primer
      demultiplexing, clustering, reconstruction, decoding;
    - [overwrite] appends a new version under a fresh pair and retires
      the old one; [delete] retires the object's pair outright — in both
      cases the stale molecules stay in their shard until
    - [compact] re-synthesizes every live object into fresh shards,
      drops the dead molecules and releases the retired primer pairs
      back into circulation.

    Decoded objects are cached in a small LRU so repeated gets skip the
    wetlab path entirely; batched gets fan the heavy stages out over the
    domain pool. *)

module Json = Store_json
module Lru = Lru
module Io = Store_io

type config = Manifest.config = {
  shard_target_strands : int;
  cache_objects : int;
  error_rate : float;
  coverage : int;
}

let default_config = Manifest.default_config
let format_version = Manifest.format_version

type error =
  | Key_not_found of string
  | Duplicate_key of string
  | Primer_space_exhausted of { attempts : int }
  | Decode_failed of { key : string; reason : string }
  | Corrupt of string
  | Corrupt_shard of { shard : int; reason : string }
  | Io_error of string
  | Object_degraded of { key : string; recovered_fraction : float }
  | Object_lost of string

let error_message = function
  | Key_not_found key -> Printf.sprintf "Store: key %s not found" key
  | Duplicate_key key -> Printf.sprintf "Store: duplicate key %s" key
  | Primer_space_exhausted { attempts } ->
      Printf.sprintf "Store: primer space exhausted after %d attempts" attempts
  | Decode_failed { key; reason } -> Printf.sprintf "Store: decoding %s failed: %s" key reason
  | Corrupt reason -> Printf.sprintf "Store: corrupt store: %s" reason
  | Corrupt_shard { shard; reason } -> Printf.sprintf "Store: shard %d corrupt: %s" shard reason
  | Io_error msg -> Printf.sprintf "Store: I/O failure: %s" msg
  | Object_degraded { key; recovered_fraction } ->
      Printf.sprintf "Store: object %s is degraded (%.0f%% recovered); use a degraded read" key
        (100. *. recovered_fraction)
  | Object_lost key -> Printf.sprintf "Store: object %s is lost" key

type pool = {
  strands : Dna.Strand.t array;
  index : Dnastore.Primer_index.t;  (** live pairs of the shard -> strand indices *)
}

type t = {
  dir : string;
  io : Store_io.t;  (** every byte to or from disk goes through this *)
  rng : Dna.Rng.t;  (** put/primer draws only: gets never touch it *)
  mutable manifest : Manifest.t;
  registry : Codec.Primer.Registry.t;  (** live + retired pairs *)
  pools : (int, pool) Hashtbl.t;  (** shard id -> loaded pool *)
  cache : Bytes.t Lru.t;
  mutable sequencing_passes : int;
      (** wetlab sequencing passes run so far; a batched get counts one
          per shard touched however many objects it coalesces *)
  mutable orphans_reclaimed : int;
      (** leftover [.tmp] and unreferenced shard files removed when this
          store was opened (debris of an interrupted run) *)
  mutable cold_accesses : int;  (** wetlab read paths run (cache misses and salvage attempts) *)
  mutable access_s : Dnastore.Pipeline.timings;  (** their stage times, summed *)
  mutable checkpoint_bytes : int;  (** size of [MANIFEST.json] *)
  mutable journal_bytes : int;  (** whole records in [MANIFEST.journal] *)
  mutable journal_records : int;
  mutable fold_pending : bool;
      (** an append or a truncate failed, so the journal may end in
          debris: the next write folds instead of appending after it *)
}

let dir t = t.dir
let keys t = List.map (fun (o : Manifest.object_meta) -> o.key) t.manifest.Manifest.objects
let config t = t.manifest.Manifest.config
let generation t = t.manifest.Manifest.generation

let find_object t key =
  List.find_opt (fun (o : Manifest.object_meta) -> o.key = key) t.manifest.Manifest.objects

let mem t key = find_object t key <> None
let object_pair t ~key = Option.map (fun (o : Manifest.object_meta) -> o.pair) (find_object t key)
let pair_reserved t pair = Codec.Primer.Registry.is_reserved t.registry pair
let manifest_json t = Store_json.to_string (Manifest.to_json t.manifest)

let shard_files t =
  List.map
    (fun (s : Manifest.shard_meta) -> Filename.concat t.dir s.file)
    t.manifest.Manifest.shards

let shard_path t ~shard =
  List.find_map
    (fun (s : Manifest.shard_meta) ->
      if s.shard_id = shard then Some (Filename.concat t.dir s.file) else None)
    t.manifest.Manifest.shards

(* ---------- lifecycle ---------- *)

let rng_of_manifest (m : Manifest.t) =
  (* Mix the generation in so every reopened store continues on a fresh
     stream instead of replaying the original one. *)
  Dna.Rng.create (m.Manifest.seed + (1000003 * m.Manifest.generation))

let of_manifest ~io ~dir ~orphans ~checkpoint_bytes (m : Manifest.t) =
  let live = List.map (fun (o : Manifest.object_meta) -> o.pair) m.Manifest.objects in
  {
    dir;
    io;
    rng = rng_of_manifest m;
    manifest = m;
    registry = Codec.Primer.Registry.of_pairs (live @ m.Manifest.retired);
    pools = Hashtbl.create 8;
    cache = Lru.create ~capacity:m.Manifest.config.cache_objects;
    sequencing_passes = 0;
    orphans_reclaimed = orphans;
    cold_accesses = 0;
    access_s = Dnastore.Pipeline.zero_timings;
    checkpoint_bytes;
    journal_bytes = 0;
    journal_records = 0;
    fold_pending = false;
  }

let init ?(config = default_config) ?(io = Store_io.real) ~dir ~seed () : (t, error) result =
  if Store_io.exists io (Filename.concat dir Manifest.manifest_name) then
    Error (Corrupt (Printf.sprintf "%s is already an initialized store" dir))
  else begin
    Store_io.mkdir_p io (Filename.concat dir Manifest.shards_dir);
    let m = Manifest.empty ~seed ~config in
    (* A journal without a checkpoint belongs to no store; empty it
       before the new checkpoint would make its records look current. *)
    if Store_io.exists io (Filename.concat dir Manifest.journal_name) then
      Store_io.truncate io ~dir ~name:Manifest.journal_name 0;
    match Manifest.save ~io ~dir m with
    | exception Store_io.Io_failure msg -> Error (Io_error msg)
    | checkpoint_bytes -> Ok (of_manifest ~io ~dir ~orphans:0 ~checkpoint_bytes m)
  end

(* Sweep the debris an interrupted run can leave behind: torn or
   unrenamed [.tmp] files anywhere in the store, and shard files the
   manifest does not reference (written by a put or compaction that
   crashed before its manifest landed). Acked state never lives in
   either, so removal is always safe. *)
let reclaim_orphans ~io ~dir (m : Manifest.t) =
  let referenced = Hashtbl.create 8 in
  List.iter
    (fun (s : Manifest.shard_meta) -> Hashtbl.replace referenced (Filename.basename s.file) ())
    m.Manifest.shards;
  let removed = ref 0 in
  let try_remove path =
    match Store_io.remove io path with () -> incr removed | exception Sys_error _ -> ()
  in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then try_remove (Filename.concat dir name))
    (Store_io.list_dir io dir);
  let sdir = Filename.concat dir Manifest.shards_dir in
  Array.iter
    (fun name ->
      let path = Filename.concat sdir name in
      if Filename.check_suffix name ".tmp" then try_remove path
      else if
        Filename.check_suffix name ".fasta"
        && String.length name >= 6
        && String.sub name 0 6 = "shard_"
        && not (Hashtbl.mem referenced name)
      then try_remove path)
    (Store_io.list_dir io sdir);
  !removed

let open_store ?(io = Store_io.real) ~dir () : (t, error) result =
  match Manifest.load ~io ~dir () with
  | Error msg -> Error (Corrupt msg)
  | Ok l ->
      let m = l.Manifest.manifest in
      let orphans = reclaim_orphans ~io ~dir m in
      let t = of_manifest ~io ~dir ~orphans ~checkpoint_bytes:l.Manifest.checkpoint_bytes m in
      t.journal_bytes <- l.Manifest.journal.Manifest.valid_bytes;
      t.journal_records <- List.length l.Manifest.journal.Manifest.records;
      (* Cut a torn append away so later records follow whole ones; if
         the cut fails, the next write folds instead. *)
      (if l.Manifest.torn_bytes > 0 then
         try Store_io.truncate io ~dir ~name:Manifest.journal_name t.journal_bytes
         with Sys_error _ -> t.fold_pending <- true);
      Ok t

(* ---------- manifest writes ---------- *)

(* A journaled write folds instead of appending once the journal holds
   more than [fold_multiple] checkpoints' worth of bytes and more than
   [fold_floor]: replay at open then stays proportional to the
   checkpoint, and a fold's cost, itself proportional to the store, is
   spread over as many writes as the store has objects. *)
let fold_multiple = 1
let fold_floor = 4096

(* Write [m] as the checkpoint and adopt it, then empty the journal.
   Adopts only after the checkpoint lands, so an I/O failure leaves the
   in-memory view on the old, still-true state. Records left behind by
   a crash or a failed truncate are no newer than the checkpoint, so
   replay skips them; [fold_pending] makes the next write cut them. *)
let write_checkpoint t (m : Manifest.t) =
  let m = { m with Manifest.version = Manifest.format_version } in
  let bytes = Manifest.save ~io:t.io ~dir:t.dir m in
  t.manifest <- m;
  t.checkpoint_bytes <- bytes;
  if t.journal_bytes > 0 || t.fold_pending then
    match Store_io.truncate t.io ~dir:t.dir ~name:Manifest.journal_name 0 with
    | () ->
        t.journal_bytes <- 0;
        t.journal_records <- 0;
        t.fold_pending <- false
    | exception Sys_error _ -> t.fold_pending <- true

(* Persist a rewritten manifest (compaction, scrub) as a checkpoint,
   generation bumped. *)
let save_manifest t (m : Manifest.t) =
  write_checkpoint t { m with Manifest.generation = m.Manifest.generation + 1 }

(* Persist one put, overwrite or delete: append its delta to the
   journal, or fold when the journal is due, an earlier append failed,
   or the checkpoint predates the journal (so an older build never
   reads a checkpoint whose journal it would miss). *)
let commit t (d : Manifest.delta) =
  let m = Manifest.apply t.manifest d in
  if
    t.fold_pending
    || t.manifest.Manifest.version < Manifest.format_version
    || t.journal_bytes > max fold_floor (fold_multiple * t.checkpoint_bytes)
  then write_checkpoint t m
  else begin
    let record = Manifest.journal_record d in
    (try Store_io.append t.io ~dir:t.dir ~name:Manifest.journal_name record
     with e ->
       t.fold_pending <- true;
       raise e);
    t.manifest <- m;
    t.journal_bytes <- t.journal_bytes + String.length record;
    t.journal_records <- t.journal_records + 1
  end

let checkpoint t =
  match write_checkpoint t t.manifest with
  | exception Store_io.Io_failure msg -> Error (Io_error msg)
  | () -> Ok ()

(* ---------- shard pools ---------- *)

let shard_meta t shard_id =
  List.find_opt (fun (s : Manifest.shard_meta) -> s.shard_id = shard_id) t.manifest.Manifest.shards

let live_pairs_of_shard t shard_id =
  List.filter_map
    (fun (o : Manifest.object_meta) -> if o.shard = shard_id then Some o.pair else None)
    t.manifest.Manifest.objects

(* The one shard reader: read and parse a shard file. Never raises but
   for [Store_io.Crashed] (a simulated crash must unwind): a missing
   file is [`Missing], and any I/O or parser exception is [`Failed]
   with its message. *)
let read_shard t (smeta : Manifest.shard_meta) =
  let path = Filename.concat t.dir smeta.file in
  if not (Store_io.exists t.io path) then Error `Missing
  else
    match Dna.Fasta.parse_string (Store_io.read_file t.io path) with
    | exception (Store_io.Crashed _ as e) -> raise e
    | exception Sys_error msg -> Error (`Failed msg)
    | exception e -> Error (`Failed (Printexc.to_string e))
    | parsed -> Ok parsed

(* Read a shard file and verify it against its manifest record: file
   present, parseable, at least the recorded strand count, and — when
   the manifest carries one — a matching CRC-32 over the canonical
   serialization of the recorded prefix. Orphan records beyond the
   prefix (an interrupted put) do not disturb the checksum. [`Ok]
   carries the computed prefix checksum (scrub backfills it into
   version-1 manifests) and the parsed records. *)
let check_shard t (smeta : Manifest.shard_meta) :
    [ `Ok of int * Dna.Fasta.record list | `Corrupt of string ] =
  match read_shard t smeta with
  | Error `Missing -> `Corrupt (Printf.sprintf "shard file %s is missing" smeta.file)
  | Error (`Failed msg) -> `Corrupt msg
  | Ok (records, errors) ->
      if errors <> [] then
        `Corrupt (Printf.sprintf "%d unparsable FASTA records" (List.length errors))
      else if List.length records < smeta.n_strands then
        `Corrupt
          (Printf.sprintf "shard %s holds %d strands, manifest records %d" smeta.file
             (List.length records) smeta.n_strands)
      else begin
        let prefix = List.filteri (fun i _ -> i < smeta.n_strands) records in
        let crc = Store_io.crc32 (Dna.Fasta.to_string prefix) in
        match smeta.checksum with
        | Some expect when expect <> crc ->
            `Corrupt
              (Printf.sprintf "shard %s checksum mismatch (recorded %d, computed %d)" smeta.file
                 expect crc)
        | _ -> `Ok (crc, records)
      end

(* Strands beyond the manifest count are orphans of an interrupted put;
   their pair is unreserved, so they are unselectable and [build] leaves
   them unindexed. *)
let pool_of_records t shard_id records =
  let strands = Array.of_list (List.map (fun r -> r.Dna.Fasta.seq) records) in
  { strands; index = Dnastore.Primer_index.build ~pairs:(live_pairs_of_shard t shard_id) strands }

let load_pool t shard_id : (pool, error) result =
  match Hashtbl.find_opt t.pools shard_id with
  | Some p -> Ok p
  | None -> (
      match shard_meta t shard_id with
      | None -> Error (Corrupt (Printf.sprintf "shard %d is not in the manifest" shard_id))
      | Some smeta ->
          if smeta.quarantined then
            Error
              (Corrupt_shard
                 { shard = shard_id; reason = "quarantined: scrub found unrepaired damage" })
          else (
            match check_shard t smeta with
            | `Corrupt reason -> Error (Corrupt_shard { shard = shard_id; reason })
            | `Ok (_, records) ->
                let p = pool_of_records t shard_id records in
                Hashtbl.replace t.pools shard_id p;
                Ok p))

(* Load whatever still parses from a (possibly damaged or quarantined)
   shard, skipping count and checksum verification: scrub and degraded
   reads work with the surviving molecules. Never cached in [t.pools],
   so verified readers cannot pick it up by accident. *)
let load_pool_lenient t shard_id : (pool, error) result =
  match shard_meta t shard_id with
  | None -> Error (Corrupt (Printf.sprintf "shard %d is not in the manifest" shard_id))
  | Some smeta -> (
      let corrupt reason = Error (Corrupt_shard { shard = shard_id; reason }) in
      match read_shard t smeta with
      | Error `Missing -> corrupt "shard file is missing"
      | Error (`Failed msg) -> corrupt msg
      | Ok (records, _errors) -> Ok (pool_of_records t shard_id records))

(* Write a shard pool atomically and return the CRC-32 of its canonical
   serialization — the checksum the manifest records for the file. The
   pool goes out one record at a time: every put rewrites its shard, and
   building the whole file as one string made it the largest allocation
   of a write. *)
let write_shard_file t ~file (strands : Dna.Strand.t array) =
  let crc = ref 0 in
  Store_io.write_file_atomic_with t.io ~dir:t.dir ~name:file (fun put ->
      Array.iteri
        (fun i s ->
          let record = Dna.Fasta.to_string [ { Dna.Fasta.id = Printf.sprintf "m_%d" i; seq = s } ] in
          crc := Store_io.crc32_update !crc record;
          put record)
        strands);
  !crc

(* ---------- put / overwrite ---------- *)

let object_strand_count (o : Manifest.object_meta) = Codec.Params.columns o.params * o.n_units

(* Append a freshly encoded object to the open shard (or a new one) and
   install the new manifest. [prev] is the overwritten version, if any:
   its molecules become dead and its pair retires. *)
let append_object t ~key ~(prev : Manifest.object_meta option) ?(params = Codec.Params.default)
    ?(layout = Codec.Layout.Baseline) (data : Bytes.t) : (unit, error) result =
  let m = t.manifest in
  (* The open shard is the youngest one, until it reaches the target. *)
  let open_shard =
    List.fold_left
      (fun acc (s : Manifest.shard_meta) ->
        if s.quarantined then acc (* never append to a damaged pool *)
        else
          match acc with
          | Some (a : Manifest.shard_meta) when a.shard_id >= s.shard_id -> acc
          | _ -> Some s)
      None m.Manifest.shards
  in
  let open_shard =
    match open_shard with
    | Some s when s.n_strands < m.Manifest.config.shard_target_strands -> Some s
    | _ -> None
  in
  let existing =
    match open_shard with
    | None -> Ok [||]
    | Some s -> Result.map (fun p -> p.strands) (load_pool t s.shard_id)
  in
  match existing with
  | Error e -> Error e
  | Ok existing -> (
      match Codec.Primer.Registry.fresh ~max_attempts:1000 t.registry t.rng with
      | Error (Codec.Primer.Constraints_unsatisfiable { attempts; _ }) ->
          Error (Primer_space_exhausted { attempts })
      | Ok pair -> (
          match Codec.File_codec.encode ~layout ~params data with
          | exception e ->
              (* Do not leak primer space when encoding rejects the input. *)
              Codec.Primer.Registry.release t.registry pair;
              raise e
          | encoded ->
              let tagged =
                Array.map (Codec.Primer.attach pair) encoded.Codec.File_codec.strands
              in
              let shard_id, file =
                match open_shard with
                | Some s -> (s.shard_id, s.file)
                | None -> (m.Manifest.next_shard_id, Manifest.shard_file m.Manifest.next_shard_id)
              in
              let strands = Array.append existing tagged in
              match
                (* Shard first, manifest second: a crash in between leaves
                   orphan molecules behind an old manifest, never a
                   manifest pointing at missing data. *)
                write_shard_file t ~file strands
              with
              | exception Store_io.Io_failure msg ->
                  (* The write never landed (or only its temp file did):
                     nothing was acked, so release the pair and report.
                     Any stale temp file is reclaimed on the next open. *)
                  Codec.Primer.Registry.release t.registry pair;
                  Error (Io_error msg)
              | shard_checksum ->
              let dead_here =
                (* Overwriting an object that lives in the open shard:
                   its dead molecules are in this shard's record. *)
                match prev with Some p when p.shard = shard_id -> object_strand_count p | _ -> 0
              in
              let smeta =
                {
                  Manifest.shard_id;
                  file;
                  n_strands = Array.length strands;
                  dead_strands =
                    dead_here + (match open_shard with Some s -> s.dead_strands | None -> 0);
                  checksum = Some shard_checksum;
                  quarantined = false;
                }
              in
              let prev_shard =
                match prev with
                | Some p when p.shard <> shard_id -> (
                    match shard_meta t p.shard with
                    | Some s ->
                        let dead = s.dead_strands + object_strand_count p in
                        [ { s with Manifest.dead_strands = dead } ]
                    | None -> [])
                | _ -> []
              in
              let meta =
                {
                  Manifest.key;
                  version = (match prev with Some p -> p.version + 1 | None -> 1);
                  shard = shard_id;
                  pair;
                  n_units = encoded.Codec.File_codec.n_units;
                  params;
                  layout;
                  original_size = Bytes.length data;
                  checksum = Some (Store_io.crc32 (Bytes.to_string data));
                  health = Manifest.Healthy;
                }
              in
              match
                commit t
                  {
                    Manifest.generation = m.Manifest.generation + 1;
                    next_shard_id = max m.Manifest.next_shard_id (shard_id + 1);
                    shards = smeta :: prev_shard;
                    upsert = Some meta;
                    remove = None;
                    retire = Option.map (fun (p : Manifest.object_meta) -> p.pair) prev;
                  }
              with
              | exception Store_io.Io_failure msg ->
                  (* The shard file landed but the manifest record did
                     not: the new molecules are unselectable orphans,
                     exactly as after a crash between the two writes.
                     Nothing was acked; drop the stale cached pool and
                     release the pair. *)
                  Codec.Primer.Registry.release t.registry pair;
                  Hashtbl.remove t.pools shard_id;
                  Error (Io_error msg)
              | () ->
              (* Keep the loaded pool in step with the file. *)
              let index =
                match Hashtbl.find_opt t.pools shard_id with
                | Some p when Array.length existing > 0 -> p.index
                | _ -> Dnastore.Primer_index.build ~pairs:(live_pairs_of_shard t shard_id) strands
              in
              if Array.length existing > 0 then
                Dnastore.Primer_index.add_range index pair ~first:(Array.length existing)
                  ~len:(Array.length tagged);
              Hashtbl.replace t.pools shard_id { strands; index };
              Lru.remove t.cache key;
              Ok ()))

let put ?params ?layout t ~key data =
  if mem t key then Error (Duplicate_key key)
  else append_object t ~key ~prev:None ?params ?layout data

let overwrite t ~key data =
  match find_object t key with
  | None -> Error (Key_not_found key)
  | Some prev ->
      append_object t ~key ~prev:(Some prev) ~params:prev.params ~layout:prev.layout data

(* ---------- delete ---------- *)

let delete t ~key : (unit, error) result =
  match find_object t key with
  | None -> Error (Key_not_found key)
  | Some o ->
      let m = t.manifest in
      let shards =
        match shard_meta t o.shard with
        | Some s -> [ { s with Manifest.dead_strands = s.dead_strands + object_strand_count o } ]
        | None -> []
      in
      match
        commit t
          {
            Manifest.generation = m.Manifest.generation + 1;
            next_shard_id = m.Manifest.next_shard_id;
            shards;
            upsert = None;
            remove = Some key;
            retire = Some o.pair;
          }
      with
      | exception Store_io.Io_failure msg -> Error (Io_error msg)
      | () ->
          (* The molecules stay in the shard and the pair stays reserved
             (retired) until compaction physically removes them. *)
          (match Hashtbl.find_opt t.pools o.shard with
          | Some p -> Dnastore.Primer_index.remove_pair p.index o.pair
          | None -> ());
          Lru.remove t.cache key;
          Ok ()

(* ---------- get / batched get ---------- *)

let sequencing_passes t = t.sequencing_passes
let object_shard t ~key = Option.map (fun (o : Manifest.object_meta) -> o.shard) (find_object t key)

(* The read stream of one object access: a 64-bit FNV-1a fold of the
   store seed, the key and the version. A key's sequencing and
   clustering draws therefore depend only on (store, key, version) —
   never on [t.rng], on which other keys missed in the same batch, or
   on how many batches ran before — so [get] and any [get_batch]
   containing the key replay the same wetlab noise, and gets leave the
   store's put/primer stream untouched. *)
let access_rng t (o : Manifest.object_meta) =
  let h = ref 0xCBF29CE484222325L in
  let fold i = h := Int64.mul (Int64.logxor !h (Int64.of_int (i land 0xFF))) 0x100000001B3L in
  let fold_int i = List.iter (fun s -> fold (i lsr s)) [ 0; 8; 16; 24; 32; 40; 48; 56 ] in
  fold_int t.manifest.Manifest.seed;
  fold_int o.version;
  String.iter (fun c -> fold (Char.code c)) o.key;
  Dna.Rng.create (Int64.to_int (Int64.shift_right_logical !h 1))

(* One object's access, after the serial PCR-selection phase: its
   selected molecules go through the shared random-access path on the
   object's own streams, at the store's channel and at [depth], the
   per-strand sequencing depth of the shard pass the access rode on.
   Clustering and consensus stay at one domain inside a task. Pure given
   the access rng, so the whole wetlab read path fans out over the
   domain pool. Returns the decode stats alongside the bytes so partial
   (degraded) readers can map recovered ranges, and the path's stage
   times for {!record_access}. *)
let run_access_task t (o : Manifest.object_meta) ~depth selected :
    (Bytes.t * Codec.File_codec.decode_stats, error) result * Dnastore.Pipeline.timings =
  let cfg = t.manifest.Manifest.config in
  let rng = access_rng t o in
  let seq_rng = Dna.Rng.split rng in
  let cluster_rng = Dna.Rng.split rng in
  let stages =
    {
      (Dnastore.Pipeline.default_stages ~error_rate:cfg.error_rate ~coverage:depth ()) with
      Dnastore.Pipeline.cluster = Dnastore.Pipeline.cluster_default ~domains:1 ();
    }
  in
  let result, timings =
    Dnastore.Pipeline.random_access ~domains:1 stages ~seq_rng ~cluster_rng ~pair:o.pair
      ~params:o.params ~layout:o.layout ~n_units:o.n_units selected
  in
  ( Result.map_error
      (fun e -> Decode_failed { key = o.key; reason = Codec.File_codec.error_message e })
      result,
    timings )

(* Fold one access's stage times into the store's totals. Serial: the
   parallel get path calls it after its tasks have joined. *)
let record_access t (tm : Dnastore.Pipeline.timings) =
  let a = t.access_s in
  t.cold_accesses <- t.cold_accesses + 1;
  t.access_s <-
    {
      a with
      Dnastore.Pipeline.simulate_s = a.simulate_s +. tm.simulate_s;
      demux_s = a.demux_s +. tm.demux_s;
      cluster_s = a.cluster_s +. tm.cluster_s;
      reconstruct_s = a.reconstruct_s +. tm.reconstruct_s;
      decode_s = a.decode_s +. tm.decode_s;
    }

let get_batch ?(domains = Dna.Par.default_domains ()) ?(use_cache = true) t (keys : string list)
    : (string * (Bytes.t, error) result) list =
  (* Resolve keys against a hashed view of the directory: cache hits
     answer immediately; misses are deduplicated (a key requested twice
     decodes once) and grouped by shard so each shard is PCR-selected
     and sequenced in one pass. *)
  let by_key : (string, Manifest.object_meta) Hashtbl.t =
    Hashtbl.create (List.length t.manifest.Manifest.objects)
  in
  List.iter
    (fun (o : Manifest.object_meta) -> Hashtbl.replace by_key o.key o)
    t.manifest.Manifest.objects;
  let resolved =
    List.map
      (fun key ->
        match Hashtbl.find_opt by_key key with
        | None -> (key, `Err (Key_not_found key))
        | Some (o : Manifest.object_meta) -> (
            (* Health gate: scrub-marked objects never enter the normal
               decode path (their shard may be quarantined); callers opt
               into partial bytes via [get_partial]. *)
            match o.health with
            | Manifest.Lost -> (key, `Err (Object_lost key))
            | Manifest.Degraded { recovered_fraction; _ } ->
                (key, `Err (Object_degraded { key; recovered_fraction }))
            | Manifest.Healthy -> (
                match if use_cache then Lru.find t.cache key else None with
                | Some bytes -> (key, `Hit bytes)
                | None -> (key, `Miss o))))
      keys
  in
  let miss_seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let misses =
    List.filter_map
      (function
        | key, `Miss (o : Manifest.object_meta) when not (Hashtbl.mem miss_seen key) ->
            Hashtbl.add miss_seen key ();
            Some o
        | _ -> None)
      resolved
  in
  (* Group misses by shard, first appearance first. *)
  let shard_groups : (int, Manifest.object_meta list ref) Hashtbl.t = Hashtbl.create 8 in
  let shard_order = ref [] in
  List.iter
    (fun (o : Manifest.object_meta) ->
      match Hashtbl.find_opt shard_groups o.shard with
      | Some group -> group := o :: !group
      | None ->
          Hashtbl.add shard_groups o.shard (ref [ o ]);
          shard_order := o.shard :: !shard_order)
    misses;
  (* Serial phase: per shard, load the pool and run one indexed PCR
     selection covering every coalesced object. The pass's read budget
     spreads over the whole selection ({!Simulator.Sequencer.shard_depth}),
     so coalesced objects sequence shallower — and cheaper — than the
     same keys fetched one by one. Everything downstream of selection
     runs inside the parallel tasks. *)
  let pool_errors : (string, error) Hashtbl.t = Hashtbl.create 4 in
  let tasks = ref [] in
  let cfg = t.manifest.Manifest.config in
  List.iter
    (fun shard_id ->
      let objs = List.rev !(Hashtbl.find shard_groups shard_id) in
      match load_pool t shard_id with
      | Error e ->
          List.iter
            (fun (o : Manifest.object_meta) -> Hashtbl.replace pool_errors o.key e)
            objs
      | Ok pool ->
          t.sequencing_passes <- t.sequencing_passes + 1;
          let selected =
            List.map
              (fun (o : Manifest.object_meta) ->
                Dnastore.Primer_index.select pool.index pool.strands o.pair)
              objs
          in
          let n_union = List.fold_left (fun a s -> a + Array.length s) 0 selected in
          let depth =
            Simulator.Sequencer.shard_depth ~base:cfg.coverage ~n_selected:n_union
              ~n_shard:(Array.length pool.strands)
          in
          List.iter2 (fun o sel -> tasks := (o, depth, sel) :: !tasks) objs selected)
    (List.rev !shard_order);
  let tasks = Array.of_list (List.rev !tasks) in
  let outcome_arr =
    Dna.Par.map_array ~label:"store.get_batch" ~domains
      (fun ((o : Manifest.object_meta), depth, selected) ->
        let r, timings = run_access_task t o ~depth selected in
        (o.key, Result.map fst r, timings))
      tasks
  in
  let outcomes : (string, (Bytes.t, error) result) Hashtbl.t =
    Hashtbl.create (Array.length outcome_arr)
  in
  Array.iter
    (fun (key, r, timings) ->
      record_access t timings;
      Hashtbl.replace outcomes key r;
      match r with Ok bytes when use_cache -> Lru.add t.cache key bytes | _ -> ())
    outcome_arr;
  List.map
    (fun (key, r) ->
      match r with
      | `Err e -> (key, Error e)
      | `Hit bytes -> (key, Ok bytes)
      | `Miss _ -> (
          match Hashtbl.find_opt pool_errors key with
          | Some e -> (key, Error e)
          | None -> (
              match Hashtbl.find_opt outcomes key with
              | Some outcome -> (key, outcome)
              | None -> (key, Error (Corrupt ("no outcome for key " ^ key))))))
    resolved

let get ?(use_cache = true) t ~key : (Bytes.t, error) result =
  match get_batch ~domains:1 ~use_cache t [ key ] with
  | [ (_, r) ] -> r
  | _ -> Error (Corrupt "single-key batch returned a different shape")

type health = Manifest.health =
  | Healthy
  | Degraded of { recovered_fraction : float; ranges : (int * int) list }
  | Lost

let health_name = Manifest.health_name
let shards_dir = Manifest.shards_dir

let object_health t ~key =
  Option.map (fun (o : Manifest.object_meta) -> o.health) (find_object t key)

(* ---------- degraded reads ---------- *)

type partial_read = {
  bytes : Bytes.t;
  recovered_fraction : float;
  recovered_ranges : (int * int) list;
  exact : bool;
}

(* Best-effort read against whatever molecules survive in the object's
   (possibly damaged) shard: lenient pool load, then the ordinary wetlab
   path, mapping the decode stats onto recovered byte ranges. *)
let partial_attempt t (o : Manifest.object_meta) : (partial_read, error) result =
  match load_pool_lenient t o.shard with
  | Error e -> Error e
  | Ok pool -> (
      let selected = Dnastore.Primer_index.select pool.index pool.strands o.pair in
      if Array.length selected = 0 then Error (Object_lost o.key)
      else begin
        t.sequencing_passes <- t.sequencing_passes + 1;
        let cfg = t.manifest.Manifest.config in
        let depth =
          Simulator.Sequencer.shard_depth ~base:cfg.coverage ~n_selected:(Array.length selected)
            ~n_shard:(Array.length pool.strands)
        in
        let r, timings = run_access_task t o ~depth selected in
        record_access t timings;
        match r with
        | Error e -> Error e
        | Ok (bytes, stats) ->
            let p = Codec.File_codec.partial ~params:o.params ~file_len:(Bytes.length bytes) stats in
            let exact =
              Codec.File_codec.fully_recovered stats
              && (match o.checksum with
                 | Some c -> Store_io.crc32 (Bytes.to_string bytes) = c
                 | None -> true)
            in
            Ok
              {
                bytes;
                recovered_fraction = p.Codec.File_codec.recovered_fraction;
                recovered_ranges = p.Codec.File_codec.recovered_ranges;
                exact;
              }
      end)

let get_partial ?(use_cache = true) t ~key : (partial_read, error) result =
  match find_object t key with
  | None -> Error (Key_not_found key)
  | Some o -> (
      match o.Manifest.health with
      | Manifest.Lost -> Error (Object_lost key)
      | Manifest.Degraded _ -> partial_attempt t o
      | Manifest.Healthy -> (
          match get ~use_cache t ~key with
          | Ok bytes ->
              let n = Bytes.length bytes in
              Ok
                {
                  bytes;
                  recovered_fraction = 1.0;
                  recovered_ranges = (if n = 0 then [] else [ (0, n) ]);
                  exact = true;
                }
          | Error (Corrupt_shard _) ->
              (* Damage scrub has not classified yet: fall back to the
                 surviving molecules rather than failing the read. *)
              partial_attempt t o
          | Error e -> Error e))

(* ---------- compaction ---------- *)

type compact_stats = {
  objects_rewritten : int;
  objects_dropped : int;  (** Lost objects removed from the directory *)
  strands_before : int;
  strands_after : int;
  shards_before : int;
  shards_after : int;
  primer_pairs_reclaimed : int;
  unlink_failures : int;  (** old shard files left behind by a failed unlink *)
}

(* Re-encode decoded objects into fresh, densely packed shards under
   their existing primer pairs, in input order. Writes the shard files
   (checksummed); returns their metas, the refreshed object metas and
   the next unused shard id. Shared by compaction and scrub repair. *)
let pack_objects t ~next_id ~target (items : (Manifest.object_meta * Bytes.t) list) =
  let next = ref next_id in
  let shards = ref [] and objects = ref [] and current = ref [] and current_n = ref 0 in
  let flush () =
    if !current <> [] then begin
      let strands = Array.concat (List.rev !current) in
      let file = Manifest.shard_file !next in
      let checksum = write_shard_file t ~file strands in
      shards :=
        {
          Manifest.shard_id = !next;
          file;
          n_strands = Array.length strands;
          dead_strands = 0;
          checksum = Some checksum;
          quarantined = false;
        }
        :: !shards;
      incr next;
      current := [];
      current_n := 0
    end
  in
  List.iter
    (fun ((o : Manifest.object_meta), bytes) ->
      let encoded = Codec.File_codec.encode ~layout:o.layout ~params:o.params bytes in
      let tagged = Array.map (Codec.Primer.attach o.pair) encoded.Codec.File_codec.strands in
      if !current_n > 0 && !current_n >= target then flush ();
      objects :=
        {
          o with
          Manifest.shard = !next;
          n_units = encoded.Codec.File_codec.n_units;
          checksum = Some (Store_io.crc32 (Bytes.to_string bytes));
          health = Manifest.Healthy;
        }
        :: !objects;
      current := tagged :: !current;
      current_n := !current_n + Array.length tagged)
    items;
  flush ();
  (List.rev !shards, List.rev !objects, !next)

let compact t : (compact_stats, error) result =
  let m = t.manifest in
  (* Healthy objects are rewritten; Degraded ones keep their quarantined
     shard (the surviving molecules are all they have); Lost ones are
     dropped and their pairs reclaimed. *)
  let healthy, unhealthy =
    List.partition
      (fun (o : Manifest.object_meta) -> o.health = Manifest.Healthy)
      m.Manifest.objects
  in
  let degraded =
    List.filter
      (fun (o : Manifest.object_meta) ->
        match o.health with Manifest.Degraded _ -> true | _ -> false)
      unhealthy
  in
  let lost =
    List.filter (fun (o : Manifest.object_meta) -> o.health = Manifest.Lost) unhealthy
  in
  (* All-or-nothing: every healthy object must decode before anything on
     disk changes, so a failed compaction never loses data. *)
  let decoded =
    List.map (fun (o : Manifest.object_meta) -> (o, get ~use_cache:true t ~key:o.key)) healthy
  in
  match List.find_opt (fun (_, r) -> Result.is_error r) decoded with
  | Some (_, Error e) -> Error e
  | Some (_, Ok _) -> assert false
  | None -> (
      try
        let strands_before =
          List.fold_left (fun a (s : Manifest.shard_meta) -> a + s.n_strands) 0 m.Manifest.shards
        in
        let items =
          List.map
            (fun (o, r) -> (o, match r with Ok b -> b | Error _ -> assert false))
            decoded
        in
        let new_shards, new_objects, next_id =
          pack_objects t ~next_id:m.Manifest.next_shard_id
            ~target:m.Manifest.config.shard_target_strands items
        in
        (* Shards still referenced by degraded objects survive as-is. *)
        let keep = Hashtbl.create 4 in
        List.iter (fun (o : Manifest.object_meta) -> Hashtbl.replace keep o.shard ()) degraded;
        let kept_shards =
          List.filter (fun (s : Manifest.shard_meta) -> Hashtbl.mem keep s.shard_id) m.Manifest.shards
        in
        let old_files =
          List.filter_map
            (fun (s : Manifest.shard_meta) ->
              if Hashtbl.mem keep s.shard_id then None
              else Some (Filename.concat t.dir s.file))
            m.Manifest.shards
        in
        (* Rebuild the directory in the original insertion order. *)
        let fresh = Hashtbl.create 8 in
        List.iter (fun (o : Manifest.object_meta) -> Hashtbl.replace fresh o.key o) new_objects;
        let objects =
          List.filter_map
            (fun (o : Manifest.object_meta) ->
              match o.health with
              | Manifest.Lost -> None
              | Manifest.Degraded _ -> Some o
              | Manifest.Healthy -> Hashtbl.find_opt fresh o.key)
            m.Manifest.objects
        in
        let reclaimed =
          m.Manifest.retired @ List.map (fun (o : Manifest.object_meta) -> o.pair) lost
        in
        save_manifest t
          {
            m with
            Manifest.shards = new_shards @ kept_shards;
            objects;
            retired = [];
            next_shard_id = next_id;
          };
        (* Only after the manifest points at the new shards: reclaim the
           retired primer pairs and drop the old shard files. A crash
           before the removals merely leaves unreferenced files behind
           (reclaimed on the next open); a failed unlink is counted and
           surfaced, not swallowed. *)
        List.iter (fun pair -> Codec.Primer.Registry.release t.registry pair) reclaimed;
        let unlink_failures = ref 0 in
        List.iter
          (fun path ->
            try Store_io.remove t.io path with Sys_error _ -> incr unlink_failures)
          old_files;
        Hashtbl.reset t.pools;
        List.iter (fun (o : Manifest.object_meta) -> Lru.remove t.cache o.key) lost;
        let strands_after =
          List.fold_left
            (fun a (s : Manifest.shard_meta) -> a + s.n_strands)
            0 t.manifest.Manifest.shards
        in
        Ok
          {
            objects_rewritten = List.length healthy;
            objects_dropped = List.length lost;
            strands_before;
            strands_after;
            shards_before = List.length m.Manifest.shards;
            shards_after = List.length t.manifest.Manifest.shards;
            primer_pairs_reclaimed = List.length reclaimed;
            unlink_failures = !unlink_failures;
          }
      with Store_io.Io_failure msg ->
        (* New shard files written so far are unreferenced (the manifest
           never moved) and reclaimed on the next open. *)
        Hashtbl.reset t.pools;
        Error (Io_error msg))

(* ---------- scrub & self-repair ---------- *)

type scrub_report = {
  shards_checked : int;
  shards_corrupt : int;  (** failed verification on this pass *)
  shards_quarantined : int;  (** left damaged in place, still referenced *)
  shards_dropped : int;  (** damaged and no longer referenced: unlinked *)
  objects_checked : int;
  objects_repaired : int;  (** re-synthesized bit-identically into fresh shards *)
  objects_degraded : int;
  objects_lost : int;
  checksums_backfilled : int;  (** version-1 shards that gained a checksum *)
}

let scrub t : (scrub_report, error) result =
  let m = t.manifest in
  (* Verify from disk, not from cached pools. *)
  Hashtbl.reset t.pools;
  try
    let backfilled = ref 0 in
    let corrupt : (int, string) Hashtbl.t = Hashtbl.create 4 in
    let fresh_checksum : (int, int) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun (s : Manifest.shard_meta) ->
        match check_shard t s with
        | `Corrupt reason -> Hashtbl.replace corrupt s.shard_id reason
        | `Ok (crc, _) ->
            if s.checksum = None then incr backfilled;
            Hashtbl.replace fresh_checksum s.shard_id crc)
      m.Manifest.shards;
    (* Objects on a damaged shard — plus any the last scrub already
       marked — get the degraded read's salvage attempt ([partial_attempt])
       from whatever molecules survive, and are classified by its result.
       Access streams hash from (seed, key, version), so the attempt
       replays deterministically. *)
    let needs_attention (o : Manifest.object_meta) =
      Hashtbl.mem corrupt o.shard || o.health <> Manifest.Healthy
    in
    let evaluate (o : Manifest.object_meta) =
      match partial_attempt t o with
      | Ok p when p.exact -> `Repair p.bytes
      | Ok p when p.recovered_fraction > 0.0 ->
          `Degraded (p.recovered_fraction, p.recovered_ranges)
      | Ok _ | Error _ -> `Lost
    in
    let outcomes =
      List.map
        (fun (o : Manifest.object_meta) ->
          if needs_attention o then (o, evaluate o) else (o, `Keep))
        m.Manifest.objects
    in
    let repairs =
      List.filter_map (function o, `Repair b -> Some (o, b) | _ -> None) outcomes
    in
    let new_shards, repaired_objs, next_id =
      pack_objects t ~next_id:m.Manifest.next_shard_id
        ~target:m.Manifest.config.shard_target_strands repairs
    in
    let repaired_by_key = Hashtbl.create 8 in
    List.iter
      (fun (o : Manifest.object_meta) -> Hashtbl.replace repaired_by_key o.key o)
      repaired_objs;
    let objects =
      List.map
        (fun ((o : Manifest.object_meta), verdict) ->
          match verdict with
          | `Keep -> o
          | `Repair _ -> Hashtbl.find repaired_by_key o.key
          | `Degraded (recovered_fraction, ranges) ->
              { o with Manifest.health = Manifest.Degraded { recovered_fraction; ranges } }
          | `Lost -> { o with Manifest.health = Manifest.Lost })
        outcomes
    in
    (* A damaged shard survives — quarantined — only while degraded or
       lost objects still point into it; once everything it held has
       been repaired elsewhere, drop it. *)
    let still_referenced = Hashtbl.create 8 in
    List.iter (fun (o : Manifest.object_meta) -> Hashtbl.replace still_referenced o.shard ()) objects;
    let kept, dropped =
      List.partition
        (fun (s : Manifest.shard_meta) ->
          (not (Hashtbl.mem corrupt s.shard_id)) || Hashtbl.mem still_referenced s.shard_id)
        m.Manifest.shards
    in
    let kept =
      List.map
        (fun (s : Manifest.shard_meta) ->
          if Hashtbl.mem corrupt s.shard_id then { s with Manifest.quarantined = true }
          else
            match (s.checksum, Hashtbl.find_opt fresh_checksum s.shard_id) with
            | None, Some crc -> { s with Manifest.checksum = Some crc }
            | _ -> s)
        kept
    in
    save_manifest t
      { m with Manifest.shards = kept @ new_shards; objects; next_shard_id = next_id };
    List.iter
      (fun (s : Manifest.shard_meta) ->
        try Store_io.remove t.io (Filename.concat t.dir s.file) with Sys_error _ -> ())
      dropped;
    List.iter
      (fun ((o : Manifest.object_meta), verdict) ->
        match verdict with
        | `Repair bytes -> Lru.add t.cache o.key bytes
        | `Degraded _ | `Lost -> Lru.remove t.cache o.key
        | `Keep -> ())
      outcomes;
    Hashtbl.reset t.pools;
    let count f l = List.length (List.filter f l) in
    Ok
      {
        shards_checked = List.length m.Manifest.shards;
        shards_corrupt = Hashtbl.length corrupt;
        shards_quarantined = count (fun (s : Manifest.shard_meta) -> s.quarantined) kept;
        shards_dropped = List.length dropped;
        objects_checked = List.length m.Manifest.objects;
        objects_repaired = List.length repairs;
        objects_degraded = count (function _, `Degraded _ -> true | _ -> false) outcomes;
        objects_lost = count (function _, `Lost -> true | _ -> false) outcomes;
        checksums_backfilled = !backfilled;
      }
  with Store_io.Io_failure msg ->
    Hashtbl.reset t.pools;
    Error (Io_error msg)

(* ---------- stats ---------- *)

type stats = {
  n_objects : int;
  n_shards : int;
  n_strands : int;
  dead_strands : int;
  live_primer_pairs : int;
  retired_primer_pairs : int;
  cache_hits : int;
  cache_misses : int;
  generation : int;
  degraded_objects : int;
  lost_objects : int;
  quarantined_shards : int;
  orphans_reclaimed : int;
  cold_accesses : int;
  access_s : Dnastore.Pipeline.timings;
  checkpoint_bytes : int;
  journal_records : int;
  journal_bytes : int;
}

let stats t =
  let m = t.manifest in
  {
    n_objects = List.length m.Manifest.objects;
    n_shards = List.length m.Manifest.shards;
    n_strands =
      List.fold_left (fun a (s : Manifest.shard_meta) -> a + s.n_strands) 0 m.Manifest.shards;
    dead_strands =
      List.fold_left (fun a (s : Manifest.shard_meta) -> a + s.dead_strands) 0 m.Manifest.shards;
    live_primer_pairs = List.length m.Manifest.objects;
    retired_primer_pairs = List.length m.Manifest.retired;
    cache_hits = Lru.hits t.cache;
    cache_misses = Lru.misses t.cache;
    generation = m.Manifest.generation;
    degraded_objects =
      List.length
        (List.filter
           (fun (o : Manifest.object_meta) ->
             match o.health with Manifest.Degraded _ -> true | _ -> false)
           m.Manifest.objects);
    lost_objects =
      List.length
        (List.filter
           (fun (o : Manifest.object_meta) -> o.health = Manifest.Lost)
           m.Manifest.objects);
    quarantined_shards =
      List.length
        (List.filter (fun (s : Manifest.shard_meta) -> s.quarantined) m.Manifest.shards);
    orphans_reclaimed = t.orphans_reclaimed;
    cold_accesses = t.cold_accesses;
    access_s = t.access_s;
    checkpoint_bytes = t.checkpoint_bytes;
    journal_records = t.journal_records;
    journal_bytes = t.journal_bytes;
  }

let render_stats t =
  let s = stats t in
  let m = t.manifest in
  Dnastore.Report.table
    ([ "shard"; "file"; "strands"; "dead"; "state" ]
    :: List.map
         (fun (sh : Manifest.shard_meta) ->
           [
             string_of_int sh.shard_id;
             sh.file;
             string_of_int sh.n_strands;
             string_of_int sh.dead_strands;
             (if sh.quarantined then "quarantined"
              else match sh.checksum with Some _ -> "ok" | None -> "unchecked");
           ])
         m.Manifest.shards)
  ^ Printf.sprintf "objects: %d  shards: %d  strands: %d (%d dead)  generation: %d\n" s.n_objects
      s.n_shards s.n_strands s.dead_strands s.generation
  ^ Printf.sprintf "primer pairs: %d live, %d retired (await compaction)\n" s.live_primer_pairs
      s.retired_primer_pairs
  ^ Printf.sprintf "manifest: checkpoint %d B, journal %d records (%d B)\n" s.checkpoint_bytes
      s.journal_records s.journal_bytes
  ^ (if s.degraded_objects + s.lost_objects + s.quarantined_shards + s.orphans_reclaimed = 0 then ""
     else
       Printf.sprintf
         "health: %d degraded, %d lost objects; %d quarantined shards; %d orphans reclaimed\n"
         s.degraded_objects s.lost_objects s.quarantined_shards s.orphans_reclaimed)
  ^ (if s.cold_accesses = 0 then ""
     else
       let a = s.access_s in
       Printf.sprintf
         "cold accesses: %d (sequence %.3fs, demux %.3fs, cluster %.3fs, reconstruct %.3fs, \
          decode %.3fs)\n"
         s.cold_accesses a.simulate_s a.demux_s a.cluster_s a.reconstruct_s a.decode_s)
  ^ Dnastore.Report.cache_counters ~label:"store" ~hits:s.cache_hits ~misses:s.cache_misses
