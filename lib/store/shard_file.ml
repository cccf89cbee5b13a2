(* One shard's oligo pool on disk: its name, its reader and its two
   writers. The interface states the format's invariants. *)

let subdir = "shards"
let file id = Filename.concat subdir (Printf.sprintf "shard_%05d.fasta" id)
let is_file name = String.starts_with ~prefix:"shard_" name && Filename.check_suffix name ".fasta"

type extent = { bytes : int; crc : int; debris : bool }

let start io ~dir ~file =
  { bytes = 0; crc = 0; debris = Store_io.exists io (Filename.concat dir file) }

(* Where the [n]-th record (0-based) of FASTA text [s] starts, or the
   end of [s] when it holds fewer: the end of the recorded prefix of a
   shard whose manifest records [n] strands. A header is a line whose
   first non-blank character is ['>'], as the parser reads it. *)
let prefix_end s n =
  let len = String.length s in
  let rec first_visible i =
    if i < len && (match s.[i] with ' ' | '\t' | '\r' | '\012' -> true | _ -> false) then
      first_visible (i + 1)
    else i
  in
  let rec scan pos seen =
    if pos >= len then len
    else begin
      let i = first_visible pos in
      let header = i < len && s.[i] = '>' in
      if header && seen = n then pos
      else
        let seen = if header then seen + 1 else seen in
        match String.index_from_opt s pos '\n' with None -> len | Some nl -> scan (nl + 1) seen
    end
  in
  scan 0 0

(* Read a shard file and parse its recorded prefix. Bytes past it are
   debris (a torn one still parses, as any prefix of a record does), so
   nothing looks at them. A simulated crash must unwind; any other I/O
   or parser exception is an [Error]. [Ok] carries the records, their
   parse errors, the prefix's byte length and whether the file holds
   more. *)
let parse io ~dir (s : Manifest.shard_meta) =
  let path = Filename.concat dir s.file in
  if not (Store_io.exists io path) then Error (Printf.sprintf "shard file %s is missing" s.file)
  else
    match Store_io.read_file io path with
    | exception (Store_io.Crashed _ as e) -> raise e
    | exception Sys_error msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
    | content -> (
        let stop = prefix_end content s.n_strands in
        let prefix = if stop = String.length content then content else String.sub content 0 stop in
        match Dna.Fasta.parse_string prefix with
        | exception e -> Error (Printexc.to_string e)
        | records, errors -> Ok (records, errors, stop, stop < String.length content))

let molecules records = Array.of_list (List.map (fun r -> r.Dna.Fasta.seq) records)
let read io ~dir s = Result.map (fun (records, _, _, _) -> molecules records) (parse io ~dir s)

let check io ~dir (s : Manifest.shard_meta) =
  match parse io ~dir s with
  | Error _ as e -> e
  | Ok (_, errors, _, _) when errors <> [] ->
      Error (Printf.sprintf "%d unparsable FASTA records" (List.length errors))
  | Ok (records, _, _, _) when List.length records < s.n_strands ->
      Error
        (Printf.sprintf "shard %s holds %d strands, manifest records %d" s.file
           (List.length records) s.n_strands)
  | Ok (records, _, bytes, debris) -> (
      let crc = Store_io.crc32 (Dna.Fasta.to_string records) in
      match s.checksum with
      | Some expect when expect <> crc ->
          Error
            (Printf.sprintf "shard %s checksum mismatch (recorded %d, computed %d)" s.file expect
               crc)
      | _ -> Ok ({ bytes; crc; debris }, molecules records))

(* Pass the canonical records of [strands], numbered from [first], to
   [put] one at a time, never building them as one string; returns their
   byte length and [crc] folded over them. *)
let emit ~first ~crc strands put =
  let bytes = ref 0 and crc = ref crc in
  Array.iteri
    (fun i s ->
      let id = Printf.sprintf "m_%d" (first + i) in
      let record = Dna.Fasta.to_string [ { Dna.Fasta.id; seq = s } ] in
      bytes := !bytes + String.length record;
      crc := Store_io.crc32_update !crc record;
      put record)
    strands;
  (!bytes, !crc)

let write io ~dir ~file strands =
  let crc = ref 0 in
  Store_io.write_file_atomic_with io ~dir ~name:file (fun put ->
      crc := snd (emit ~first:0 ~crc:0 strands put));
  !crc

let append io ~dir ~file (e : extent) ~first strands =
  if e.debris then Store_io.truncate io ~dir ~name:file e.bytes;
  let appended = ref (0, e.crc) in
  Store_io.append_with io ~dir ~name:file (fun put ->
      appended := emit ~first ~crc:e.crc strands put);
  let bytes, crc = !appended in
  { bytes = e.bytes + bytes; crc; debris = false }
