(* The store's filesystem boundary. [real] passes through to the OS;
   [faulty] wraps the same operations in a deterministic seeded fault
   layer (torn writes and appends, failed renames, ENOSPC, read
   bit-rot, and a simulated kill at any fault point) so the
   crash-consistency harness can sweep a crash across every distinct
   on-disk state. *)

exception Crashed of { point : string; index : int }
exception Io_failure of string

type plan = {
  seed : int;
  crash_at : int option;
  fail_rename_at : int option;
  enospc_at : int option;
  bit_rot : float;
}

let no_faults ~seed = { seed; crash_at = None; fail_rename_at = None; enospc_at = None; bit_rot = 0.0 }

type state = {
  plan : plan;
  mutable points : int;  (** fault points traversed *)
  mutable renames : int;  (** renames attempted (for [fail_rename_at]) *)
  mutable data_writes : int;  (** data writes attempted (for [enospc_at]) *)
}

type t = Real | Faulty of state

let real = Real
let faulty plan = Faulty { plan; points = 0; renames = 0; data_writes = 0 }
let points_hit = function Real -> 0 | Faulty s -> s.points

(* ---------- CRC-32 (IEEE 802.3) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc s =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_update 0 s

(* ---------- fault machinery ---------- *)

(* Advance the global fault-point counter; a crash lands exactly here.
   Returns the point's 1-based index so write faults can derive a
   deterministic torn-prefix length from it. *)
let point s name =
  s.points <- s.points + 1;
  (match s.plan.crash_at with
  | Some k when k = s.points -> raise (Crashed { point = name; index = s.points })
  | _ -> ());
  s.points

(* A crash or ENOSPC inside a data write leaves a seeded prefix of the
   content behind — a torn write. *)
let torn_prefix plan ~index content =
  let rng = Dna.Rng.create (plan.seed + (7919 * index)) in
  let n = String.length content in
  String.sub content 0 (Dna.Rng.int rng (max 1 n))

(* [mode] is [Open_trunc] to replace the file, [Open_append] to extend
   it; [emit] passes the content to its argument piece by piece. *)
let output_raw mode path emit =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary; mode ] 0o666 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      emit (output_string oc);
      flush oc)

let write_raw path content = output_raw Open_trunc path (fun put -> put content)
let append_raw path content = output_raw Open_append path (fun put -> put content)

let rot_bases = [| 'A'; 'C'; 'G'; 'T' |]

let apply_bit_rot plan path content =
  if plan.bit_rot <= 0.0 || not (Filename.check_suffix path ".fasta") then content
  else begin
    let rng = Dna.Rng.create (plan.seed lxor crc32 path) in
    String.map
      (fun c ->
        if Dna.Rng.float rng < plan.bit_rot then rot_bases.(Dna.Rng.int rng 4) else c)
      content
  end

(* ---------- operations ---------- *)

let read_file_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_file t path =
  match t with
  | Real -> read_file_raw path
  | Faulty s -> apply_bit_rot s.plan path (read_file_raw path)

(* A faulty backend's data write is its own fault point: a crash or
   ENOSPC that lands there leaves a seeded prefix of [content] behind
   ([write] truncates or appends it), then raises. *)
let data_write s ~point_name ~write path content =
  try
    let index = point s point_name in
    s.data_writes <- s.data_writes + 1;
    (match s.plan.enospc_at with
    | Some k when k = s.data_writes ->
        write path (torn_prefix s.plan ~index content);
        raise (Io_failure (Printf.sprintf "no space writing %s" path))
    | _ -> ());
    write path content
  with Crashed { point = p; index } ->
    write path (torn_prefix s.plan ~index content);
    raise (Crashed { point = p; index })

let write_file_atomic_with t ~dir ~name emit =
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let dst = Filename.concat dir name in
  match t with
  | Real ->
      (* Streamed, so a large file is never built as one string. *)
      output_raw Open_trunc tmp emit;
      Sys.rename tmp dst
  | Faulty s ->
      (* Torn prefixes need the whole content. *)
      let b = Buffer.create 4096 in
      emit (Buffer.add_string b);
      let content = Buffer.contents b in
      let _ = point s ("write.tmp:" ^ name) in
      (* A torn write lands in the temp file, never the destination. *)
      data_write s ~point_name:("write.data:" ^ name) ~write:write_raw tmp content;
      let _ = point s ("write.rename:" ^ name) in
      s.renames <- s.renames + 1;
      (match s.plan.fail_rename_at with
      | Some k when k = s.renames ->
          raise (Io_failure (Printf.sprintf "rename of %s failed" tmp))
      | _ -> ());
      Sys.rename tmp dst;
      ignore (point s ("write.done:" ^ name))

let write_file_atomic t ~dir ~name content =
  write_file_atomic_with t ~dir ~name (fun put -> put content)

let append t ~dir ~name content =
  let path = Filename.concat dir name in
  match t with
  | Real -> append_raw path content
  | Faulty s ->
      let _ = point s ("append:" ^ name) in
      (* A torn append leaves a prefix of the record at the file's tail. *)
      data_write s ~point_name:("append.data:" ^ name) ~write:append_raw path content;
      ignore (point s ("append.done:" ^ name))

let truncate_raw path len =
  if Sys.file_exists path then
    try Unix.truncate path len
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let truncate t ~dir ~name len =
  let path = Filename.concat dir name in
  (match t with Real -> () | Faulty s -> ignore (point s ("truncate:" ^ name)));
  truncate_raw path len

let remove t path =
  match t with
  | Real -> Sys.remove path
  | Faulty s ->
      ignore (point s ("remove:" ^ path));
      Sys.remove path

let exists _ path = Sys.file_exists path

let mkdir_p _ path =
  let rec make p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      make (Filename.dirname p);
      (try Sys.mkdir p 0o755 with Sys_error _ when Sys.file_exists p -> ())
    end
  in
  make path

let list_dir _ path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort compare entries;
    entries
  end
  else [||]
