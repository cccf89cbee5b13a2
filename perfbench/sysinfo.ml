(* What the benchmark reads about its own process and host: peak RSS
   and I/O counters from /proc/self, the CPU count, the commit. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let lines path = match read_file path with None -> [] | Some s -> String.split_on_char '\n' s

(* ["Key:  123 kB"] lines of a /proc file, as key -> first integer. *)
let proc_field path key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key -> (
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          match String.split_on_char ' ' rest with
          | v :: _ -> int_of_string_opt v
          | [] -> None)
      | _ -> None)
    (lines path)

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> 0.0

type io = { wchar : int; syscw : int }

let io () =
  let get k = Option.value ~default:0 (proc_field "/proc/self/io" k) in
  { wchar = get "wchar"; syscw = get "syscw" }

(* CPUs this process may run on (what nproc prints), from the affinity
   list in /proc/self/status, e.g. "0-1,4". *)
let nproc () =
  let count_ranges s =
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a ] when int_of_string_opt a <> None -> acc + 1
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> acc + (b - a + 1)
            | _ -> acc)
        | _ -> acc)
      0 (String.split_on_char ',' s)
  in
  let from_status =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; v ] -> Some (count_ranges v)
        | _ -> None)
      (lines "/proc/self/status")
  in
  match from_status with Some n when n > 0 -> n | _ -> Domain.recommended_domain_count ()

(* The checked-out commit, read from .git without running git; "unknown"
   outside a git checkout. *)
let commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some h -> trim h
          | None ->
              Option.value ~default:"unknown"
                (List.find_map
                   (fun line ->
                     match String.split_on_char ' ' line with
                     | [ h; name ] when name = r -> Some h
                     | _ -> None)
                   (lines ".git/packed-refs")))
      | _ -> head)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Bytes in regular files under [path], recursively. *)
let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | Unix.S_REG -> file_size path
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end
