(* Sweep a simulated kill across every fault point of a scripted store
   workload and assert that reopening recovers a consistent prefix:
   acked writes intact, acked deletes still deleted, the in-flight
   operation atomic, the manifest generation where the acked writes
   left it, no .tmp or orphan shard debris, and, after one more put, no
   bytes past any shard's recorded prefix. *)

type failure = { crash_at : int; point : string; detail : string }

type outcome = {
  total_points : int;
  runs : int;
  failures : failure list;
  visited : (string * string) list;
}

(* What the workload had committed (acked) when the kill landed, plus
   the one operation in flight. Only acked operations update the model,
   so the model IS the durability contract. *)
type inflight =
  | Idle
  | Initializing
  | Putting of string * Bytes.t
  | Overwriting of string * Bytes.t * Bytes.t  (* key, old, new *)
  | Deleting of string * Bytes.t
  | Compacting

type model = {
  mutable init_acked : bool;
  mutable present : (string * Bytes.t) list;  (* key -> acked bytes *)
  mutable deleted : string list;
  mutable generation : int;  (* the store's generation after the last acked operation *)
  mutable inflight : inflight;
}

let fresh_model () =
  { init_acked = false; present = []; deleted = []; generation = 0; inflight = Idle }

let inflight_label = function
  | Idle -> "idle"
  | Initializing -> "init"
  | Putting (k, _) -> "put " ^ k
  | Overwriting (k, _, _) -> "overwrite " ^ k
  | Deleting (k, _) -> "delete " ^ k
  | Compacting -> "compact"

let default_params =
  { Codec.Params.payload_nt = 60; rs_data = 6; rs_parity = 3; scramble_seed = 0x5eed }

let default_config =
  { Store.shard_target_strands = 20; cache_objects = 4; error_rate = 0.01; coverage = 10 }

(* Deterministic per-key payload bytes. *)
let payload seed tag n =
  let rng = Dna.Rng.create (seed lxor Store.Io.crc32 tag) in
  Bytes.init n (fun _ -> Char.chr (Dna.Rng.int rng 256))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The scripted history: puts over several shards, overwrites and
   deletes — enough journaled writes that one of them folds the journal
   into a checkpoint — then a compaction that rewrites the survivors and
   one more put. Raises Store.Io.Crashed when the kill lands; returns
   Error only on a genuine workload failure (which the recording run
   must not have). *)
let run_workload ~io ~dir ~seed ~config ~params (model : model) : (unit, string) result =
  model.inflight <- Initializing;
  match Store.init ~config ~io ~dir ~seed () with
  | Error e -> Error ("init: " ^ Store.error_message e)
  | Ok store ->
      model.init_acked <- true;
      model.inflight <- Idle;
      let ( let* ) = Result.bind in
      let op name inflight action commit =
        model.inflight <- inflight;
        match action () with
        | Error e -> Error (name ^ ": " ^ Store.error_message e)
        | Ok () ->
            commit ();
            model.generation <- Store.generation store;
            model.inflight <- Idle;
            Ok ()
      in
      let put key bytes =
        op ("put " ^ key)
          (Putting (key, bytes))
          (fun () -> Store.put ~params store ~key bytes)
          (fun () -> model.present <- (key, bytes) :: List.remove_assoc key model.present)
      in
      let overwrite key bytes =
        let old = List.assoc key model.present in
        op ("overwrite " ^ key)
          (Overwriting (key, old, bytes))
          (fun () -> Store.overwrite store ~key bytes)
          (fun () -> model.present <- (key, bytes) :: List.remove_assoc key model.present)
      in
      let delete key =
        let old = List.assoc key model.present in
        op ("delete " ^ key)
          (Deleting (key, old))
          (fun () -> Store.delete store ~key)
          (fun () ->
            model.present <- List.remove_assoc key model.present;
            model.deleted <- key :: model.deleted)
      in
      let compact () =
        op "compact" Compacting (fun () -> Result.map ignore (Store.compact store)) (fun () -> ())
      in
      let* () = put "k1" (payload seed "k1.v1" 40) in
      let* () = put "k2" (payload seed "k2.v1" 70) in
      let* () = overwrite "k1" (payload seed "k1.v2" 55) in
      let* () = delete "k2" in
      let* () = put "k3" (payload seed "k3.v1" 30) in
      let* () = put "k5" (payload seed "k5.v1" 35) in
      let* () = put "k6" (payload seed "k6.v1" 25) in
      let* () = overwrite "k5" (payload seed "k5.v2" 40) in
      let* () = delete "k6" in
      let* () = overwrite "k3" (payload seed "k3.v2" 30) in
      let* () = compact () in
      put "k4" (payload seed "k4.v1" 45)

(* Reopen with the real filesystem and check every invariant. *)
let verify ~dir (model : model) : (unit, string) result =
  match Store.open_store ~dir () with
  | Error e ->
      if model.init_acked then Error ("reopen failed: " ^ Store.error_message e)
      else Ok () (* the store was never acked into existence *)
  | Ok store ->
      let problems = ref [] in
      let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
      let check_exact what key bytes =
        match Store.get store ~key with
        | Ok b when Bytes.equal b bytes -> ()
        | Ok _ -> problem "%s: key %s decoded to different bytes" what key
        | Error e -> problem "%s: key %s unreadable: %s" what key (Store.error_message e)
      in
      let inflight_key =
        match model.inflight with
        | Putting (k, _) | Overwriting (k, _, _) | Deleting (k, _) -> Some k
        | Idle | Initializing | Compacting -> None
      in
      List.iter
        (fun (k, b) -> if inflight_key <> Some k then check_exact "acked write" k b)
        model.present;
      List.iter
        (fun k ->
          if inflight_key <> Some k && Store.mem store k then
            problem "acked delete: key %s reappeared" k)
        model.deleted;
      (* The in-flight operation must be atomic: old state or new state,
         nothing else. *)
      (match model.inflight with
      | Idle | Initializing | Compacting -> ()
      | Putting (k, b) -> if Store.mem store k then check_exact "in-flight put" k b
      | Overwriting (k, old_b, new_b) -> (
          match Store.get store ~key:k with
          | Ok b when Bytes.equal b old_b || Bytes.equal b new_b -> ()
          | Ok _ -> problem "in-flight overwrite: key %s is neither old nor new" k
          | Error e -> problem "in-flight overwrite: key %s unreadable: %s" k (Store.error_message e))
      | Deleting (k, old_b) -> if Store.mem store k then check_exact "in-flight delete" k old_b);
      (* Generation: where the acked operations left it, or one past
         that when the in-flight operation landed. The reopened rng
         stream derives from it. *)
      let g = Store.generation store in
      let landed = match model.inflight with Idle | Initializing -> 0 | _ -> 1 in
      if g < model.generation || g > model.generation + landed then
        problem "reopened at generation %d, acked %d" g model.generation;
      (* Debris: reopen must have reclaimed every temp and orphan file. *)
      let referenced =
        List.map Filename.basename (Store.shard_files store)
      in
      Array.iter
        (fun name -> if Filename.check_suffix name ".tmp" then problem "temp file %s survived reopen" name)
        (try Sys.readdir dir with Sys_error _ -> [||]);
      let sdir = Filename.concat dir Store.shards_dir in
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".tmp" then
            problem "temp file %s/%s survived reopen" Store.shards_dir name
          else if Filename.check_suffix name ".fasta" && not (List.mem name referenced) then
            problem "orphan shard file %s/%s survived reopen" Store.shards_dir name)
        (try Sys.readdir sdir with Sys_error _ -> [||]);
      (* One more put cuts any debris an unacked append left past its
         shard's recorded prefix: every shard file is then exactly the
         canonical serialization of its recorded strands. *)
      (match Store.put store ~key:"after-reopen" (payload 0 "after-reopen" 20) with
      | Error e -> problem "put after reopen failed: %s" (Store.error_message e)
      | Ok () ->
          List.iter
            (fun (path, n) ->
              let content = In_channel.with_open_bin path In_channel.input_all in
              let records, errors = Dna.Fasta.parse_string content in
              let canonical =
                Dna.Fasta.to_string
                  (List.mapi (fun i r -> { r with Dna.Fasta.id = Printf.sprintf "m_%d" i }) records)
              in
              if errors <> [] || List.length records <> n || content <> canonical then
                problem "after one more put, %s is not the canonical serialization of its %d \
                         recorded strands" (Filename.basename path) n)
            (Store.shard_strands store));
      if !problems = [] then Ok () else Error (String.concat "; " (List.rev !problems))

let run ?(config = default_config) ?(params = default_params) ~seed ~dir () : outcome =
  (* Recording run: no faults, count the points, and insist the whole
     workload (and its final state) is clean — otherwise the sweep would
     chase decode flakes instead of crash bugs. *)
  rm_rf dir;
  let io = Store.Io.faulty (Store.Io.no_faults ~seed) in
  let model = fresh_model () in
  (match run_workload ~io ~dir ~seed ~config ~params model with
  | Ok () -> ()
  | Error msg -> invalid_arg ("crash harness recording run failed: " ^ msg));
  (match verify ~dir model with
  | Ok () -> ()
  | Error msg -> invalid_arg ("crash harness recording state unreadable: " ^ msg));
  let total = Store.Io.points_hit io in
  let failures = ref [] and visited = ref [] in
  for k = 1 to total do
    rm_rf dir;
    let io = Store.Io.faulty { (Store.Io.no_faults ~seed) with crash_at = Some k } in
    let model = fresh_model () in
    let point, workload_problem =
      match run_workload ~io ~dir ~seed ~config ~params model with
      | Ok () -> ("(none: workload completed)", None)
      | Error msg -> ("(none)", Some ("workload failed without crashing: " ^ msg))
      | exception Store.Io.Crashed { point; _ } -> (point, None)
    in
    visited := (point, inflight_label model.inflight) :: !visited;
    (match workload_problem with
    | Some detail -> failures := { crash_at = k; point; detail } :: !failures
    | None -> (
        match verify ~dir model with
        | Ok () -> ()
        | Error detail -> failures := { crash_at = k; point; detail } :: !failures))
  done;
  rm_rf dir;
  {
    total_points = total;
    runs = total;
    failures = List.rev !failures;
    visited = List.rev !visited;
  }

let render (o : outcome) =
  let b = Buffer.create 256 in
  Printf.bprintf b "crash matrix: %d fault points swept, %d failure(s)\n" o.runs
    (List.length o.failures);
  List.iter
    (fun f -> Printf.bprintf b "  crash_at=%d [%s]: %s\n" f.crash_at f.point f.detail)
    o.failures;
  Buffer.contents b
