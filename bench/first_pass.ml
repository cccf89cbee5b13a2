(* The first-pass table: how often a cold store get is acked on its
   base-coverage first pass, and what a get costs.

   A get miss first reads its object at the store's base coverage and
   deepens to the shard depth ([Simulator.Sequencer.shard_depth]) only
   when that pass fails the object's CRC-32 (see [Store.get_batch]).
   For each channel, this entry builds stores shaped like the
   [serve-read] benchmark's (256 B objects, 128-strand shards, error
   rate 0.06, base coverage 10) at a fixed seed set, then runs one solo
   cold get per object at one domain. Each row reports the gets, the
   mean shard depth a get read at before it had a first pass, the share
   acked on the first pass, the share deepened, the share whose shard
   depth is the base (one pass, no first pass), the share exact and the
   process CPU per get. Guard: a get that answers
   [Ok] with bytes other than the object's exits 1.

     dune exec bench/main.exe -- firstpass
     dune exec bench/main.exe -- --smoke firstpass *)

open Exp_common

let ok_or_die label = function
  | Ok v -> v
  | Error e -> fail "firstpass: %s: %s" label (Store.error_message e)

let seeds = pick ~fast:[ 1 ] ~full:[ 1; 2; 3; 4 ]
let n_objects = pick ~fast:8 ~full:64
let object_bytes = 256
let config = { Store.default_config with Store.shard_target_strands = 128; coverage = 10 }

type tally = {
  mutable gets : int;
  mutable depth_sum : int;
  mutable base_only : int;  (* shard depth at base: no first pass *)
  mutable deepened : int;
  mutable exact : int;
  mutable cpu_s : float;
}

(* The depth a get of [key] reads at in its deep pass: the shard depth
   of a solo get's selection. *)
let shard_depth store key =
  let selected = Array.length (Store.pcr_select store ~key) in
  let shard = Option.get (Store.object_shard store ~key) in
  let path = Option.get (Store.shard_path store ~shard) in
  Simulator.Sequencer.shard_depth ~base:config.Store.coverage ~n_selected:selected
    ~n_shard:(List.assoc path (Store.shard_strands store))

(* Every object of one store at [seed], read once each. *)
let run_store channel seed (t : tally) =
  let dir = Filename.temp_dir "dnastore_firstpass" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = ok_or_die "init" (Store.init ~config ~channel ~dir ~seed ()) in
      let r = Dna.Rng.create seed in
      let objects =
        List.init n_objects (fun i ->
            let data = Bytes.init object_bytes (fun _ -> Char.chr (Dna.Rng.int r 256)) in
            (Printf.sprintf "obj%d" i, data))
      in
      List.iter (fun (key, data) -> ok_or_die ("put " ^ key) (Store.put store ~key data)) objects;
      (* Loads every shard pool, so the timed gets pay no file reads. *)
      let depths = List.map (fun (key, _) -> shard_depth store key) objects in
      let before = (Store.stats store).Store.deepened_accesses in
      List.iter2
        (fun (key, data) depth ->
          let c0 = Sys.time () in
          let r = Store.get_batch ~domains:1 ~use_cache:false store [ key ] in
          t.cpu_s <- t.cpu_s +. (Sys.time () -. c0);
          t.gets <- t.gets + 1;
          t.depth_sum <- t.depth_sum + depth;
          if depth <= config.Store.coverage then t.base_only <- t.base_only + 1;
          match r with
          | [ (_, Ok bytes) ] when Bytes.equal bytes data -> t.exact <- t.exact + 1
          | [ (_, Ok _) ] -> fail "firstpass: seed %d: get %s acked wrong bytes" seed key
          | _ -> ())
        objects depths;
      t.deepened <- t.deepened + ((Store.stats store).Store.deepened_accesses - before))

let run () =
  print_string (section "First pass: cold gets at base coverage, deepened on a CRC-32 refusal");
  Printf.printf "%d objects of %d B per store, seeds %s, base coverage %d, error rate %.2f\n"
    n_objects object_bytes
    (String.concat "," (List.map string_of_int seeds))
    config.Store.coverage config.Store.error_rate;
  let rows =
    List.map
      (fun channel ->
        let t = { gets = 0; depth_sum = 0; base_only = 0; deepened = 0; exact = 0; cpu_s = 0.0 } in
        List.iter (fun seed -> run_store channel seed t) seeds;
        let share n = pct (float_of_int n /. float_of_int t.gets) in
        [
          Simulator.Channel_kind.name channel;
          string_of_int t.gets;
          Printf.sprintf "%.1f" (float_of_int t.depth_sum /. float_of_int t.gets);
          share (t.gets - t.base_only - t.deepened);
          share t.deepened;
          share t.base_only;
          share t.exact;
          Printf.sprintf "%.2f" (1000.0 *. t.cpu_s /. float_of_int t.gets);
        ])
      [ Simulator.Channel_kind.Iid; Simulator.Channel_kind.Wetlab ]
  in
  print_string
    (table
       ([
          "channel";
          "gets";
          "shard depth";
          "first pass acked";
          "deepened";
          "base depth only";
          "exact";
          "CPU ms/get";
        ]
       :: rows));
  print_newline ()
