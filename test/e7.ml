(* Experiment E7's retrieval (bench/e2e.ml) at one store seed, shared by
   the byte-for-byte golden in test_pipeline, the exact-seed ratchet in
   test_claims and the wetlab reopen test in test_store: a 500 B decoy
   and the 2000 B gradient image share one shard of a store whose
   channel is the harsh wetlab model at error rate 0.10, both at parity
   8, and the image is read back at base coverage 30. The shard pass
   reads the image at depth 33 ([Simulator.Sequencer.shard_depth]), so
   a get first reads at 30 and deepens to 33 only when that pass fails
   the image's CRC-32. *)

let n = 2000

let image =
  let side = int_of_float (sqrt (float_of_int n)) in
  Bytes.init n (fun i ->
      let x = i mod side and y = i / side in
      Char.chr ((x * x / max 1 side) + (y * 2) land 0xff))

let config = { Store.default_config with Store.error_rate = 0.10; coverage = 30 }
let params = { Codec.Params.default with Codec.Params.rs_parity = 8 }

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let ok_or_fail seed label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "seed %d: %s: %s" seed label (Store.error_message e)

(* [f ~dir store] on a fresh E7 store at [seed] in a temporary
   directory, removed afterwards; [params] (E7's by default) encodes
   both objects. *)
let with_store ?(params = params) seed f =
  let dir = Filename.temp_dir "dnastore_e7_" "" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let ok label = ok_or_fail seed label in
      let store = ok "init" (Store.init ~config ~channel:Simulator.Channel_kind.Wetlab ~dir ~seed ()) in
      ok "put decoy" (Store.put ~params store ~key:"decoy.txt" (Bytes.of_string (String.make 500 'd')));
      ok "put image" (Store.put ~params store ~key:"image.raw" image);
      f ~dir store)

(* [(wrong, crc32)]: the retrieved bytes that differ from the image (a
   length mismatch counts as wrong bytes) and the CRC-32 of what came
   back. *)
let score bytes =
  let m = Bytes.length bytes in
  let wrong = ref (abs (m - n)) in
  for i = 0 to min m n - 1 do
    if Bytes.get bytes i <> Bytes.get image i then incr wrong
  done;
  (!wrong, Store.Io.crc32 (Bytes.to_string bytes))

(* Read through the degraded path: a plain get refuses bytes that fail
   the image's checksum, and the score counts how wrong they are. *)
let retrieval seed =
  with_store seed (fun ~dir:_ store ->
      let p = ok_or_fail seed "get_partial" (Store.get_partial store ~key:"image.raw") in
      score p.Store.bytes)
