(* Experiment E7's retrieval (bench/e2e.ml) at one store seed, shared by
   the byte-for-byte golden in test_pipeline and the exact-seed ratchet
   in test_claims: a 500 B decoy and the 2000 B gradient image share one
   pool at parity 8, and the image is read back through the harsh
   wetlab channel at coverage 30. *)

let n = 2000

let image =
  let side = int_of_float (sqrt (float_of_int n)) in
  Bytes.init n (fun i ->
      let x = i mod side and y = i / side in
      Char.chr ((x * x / max 1 side) + (y * 2) land 0xff))

(* [(wrong, crc32)]: the retrieved bytes that differ from the image (a
   length mismatch counts as wrong bytes) and the CRC-32 of what came
   back. *)
let retrieval seed =
  let store = Dnastore.Kv_store.create ~seed in
  let params = { Codec.Params.default with Codec.Params.rs_parity = 8 } in
  Dnastore.Kv_store.put_exn ~params store ~key:"decoy.txt" (Bytes.of_string (String.make 500 'd'));
  Dnastore.Kv_store.put_exn ~params store ~key:"image.raw" image;
  let stages =
    {
      (Dnastore.Pipeline.default_stages ()) with
      Dnastore.Pipeline.channel = Simulator.Wetlab_channel.create ();
      sequencing = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 30);
    }
  in
  match Dnastore.Kv_store.get ~stages store ~key:"image.raw" with
  | Error _ -> Alcotest.failf "seed %d: get failed" seed
  | Ok (bytes, _) ->
      let m = Bytes.length bytes in
      let wrong = ref (abs (m - n)) in
      for i = 0 to min m n - 1 do
        if Bytes.get bytes i <> Bytes.get image i then incr wrong
      done;
      (!wrong, Store.Io.crc32 (Bytes.to_string bytes))
