(* Experiment E7 — the end-to-end retrieval claim of Section IX.

   The paper synthesized one image with Twist BioScience, amplified it
   with PCR, sequenced it with Nanopore and recovered it exactly. The
   substitute run stores an image-like file in the key-value store,
   retrieves it through the full random-access path (PCR selection by
   primers, sequencing in both orientations through the harsh wetlab
   channel, orientation fixing, primer stripping, clustering,
   reconstruction, decoding) and checks byte-exactness. *)

open Exp_common

let image_bytes = pick ~fast:600 ~full:2000

let run () =
  print_string (section "End-to-end retrieval through the random-access path");
  (* An image-like payload: smooth gradients, not random bytes. *)
  let side = int_of_float (sqrt (float_of_int image_bytes)) in
  let image =
    Bytes.init image_bytes (fun i ->
        let x = i mod side and y = i / side in
        Char.chr ((x * x / max 1 side) + (y * 2) land 0xff))
  in
  let store = Dnastore.Kv_store.create ~seed:909 in
  (* Extra parity: the retrieval channel is the harsh wetlab model. *)
  let params = { Codec.Params.default with Codec.Params.rs_parity = 8 } in
  Dnastore.Kv_store.put_exn ~params store ~key:"decoy.txt" (Bytes.of_string (String.make 500 'd'));
  Dnastore.Kv_store.put_exn ~params store ~key:"image.raw" image;
  Printf.printf "pool: %d molecules across %d files\n" (Dnastore.Kv_store.pool_size store)
    (List.length (Dnastore.Kv_store.keys store));
  let stages =
    {
      (Dnastore.Pipeline.default_stages ()) with
      Dnastore.Pipeline.channel = Simulator.Wetlab_channel.create ();
      sequencing = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 30);
    }
  in
  let (result, elapsed) = time (fun () -> Dnastore.Kv_store.get ~stages store ~key:"image.raw") in
  (match result with
  | Ok (bytes, timings) ->
      let exact = Bytes.equal bytes image in
      (* Bytes that differ, counting a length mismatch as wrong bytes. *)
      let n = Bytes.length bytes and m = Bytes.length image in
      let wrong = ref (abs (n - m)) in
      for i = 0 to min n m - 1 do
        if Bytes.get bytes i <> Bytes.get image i then incr wrong
      done;
      Printf.printf "retrieved %d bytes in %.2fs: %s (%d of %d bytes wrong, crc32 %08x)\n" n
        elapsed
        (if exact then "EXACT" else "CORRUPTED")
        !wrong m
        (Store.Io.crc32 (Bytes.to_string bytes));
      Printf.printf
        "  sequencing %.2fs, demux %.2fs, clustering %.2fs, reconstruction %.2fs, decoding %.2fs\n"
        timings.Dnastore.Pipeline.simulate_s timings.demux_s timings.cluster_s
        timings.reconstruct_s timings.decode_s
  | Error Dnastore.Kv_store.Key_not_found -> print_endline "key not found!"
  | Error (Decode_failed e) -> Printf.printf "decode failed: %s\n" e);
  print_newline ()
