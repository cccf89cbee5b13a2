(* Experiment E7 — the end-to-end retrieval claim of Section IX.

   The paper synthesized one image with Twist BioScience, amplified it
   with PCR, sequenced it with Nanopore and recovered it exactly. The
   substitute run puts an image-like file and a decoy into one shard of
   a durable store whose channel is the harsh wetlab model (error rate
   0.10, base coverage 30), retrieves the image through the store's
   random-access path (PCR selection by primers, sequencing in both
   orientations, orientation fixing, primer stripping, clustering,
   reconstruction, decoding) and checks byte-exactness. Exits 1 when
   the store itself fails. *)

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
  let ok label = function
    | Ok v -> v
    | Error e -> fail "e2e: %s: %s" label (Store.error_message e)
  in
  let dir = Filename.temp_dir "dnastore_e2e" "" in
  let config = { Store.default_config with Store.error_rate = 0.10; coverage = 30 } in
  let store = ok "init" (Store.init ~config ~channel:Simulator.Channel_kind.Wetlab ~dir ~seed:909 ()) in
  (* Extra parity: the retrieval channel is the harsh wetlab model. *)
  let params = { Codec.Params.default with Codec.Params.rs_parity = 8 } in
  ok "put decoy" (Store.put ~params store ~key:"decoy.txt" (Bytes.of_string (String.make 500 'd')));
  ok "put image" (Store.put ~params store ~key:"image.raw" image);
  let s = Store.stats store in
  Printf.printf "store: %d molecules across %d files in %d shard(s), %s channel\n" s.Store.n_strands
    s.Store.n_objects s.Store.n_shards
    (Simulator.Channel_kind.name (Store.channel store));
  (* The degraded read returns the decoded bytes even when they fail the
     image's checksum, so an inexact retrieval is scored, not refused. *)
  let bytes, elapsed =
    time (fun () -> (ok "get" (Store.get_partial store ~key:"image.raw")).Store.bytes)
  in
  let exact = Bytes.equal bytes image in
  (* Bytes that differ, counting a length mismatch as wrong bytes. *)
  let n = Bytes.length bytes and m = Bytes.length image in
  let wrong = ref (abs (n - m)) in
  for i = 0 to min n m - 1 do
    if Bytes.get bytes i <> Bytes.get image i then incr wrong
  done;
  Printf.printf "retrieved %d bytes in %.2fs: %s (%d of %d bytes wrong, crc32 %08x)\n" n elapsed
    (if exact then "EXACT" else "CORRUPTED")
    !wrong m
    (Store.Io.crc32 (Bytes.to_string bytes));
  let s = Store.stats store in
  Printf.printf "  %s\n"
    (if s.Store.deepened_accesses > 0 then "deepened: the base-coverage first pass was refused"
     else "acked on the base-coverage first pass");
  let a = s.Store.access_s in
  Printf.printf
    "  sequencing %.2fs, demux %.2fs, clustering %.2fs, reconstruction %.2fs, decoding %.2fs\n"
    a.Dnastore.Pipeline.simulate_s a.demux_s a.cluster_s a.reconstruct_s a.decode_s;
  rm_rf dir;
  print_newline ()
