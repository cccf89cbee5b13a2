(* Random access: the key-value store architecture (Section II-F).

   Run with: dune exec examples/random_access.exe

   Three files share one DNA pool, each tagged with its own PCR primer
   pair. Retrieving a key runs the random-access path: PCR selection by
   primers, sequencing (reads arrive in both orientations), orientation
   normalization, primer stripping, clustering, reconstruction and
   decoding — without touching the other files' molecules. *)

let files =
  [
    ("paper.txt", "DNA Storage Toolkit: a modular end-to-end DNA data storage codec and simulator.");
    ("shopping.txt", "oligos, polymerase, buffer, two Eppendorf racks, and more coffee");
    ( "quote.txt",
      "The key-value store: a pair of primers is the key; the payloads of all molecules \
       tagged with that pair are the value." );
  ]

let () =
  let store = Dnastore.Kv_store.create ~seed:7 in
  List.iter
    (fun (key, content) -> Dnastore.Kv_store.put_exn store ~key (Bytes.of_string content))
    files;
  Printf.printf "pool holds %d molecules for %d files: %s\n\n"
    (Dnastore.Kv_store.pool_size store)
    (List.length (Dnastore.Kv_store.keys store))
    (String.concat ", " (Dnastore.Kv_store.keys store));

  (* Random access each file, including one twice to show reads are
     regenerated (fresh PCR + sequencing run each time). *)
  List.iter
    (fun key ->
      match Dnastore.Kv_store.get store ~key with
      | Ok (bytes, timings) ->
          Printf.printf "get %-14s -> %S\n" key (Bytes.to_string bytes);
          Printf.printf
            "   (sequence %.2fs, demux %.2fs, cluster %.2fs, reconstruct %.2fs, decode %.2fs)\n"
            timings.Dnastore.Pipeline.simulate_s timings.demux_s timings.cluster_s
            timings.reconstruct_s timings.decode_s;
          let expected = List.assoc key files in
          assert (String.equal (Bytes.to_string bytes) expected)
      | Error Dnastore.Kv_store.Key_not_found -> Printf.printf "get %s -> not found\n" key
      | Error (Decode_failed e) ->
          Printf.eprintf "get %s -> decode failed: %s\n" key e;
          exit 1)
    (List.map fst files @ [ "quote.txt" ]);

  (match Dnastore.Kv_store.get store ~key:"missing.txt" with
  | Error Dnastore.Kv_store.Key_not_found -> print_endline "\nget missing.txt -> Key_not_found (as expected)"
  | Ok _ | Error (Decode_failed _) -> assert false);
  print_endline "random access: ALL EXACT"
