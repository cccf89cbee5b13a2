(* Random access: the key-value store architecture (Section II-F).

   Run with: dune exec examples/random_access.exe

   Three files share one store shard, each tagged with its own PCR
   primer pair. Retrieving a key runs the random-access path: PCR
   selection by primers, sequencing through the store's channel (reads
   arrive in both orientations), orientation normalization, primer
   stripping, clustering, reconstruction and decoding — without
   touching the other files' molecules. The store lives in a temporary
   directory that is removed at the end. *)

let files =
  [
    ("paper.txt", "DNA Storage Toolkit: a modular end-to-end DNA data storage codec and simulator.");
    ("shopping.txt", "oligos, polymerase, buffer, two Eppendorf racks, and more coffee");
    ( "quote.txt",
      "The key-value store: a pair of primers is the key; the payloads of all molecules \
       tagged with that pair are the value." );
  ]

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let ok label = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "%s: %s\n" label (Store.error_message e);
      exit 1

let () =
  let dir = Filename.temp_dir "dnastore_random_access" "" in
  at_exit (fun () -> remove_tree dir);
  let store = ok "init" (Store.init ~dir ~seed:7 ()) in
  List.iter (fun (key, content) -> ok ("put " ^ key) (Store.put store ~key (Bytes.of_string content))) files;
  Printf.printf "store holds %d molecules for %d files: %s\n\n" (Store.stats store).Store.n_strands
    (List.length (Store.keys store))
    (String.concat ", " (Store.keys store));

  (* Random access each file, including one twice without the cache to
     show reads are regenerated (fresh PCR + sequencing run each time). *)
  List.iter
    (fun key ->
      let bytes = ok ("get " ^ key) (Store.get ~use_cache:false store ~key) in
      Printf.printf "get %-14s -> %S\n" key (Bytes.to_string bytes);
      if not (String.equal (Bytes.to_string bytes) (List.assoc key files)) then begin
        Printf.eprintf "get %s -> wrong bytes\n" key;
        exit 1
      end)
    (List.map fst files @ [ "quote.txt" ]);
  let a = (Store.stats store).Store.access_s in
  Printf.printf "   (%d cold reads: sequence %.2fs, demux %.2fs, cluster %.2fs, reconstruct %.2fs, decode %.2fs)\n"
    (Store.stats store).Store.cold_accesses a.Dnastore.Pipeline.simulate_s a.demux_s a.cluster_s
    a.reconstruct_s a.decode_s;

  (match Store.get store ~key:"missing.txt" with
  | Error (Store.Key_not_found _) -> print_endline "\nget missing.txt -> Key_not_found (as expected)"
  | Ok _ | Error _ -> assert false);
  print_endline "random access: ALL EXACT"
