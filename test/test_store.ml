(* The persistent sharded object store: container format, durability
   across reopen, rewritable random access, compaction, the LRU cache,
   and the wetlab serialization formats it stores shards in. *)

let random_file r n = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int r 256))

(* [f dir] on a fresh temporary directory, removed afterwards. *)
let with_store_dir f =
  let dir = Filename.temp_dir "dnastore_test_" "" in
  Fun.protect ~finally:(fun () -> E7.remove_tree dir) (fun () -> f dir)

let file_size path = (Unix.stat path).Unix.st_size

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let replace_substring ~needle ~into haystack =
  let buf = Buffer.create (String.length haystack) in
  let n = String.length needle in
  let i = ref 0 in
  while !i < String.length haystack do
    if !i + n <= String.length haystack && String.sub haystack !i n = needle then begin
      Buffer.add_string buf into;
      i := !i + n
    end
    else begin
      Buffer.add_char buf haystack.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" label (Store.error_message e))

let test_config =
  (* A mild channel keeps the wetlab read path fast in unit tests. *)
  { Store.default_config with Store.error_rate = 0.03; cache_objects = 4 }

(* ---------- JSON layer ---------- *)

let test_json_round_trip () =
  let v =
    Store.Json.Obj
      [
        ("int", Store.Json.Int 42);
        ("neg", Store.Json.Int (-7));
        ("float", Store.Json.Float 0.0625);
        ("bool", Store.Json.Bool true);
        ("null", Store.Json.Null);
        ("tricky", Store.Json.String "a\"b\\c\nd\te\x01f");
        ( "list",
          Store.Json.List [ Store.Json.Int 1; Store.Json.String "two"; Store.Json.List [] ] );
        ("empty", Store.Json.Obj []);
      ]
  in
  match Store.Json.of_string (Store.Json.to_string v) with
  | Error msg -> Alcotest.fail ("round trip: " ^ msg)
  | Ok v' -> Alcotest.(check bool) "round trips" true (v = v')

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Store.Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "parsed malformed %S" s)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "nul"; "" ]

let test_json_output_fields_equals_to_string () =
  (* The streamed printer writes exactly what [to_string] writes for the
     same object, in pieces, with array items built one at a time. *)
  let items =
    [ Store.Json.Obj [ ("a", Store.Json.Int 1); ("b", Store.Json.List []) ]; Store.Json.Null ]
  in
  let long = List.init 300 (fun i -> Store.Json.String (Printf.sprintf "item %d" i)) in
  let fields : Store.Json.field list =
    [
      ("empty", `Items Seq.empty);
      ("items", `Items (List.to_seq items));
      ("long", `Items (List.to_seq long));
      ("obj", `Value (Store.Json.Obj [ ("x", Store.Json.Float 0.5); ("y", Store.Json.Obj []) ]));
      ("s", `Value (Store.Json.String "q\"uote"));
    ]
  in
  let pieces = ref [] in
  Store.Json.output_fields (fun p -> pieces := p :: !pieces) fields;
  let expected =
    Store.Json.to_string
      (Store.Json.Obj (List.map (fun (k, v) -> (k, Store.Json.field_value v)) fields))
  in
  Alcotest.(check string) "same text" expected (String.concat "" (List.rev !pieces));
  Alcotest.(check bool) "in pieces of at most a few KiB" true
    (List.length !pieces > 1 && List.for_all (fun p -> String.length p < 4096) !pieces);
  let none = ref [] in
  Store.Json.output_fields (fun p -> none := p :: !none) [];
  Alcotest.(check string) "empty object" "{}\n" (String.concat "" !none)

(* ---------- durability ---------- *)

let test_store_survives_reopen () =
  List.iter
    (fun seed ->
      let r = Dna.Rng.create (900 + seed) in
      let a = random_file r 300 and b = random_file r 450 in
      with_store_dir @@ fun dir ->
      let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed ()) in
      ok_or_fail "put a" (Store.put store ~key:"a" a);
      ok_or_fail "put b" (Store.put store ~key:"b" b);
      (* A fresh handle must see only what reached the disk. *)
      let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
      Alcotest.(check (list string)) "keys" [ "a"; "b" ] (List.sort compare (Store.keys store));
      let a' = ok_or_fail "get a" (Store.get store ~key:"a") in
      let b' = ok_or_fail "get b" (Store.get store ~key:"b") in
      Alcotest.(check bytes) "a byte-identical" a a';
      Alcotest.(check bytes) "b byte-identical" b b')
    [ 1; 2 ]

let test_init_refuses_existing () =
  with_store_dir @@ fun dir ->
  let _ = ok_or_fail "init" (Store.init ~dir ~seed:7 ()) in
  match Store.init ~dir ~seed:8 () with
  | Error (Store.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "re-init over an existing store succeeded"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Store.error_message e)

let test_no_tmp_leftovers () =
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:3 ()) in
  ok_or_fail "put" (Store.put store ~key:"k" (random_file (Dna.Rng.create 31) 200));
  ok_or_fail "delete" (Store.delete store ~key:"k");
  let _ = ok_or_fail "compact" (Store.compact store) in
  let leftovers =
    List.filter
      (fun f -> Filename.check_suffix f ".tmp")
      (Array.to_list (Sys.readdir dir) @ Array.to_list (Sys.readdir (Filename.concat dir "shards")))
  in
  Alcotest.(check (list string)) "no temp files survive" [] leftovers

(* ---------- rewritable access and compaction ---------- *)

let test_delete_compact_reclaims () =
  List.iter
    (fun seed ->
      let r = Dna.Rng.create (7000 + seed) in
      let a = random_file r 400 and b = random_file r 250 in
      with_store_dir @@ fun dir ->
      let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed ()) in
      ok_or_fail "put a" (Store.put store ~key:"a" a);
      ok_or_fail "put b" (Store.put store ~key:"b" b);
      let pair_a =
        match Store.object_pair store ~key:"a" with
        | Some p -> p
        | None -> Alcotest.fail "no pair for a"
      in
      Alcotest.(check bool) "pair reserved while live" true (Store.pair_reserved store pair_a);
      let bytes_before =
        List.fold_left (fun acc f -> acc + file_size f) 0 (Store.shard_files store)
      in
      ok_or_fail "delete a" (Store.delete store ~key:"a");
      (match Store.get store ~key:"a" with
      | Error (Store.Key_not_found "a") -> ()
      | Ok _ -> Alcotest.fail "get of deleted key succeeded"
      | Error e -> Alcotest.fail ("unexpected error: " ^ Store.error_message e));
      (* Retired, not reclaimed: the molecules are still in the shard. *)
      Alcotest.(check bool) "pair retired, still reserved" true (Store.pair_reserved store pair_a);
      Alcotest.(check int) "one retired pair" 1 (Store.stats store).Store.retired_primer_pairs;
      let cstats = ok_or_fail "compact" (Store.compact store) in
      Alcotest.(check int) "one pair reclaimed" 1 cstats.Store.primer_pairs_reclaimed;
      Alcotest.(check bool) "fewer strands after compaction" true
        (cstats.Store.strands_after < cstats.Store.strands_before);
      let bytes_after =
        List.fold_left (fun acc f -> acc + file_size f) 0 (Store.shard_files store)
      in
      Alcotest.(check bool) "shard files shrink" true (bytes_after < bytes_before);
      Alcotest.(check bool) "pair released after compaction" false
        (Store.pair_reserved store pair_a);
      (* The freed primer pair must be usable by a later put. *)
      ok_or_fail "put c" (Store.put store ~key:"c" (random_file r 120));
      (* Durability of the compacted state. *)
      let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
      let b' = ok_or_fail "get b after compaction" (Store.get store ~key:"b") in
      Alcotest.(check bytes) "b intact after compaction" b b';
      match Store.get store ~key:"a" with
      | Error (Store.Key_not_found _) -> ()
      | _ -> Alcotest.fail "deleted key resurfaced after reopen")
    [ 1; 2 ]

let test_overwrite_appends_version () =
  let r = Dna.Rng.create 4242 in
  let v1 = random_file r 300 and v2 = random_file r 350 in
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:11 ()) in
  ok_or_fail "put" (Store.put store ~key:"doc" v1);
  (match Store.put store ~key:"doc" v1 with
  | Error (Store.Duplicate_key "doc") -> ()
  | _ -> Alcotest.fail "duplicate put not rejected");
  ok_or_fail "overwrite" (Store.overwrite store ~key:"doc" v2);
  Alcotest.(check int) "old pair retired" 1 (Store.stats store).Store.retired_primer_pairs;
  let got = ok_or_fail "get" (Store.get ~use_cache:false store ~key:"doc") in
  Alcotest.(check bytes) "overwrite wins" v2 got;
  let _ = ok_or_fail "compact" (Store.compact store) in
  let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  let got = ok_or_fail "get after compact+reopen" (Store.get store ~key:"doc") in
  Alcotest.(check bytes) "new version survives compaction" v2 got;
  match Store.overwrite store ~key:"missing" v1 with
  | Error (Store.Key_not_found _) -> ()
  | _ -> Alcotest.fail "overwrite of a missing key succeeded"

(* ---------- batched access ---------- *)

let test_get_batch_matches_sequential () =
  let r = Dna.Rng.create 808 in
  with_store_dir @@ fun dir ->
  (* A small shard target spreads the objects over several shards, so
     the batch exercises the per-shard grouping. *)
  let config = { test_config with Store.shard_target_strands = 60 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:5 ()) in
  let keys = List.init 6 (fun i -> Printf.sprintf "obj%d" i) in
  let payloads = List.map (fun key -> (key, random_file r (150 + (37 * String.length key)))) keys in
  List.iter (fun (key, data) -> ok_or_fail ("put " ^ key) (Store.put store ~key data)) payloads;
  Alcotest.(check bool) "objects spread over several shards" true
    ((Store.stats store).Store.n_shards > 1);
  let sequential =
    List.map (fun key -> (key, ok_or_fail ("get " ^ key) (Store.get ~use_cache:false store ~key))) keys
  in
  let batched = Store.get_batch ~domains:2 ~use_cache:false store keys in
  List.iter2
    (fun (k1, seq_bytes) (k2, batch_result) ->
      Alcotest.(check string) "batch preserves input order" k1 k2;
      let batch_bytes = ok_or_fail ("batched get " ^ k2) batch_result in
      Alcotest.(check bytes) ("batch equals sequential for " ^ k1) seq_bytes batch_bytes;
      Alcotest.(check bytes) ("recovers original " ^ k1) (List.assoc k1 payloads) batch_bytes)
    sequential batched;
  (* Unknown keys fail individually without poisoning the batch. *)
  match Store.get_batch store [ "obj0"; "ghost" ] with
  | [ (_, Ok _); (_, Error (Store.Key_not_found "ghost")) ] -> ()
  | _ -> Alcotest.fail "mixed batch did not isolate the missing key"

let test_get_batch_thousand_keys () =
  (* Regression for the O(n^2) accumulators (list-append task building
     and assoc-list joins): a 1k-entry batch cycling a handful of real
     keys plus misses must come back in input order, with duplicate
     entries equal and every ghost key failing individually. Each
     unique key decodes once, so this stays fast. *)
  let r = Dna.Rng.create 909 in
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:17 ()) in
  let real = List.init 5 (fun i -> Printf.sprintf "k%d" i) in
  let payloads = List.map (fun key -> (key, random_file r 120)) real in
  List.iter (fun (key, data) -> ok_or_fail ("put " ^ key) (Store.put store ~key data)) payloads;
  let request =
    List.init 1000 (fun i ->
        if i mod 7 = 6 then Printf.sprintf "ghost%d" i else List.nth real (i mod 5))
  in
  let results = Store.get_batch ~use_cache:false store request in
  Alcotest.(check int) "one answer per request" (List.length request) (List.length results);
  let first : (string, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter2
    (fun asked (key, result) ->
      Alcotest.(check string) "input order preserved" asked key;
      match result with
      | Error (Store.Key_not_found k) ->
          Alcotest.(check string) "only ghosts miss" asked k;
          Alcotest.(check bool) "miss is a ghost" true
            (String.length k >= 5 && String.sub k 0 5 = "ghost")
      | Error e -> Alcotest.failf "unexpected error for %s: %s" key (Store.error_message e)
      | Ok bytes -> (
          Alcotest.(check bytes) ("recovers original " ^ key) (List.assoc key payloads) bytes;
          match Hashtbl.find_opt first key with
          | None -> Hashtbl.add first key bytes
          | Some prior -> Alcotest.(check bytes) "duplicate entries agree" prior bytes))
    request results

let test_get_batch_duplicate_keys_decode_once () =
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:19 ()) in
  let data = random_file (Dna.Rng.create 55) 180 in
  ok_or_fail "put" (Store.put store ~key:"a" data);
  Dna.Par.reset_counters ();
  (match Store.get_batch ~use_cache:false store [ "a"; "a" ] with
  | [ ("a", Ok b1); ("a", Ok b2) ] ->
      Alcotest.(check bytes) "both entries answered" b1 b2;
      Alcotest.(check bytes) "and recover the original" data b1
  | _ -> Alcotest.fail "duplicate-key batch did not answer both entries");
  let batch_tasks =
    match
      List.find_opt (fun c -> c.Dna.Par.label = "store.get_batch") (Dna.Par.counters ())
    with
    | Some c -> c.Dna.Par.tasks
    | None -> 0
  in
  Alcotest.(check int) "duplicate key decoded once" 1 batch_tasks

let test_get_deterministic_across_batch_shapes () =
  (* An object's wetlab draws derive from (store seed, key, version),
     so the bytes it decodes to cannot depend on which other keys
     share the batch, on batch order, or on how many gets ran before. *)
  let r = Dna.Rng.create 606 in
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:23 ()) in
  List.iter
    (fun key -> ok_or_fail ("put " ^ key) (Store.put store ~key (random_file r 140)))
    [ "a"; "b"; "c" ];
  let solo key = ok_or_fail ("get " ^ key) (Store.get ~use_cache:false store ~key) in
  let in_batch keys key =
    match List.assoc key (Store.get_batch ~use_cache:false store keys) with
    | Ok bytes -> bytes
    | Error e -> Alcotest.failf "batched get %s: %s" key (Store.error_message e)
  in
  let a = solo "a" in
  Alcotest.(check bytes) "repeat solo get replays the stream" a (solo "a");
  Alcotest.(check bytes) "same bytes inside [a;b]" a (in_batch [ "a"; "b" ] "a");
  Alcotest.(check bytes) "same bytes inside [b;a]" a (in_batch [ "b"; "a" ] "a");
  Alcotest.(check bytes) "same bytes inside [c;a;b]" a (in_batch [ "c"; "a"; "b" ] "a");
  (* A new version is a new stream: overwrite must change the draws'
     derivation but still decode to the new payload. *)
  let v2 = random_file r 140 in
  ok_or_fail "overwrite a" (Store.overwrite store ~key:"a" v2);
  Alcotest.(check bytes) "post-overwrite get decodes v2" v2 (solo "a")

(* ---------- LRU cache ---------- *)

let test_cache_hits_on_repeated_get () =
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:21 ()) in
  let data = random_file (Dna.Rng.create 99) 250 in
  ok_or_fail "put" (Store.put store ~key:"hot" data);
  let first = ok_or_fail "first get" (Store.get store ~key:"hot") in
  let second = ok_or_fail "second get" (Store.get store ~key:"hot") in
  Alcotest.(check bytes) "cached get is byte-identical" first second;
  let s = Store.stats store in
  Alcotest.(check int) "one miss (first get)" 1 s.Store.cache_misses;
  Alcotest.(check bool) "repeated get hits the cache" true (s.Store.cache_hits >= 1);
  let rendered = Store.render_stats store in
  Alcotest.(check bool) "report surfaces the hit counters" true
    (contains_substring ~needle:"hit" rendered)

(* Every wetlab read path a get runs adds one cold access and its stage
   times to [Store.stats]; a cache hit adds neither, and a key a batch
   asks for twice decodes (and counts) once. *)
let test_cold_access_stats () =
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:23 ()) in
  let r = Dna.Rng.create 7 in
  ok_or_fail "put a" (Store.put store ~key:"a" (random_file r 200));
  ok_or_fail "put b" (Store.put store ~key:"b" (random_file r 200));
  let s0 = Store.stats store in
  Alcotest.(check int) "no access yet" 0 s0.Store.cold_accesses;
  ignore (ok_or_fail "get a" (Store.get store ~key:"a"));
  let s1 = Store.stats store in
  let a = s1.Store.access_s in
  Alcotest.(check int) "cold get counted" 1 s1.Store.cold_accesses;
  Alcotest.(check bool) "stage times recorded" true
    (a.Dnastore.Pipeline.simulate_s > 0.0 && a.demux_s > 0.0 && a.cluster_s > 0.0
   && a.reconstruct_s > 0.0 && a.decode_s > 0.0 && a.encode_s = 0.0);
  ignore (ok_or_fail "get a again" (Store.get store ~key:"a"));
  let s2 = Store.stats store in
  Alcotest.(check int) "cache hit adds no access" 1 s2.Store.cold_accesses;
  Alcotest.(check bool) "cache hit adds no time" true (s2.Store.access_s = a);
  List.iter
    (fun (k, r) -> ignore (ok_or_fail k r))
    (Store.get_batch store [ "a"; "b"; "b" ]);
  let s3 = Store.stats store in
  Alcotest.(check int) "batch: one miss, one access" 2 s3.Store.cold_accesses;
  Alcotest.(check bool) "batch adds time" true
    (s3.Store.access_s.Dnastore.Pipeline.reconstruct_s > a.reconstruct_s);
  Alcotest.(check bool) "report names the accesses" true
    (contains_substring ~needle:"cold accesses: 2" (Store.render_stats store))

let test_lru_eviction_order () =
  let cache = Store.Lru.create ~capacity:2 in
  Store.Lru.add cache "a" 1;
  Store.Lru.add cache "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Store.Lru.find cache "a");
  (* "b" is now least recently used; adding "c" must evict it. *)
  Store.Lru.add cache "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Store.Lru.find cache "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Store.Lru.find cache "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Store.Lru.find cache "c");
  Alcotest.(check int) "hits" 3 (Store.Lru.hits cache);
  Alcotest.(check int) "misses" 1 (Store.Lru.misses cache);
  let disabled = Store.Lru.create ~capacity:0 in
  Store.Lru.add disabled "x" 1;
  Alcotest.(check (option int)) "capacity 0 disables caching" None (Store.Lru.find disabled "x")

(* ---------- corruption and the format gate ---------- *)

let patch_manifest dir f =
  let path = Filename.concat dir "MANIFEST.json" in
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f content);
  close_out oc

let test_corrupt_manifest_rejected () =
  with_store_dir @@ fun dir ->
  let _ = ok_or_fail "init" (Store.init ~dir ~seed:13 ()) in
  patch_manifest dir (fun _ -> "{ not json");
  match Store.open_store ~dir () with
  | Error (Store.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "opened a store with a garbage manifest"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Store.error_message e)

let test_format_version_gate () =
  (* A future format version and an unknown channel name are both
     refused, each with an error that names it. *)
  List.iter
    (fun (what, needle, into) ->
      with_store_dir @@ fun dir ->
      let _ = ok_or_fail "init" (Store.init ~dir ~seed:13 ()) in
      patch_manifest dir (replace_substring ~needle ~into);
      match Store.open_store ~dir () with
      | Error (Store.Corrupt msg) ->
          Alcotest.(check bool) ("error names the " ^ what) true
            (contains_substring ~needle:what msg)
      | Ok _ -> Alcotest.fail ("opened a store with a bad " ^ what)
      | Error e -> Alcotest.fail ("unexpected error: " ^ Store.error_message e))
    [
      ( "version",
        Printf.sprintf "\"format_version\": %d" Store.format_version,
        "\"format_version\": 99" );
      ("channel", "\"channel\": \"iid\"", "\"channel\": \"bogus\"");
    ]

(* ---------- JSON hardening: adversarial and fuzzed inputs ---------- *)

let test_json_rejects_deep_nesting () =
  (* Beyond-max_depth nesting must come back as a typed error, not a
     Stack_overflow. *)
  let deep open_c close_c n =
    String.make n open_c ^ "1" ^ String.make n close_c
  in
  List.iter
    (fun s ->
      match Store.Json.of_string s with
      | Ok _ -> Alcotest.fail "parsed pathologically deep nesting"
      | Error msg ->
          Alcotest.(check bool) "error names the depth" true
            (contains_substring ~needle:"nesting" msg))
    [
      deep '[' ']' (Store.Json.max_depth + 1);
      deep '[' ']' 200_000;
      String.concat "" (List.init 2_000 (fun _ -> "{\"k\":")) ^ "1"
      ^ String.concat "" (List.init 2_000 (fun _ -> "}"));
    ];
  (* ... while nesting inside the bound still parses. *)
  match Store.Json.of_string (deep '[' ']' (Store.Json.max_depth - 1)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("rejected in-bounds nesting: " ^ msg)

let test_json_rejects_duplicate_keys () =
  List.iter
    (fun s ->
      match Store.Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "parsed duplicate keys in %S" s)
      | Error msg ->
          Alcotest.(check bool) "error names the duplicate" true
            (contains_substring ~needle:"duplicate" msg))
    [
      {|{"a": 1, "a": 2}|};
      {|{"a": 1, "b": {"x": 1, "x": 2}}|};
      {|{"a": 1, "b": 2, "a": 3}|};
    ]

let test_json_fuzz_never_raises () =
  (* Seeded fuzz over mutations of a realistic manifest-shaped document:
     truncations, byte flips, splices of structural characters. Every
     mutant must come back Ok or Error — never an exception. *)
  let base =
    Store.Json.to_string
      (Store.Json.Obj
         [
           ("format_version", Store.Json.Int 2);
           ("seed", Store.Json.Int 42);
           ( "shards",
             Store.Json.List
               [
                 Store.Json.Obj
                   [
                     ("shard_id", Store.Json.Int 0);
                     ("file", Store.Json.String "shards/shard_00000.fasta");
                     ("checksum", Store.Json.Int 123456789);
                   ];
               ] );
           ("label", Store.Json.String "esc\\aped \"quo\tes\" \x01");
         ])
  in
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create (31_337 + seed) in
      let splice_chars = [| '{'; '}'; '['; ']'; '"'; '\\'; ','; ':'; 'u'; '\x00'; '\xff' |] in
      for _ = 1 to 400 do
        let b = Bytes.of_string base in
        let n = Bytes.length b in
        let mutant =
          match Dna.Rng.int rng 3 with
          | 0 -> Bytes.sub_string b 0 (Dna.Rng.int rng n) (* truncation *)
          | 1 ->
              let i = Dna.Rng.int rng n in
              Bytes.set b i splice_chars.(Dna.Rng.int rng (Array.length splice_chars));
              Bytes.to_string b
          | _ ->
              let i = Dna.Rng.int rng n in
              Bytes.set b i (Char.chr (Dna.Rng.int rng 256));
              Bytes.to_string b
        in
        match Store.Json.of_string mutant with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "of_string raised %s on %S" (Printexc.to_string e) mutant
      done)
    [ 1; 2 ]

(* ---------- durability hardening: faults, scrub, degraded reads ---------- *)

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_whole path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let shard_path_of store key =
  match Store.object_shard store ~key with
  | None -> Alcotest.failf "no shard for %s" key
  | Some shard -> (
      match Store.shard_path store ~shard with
      | Some p -> p
      | None -> Alcotest.failf "no file for shard %d" shard)

let test_get_on_damaged_shard_fails_typed () =
  (* A truncated or non-FASTA shard file must surface as the typed
     Corrupt_shard — the Fasta parser's complaints must not escape as
     exceptions. *)
  List.iter
    (fun (label, damage) ->
      with_store_dir @@ fun dir ->
      let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:29 ()) in
      ok_or_fail "put" (Store.put store ~key:"x" (random_file (Dna.Rng.create 12) 200));
      let path = shard_path_of store "x" in
      write_whole path (damage (read_whole path));
      (* A fresh handle, so the read sees the disk, not the pool the
         put left cached in memory. *)
      let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
      match Store.get ~use_cache:false store ~key:"x" with
      | Error (Store.Corrupt_shard { shard = 0; reason }) ->
          Alcotest.(check bool) (label ^ ": reason is non-empty") true (String.length reason > 0)
      | Ok _ -> Alcotest.fail (label ^ ": get succeeded on a damaged shard")
      | Error e -> Alcotest.failf "%s: wrong error: %s" label (Store.error_message e)
      | exception e -> Alcotest.failf "%s: get raised %s" label (Printexc.to_string e))
    [
      ("garbage", fun _ -> "definitely not FASTA\n\x00\x01");
      ("truncated", fun s -> String.sub s 0 (String.length s / 3));
      ("emptied", fun _ -> "");
    ]

let flip_bases_in_record path ~record ~flips =
  (* Rewrite [flips] bases of one molecule, keeping the FASTA framing
     valid so only the checksum and the decode see the damage. *)
  let records, errors = Dna.Fasta.parse_string (read_whole path) in
  Alcotest.(check int) "shard parses before damage" 0 (List.length errors);
  let mutated =
    List.mapi
      (fun i (r : Dna.Fasta.record) ->
        if i <> record then r
        else begin
          let s = Bytes.of_string (Dna.Strand.to_string r.seq) in
          for j = 0 to flips - 1 do
            let pos = 10 + (j * 7) in
            Bytes.set s pos (match Bytes.get s pos with 'A' -> 'C' | 'C' -> 'G' | 'G' -> 'T' | _ -> 'A')
          done;
          { r with Dna.Fasta.seq = Dna.Strand.of_string (Bytes.to_string s) }
        end)
      records
  in
  write_whole path (Dna.Fasta.to_string mutated)

let test_scrub_detects_and_repairs () =
  (* Flip bases inside one molecule: the prefix checksum must catch it,
     scrub must re-synthesize the object bit-identically, and the
     repaired store must survive reopen. Two seeds pin determinism. *)
  List.iter
    (fun seed ->
      let r = Dna.Rng.create (4_000 + seed) in
      let a = random_file r 300 and b = random_file r 150 in
      with_store_dir @@ fun dir ->
      (* A small shard target keeps a and b in separate shards, so the
         damage (and the repair) stays scoped to one object. *)
      let config = { test_config with Store.shard_target_strands = 20 } in
      let store = ok_or_fail "init" (Store.init ~config ~dir ~seed ()) in
      ok_or_fail "put a" (Store.put store ~key:"a" a);
      ok_or_fail "put b" (Store.put store ~key:"b" b);
      Alcotest.(check bool) "a and b in different shards" true
        (Store.object_shard store ~key:"a" <> Store.object_shard store ~key:"b");
      flip_bases_in_record (shard_path_of store "a") ~record:1 ~flips:3;
      let store = ok_or_fail "reopen damaged" (Store.open_store ~dir ()) in
      (match Store.get ~use_cache:false store ~key:"a" with
      | Error (Store.Corrupt_shard _) -> ()
      | Ok _ -> Alcotest.fail "checksum did not catch the flipped bases"
      | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e));
      let rep = ok_or_fail "scrub" (Store.scrub store) in
      Alcotest.(check int) "one corrupt shard found" 1 rep.Store.shards_corrupt;
      Alcotest.(check int) "object repaired" 1 rep.Store.objects_repaired;
      Alcotest.(check int) "nothing degraded" 0 rep.Store.objects_degraded;
      Alcotest.(check int) "nothing lost" 0 rep.Store.objects_lost;
      let a' = ok_or_fail "get a after scrub" (Store.get ~use_cache:false store ~key:"a") in
      Alcotest.(check bytes) "repair is bit-identical" a a';
      (* The damage is gone for good: a second scrub finds nothing, and
         a fresh handle reads the repaired object. *)
      let rep2 = ok_or_fail "second scrub" (Store.scrub store) in
      Alcotest.(check int) "second scrub finds nothing" 0 rep2.Store.shards_corrupt;
      let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
      Alcotest.(check bytes) "repair survives reopen" a
        (ok_or_fail "get a reopened" (Store.get store ~key:"a"));
      Alcotest.(check bytes) "bystander intact" b
        (ok_or_fail "get b reopened" (Store.get store ~key:"b")))
    [ 1; 2 ]

let test_scrub_classifies_lost_and_gates_reads () =
  (* Replace the pool with a useless one: nothing is selectable, so the
     object is Lost, normal reads fail typed, and compact drops it. *)
  with_store_dir @@ fun dir ->
  let config = { test_config with Store.shard_target_strands = 20 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:31 ()) in
  let data = random_file (Dna.Rng.create 77) 220 in
  ok_or_fail "put" (Store.put store ~key:"doomed" data);
  ok_or_fail "put other" (Store.put store ~key:"other" (random_file (Dna.Rng.create 78) 90));
  write_whole (shard_path_of store "doomed") ">m_0\nACGTACGTACGT\n";
  let rep = ok_or_fail "scrub" (Store.scrub store) in
  Alcotest.(check int) "object lost" 1 rep.Store.objects_lost;
  Alcotest.(check bool) "shard quarantined or dropped" true
    (rep.Store.shards_quarantined + rep.Store.shards_dropped >= 1);
  Alcotest.(check (option string)) "health says lost" (Some "lost")
    (Option.map Store.health_name (Store.object_health store ~key:"doomed"));
  (match Store.get ~use_cache:false store ~key:"doomed" with
  | Error (Store.Object_lost "doomed") -> ()
  | Ok _ -> Alcotest.fail "read of a lost object succeeded"
  | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e));
  (match Store.get_partial store ~key:"doomed" with
  | Error (Store.Object_lost _) -> ()
  | Ok _ -> Alcotest.fail "partial read of a lost object succeeded"
  | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e));
  let c = ok_or_fail "compact" (Store.compact store) in
  Alcotest.(check int) "compact drops the lost object" 1 c.Store.objects_dropped;
  Alcotest.(check bool) "lost key gone after compact" false (Store.mem store "doomed");
  Alcotest.(check bool) "healthy key survives" true (Store.mem store "other")

let small_params = { Codec.Params.payload_nt = 60; rs_data = 6; rs_parity = 3; scramble_seed = 7 }

let test_scrub_marks_degraded_and_partial_reads () =
  (* Drop the tail molecules of a multi-unit object: the leading units
     survive, so scrub must classify Degraded (not Lost), gate normal
     reads with the recovered fraction, and get_partial must return the
     surviving prefix bit-identically. *)
  with_store_dir @@ fun dir ->
  let config = { test_config with Store.shard_target_strands = 200; error_rate = 0.005 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:37 ()) in
  let data = random_file (Dna.Rng.create 88) 300 in
  ok_or_fail "put" (Store.put ~params:small_params store ~key:"frayed" data);
  let path = shard_path_of store "frayed" in
  let records, errors = Dna.Fasta.parse_string (read_whole path) in
  Alcotest.(check int) "shard parses before damage" 0 (List.length errors);
  let keep = List.filteri (fun i _ -> i < List.length records - 12) records in
  write_whole path (Dna.Fasta.to_string keep);
  let rep = ok_or_fail "scrub" (Store.scrub store) in
  Alcotest.(check int) "object degraded" 1 rep.Store.objects_degraded;
  Alcotest.(check int) "nothing lost" 0 rep.Store.objects_lost;
  Alcotest.(check int) "damaged shard quarantined" 1 rep.Store.shards_quarantined;
  (match Store.get ~use_cache:false store ~key:"frayed" with
  | Error (Store.Object_degraded { key = "frayed"; recovered_fraction }) ->
      Alcotest.(check bool) "fraction strictly partial" true
        (recovered_fraction > 0.0 && recovered_fraction < 1.0)
  | Ok _ -> Alcotest.fail "normal read of a degraded object succeeded"
  | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e));
  let p = ok_or_fail "get_partial" (Store.get_partial store ~key:"frayed") in
  Alcotest.(check int) "partial read has original length" 300 (Bytes.length p.Store.bytes);
  Alcotest.(check bool) "not exact" false p.Store.exact;
  Alcotest.(check bool) "some ranges recovered" true (p.Store.recovered_ranges <> []);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bytes)
        (Printf.sprintf "recovered range [%d,%d) is bit-identical" a b)
        (Bytes.sub data a (b - a))
        (Bytes.sub p.Store.bytes a (b - a)))
    p.Store.recovered_ranges;
  (* The verdict is durable: a fresh handle sees the same health. *)
  let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  Alcotest.(check (option string)) "degraded after reopen" (Some "degraded")
    (Option.map Store.health_name (Store.object_health store ~key:"frayed"))

(* Golden pin of the salvage path: one shard holding three objects is
   cut in half, so the first object survives whole, the second in part
   and the third not at all. Each is read back degraded, the store is
   scrubbed, and each is read again, at seeds 1-3.
   Every recovered fraction, range, exactness flag, byte CRC-32, scrub
   counter and sequencing-pass count is pinned as one line per step, so
   a refactor of the read side must reproduce it byte for byte. ROADMAP
   item 2 (clustering sized to its input) is expected to re-pin these
   values when it changes clustering. *)
let salvage_transcript seed =
  let keys = [ ("project", 300); ("license", 1600); ("tail", 200) ] in
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed ()) in
  let r = Dna.Rng.create (7_000 + seed) in
  List.iter
    (fun (key, n) -> ok_or_fail ("put " ^ key) (Store.put store ~key (random_file r n)))
    keys;
  let path = shard_path_of store "project" in
  let content = read_whole path in
  write_whole path (String.sub content 0 (String.length content / 2));
  let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  let lines = ref [] in
  let note fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let partial step key =
    match Store.get_partial ~use_cache:false store ~key with
    | Ok p ->
        note "%s %s: fraction %.6f ranges [%s] exact %b crc %08x passes %d" step key
          p.Store.recovered_fraction
          (String.concat ";"
             (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) p.Store.recovered_ranges))
          p.Store.exact
          (Store.Io.crc32 (Bytes.to_string p.Store.bytes))
          (Store.sequencing_passes store)
    | Error e ->
        note "%s %s: error %s passes %d" step key (Store.error_message e)
          (Store.sequencing_passes store)
  in
  List.iter (fun (key, _) -> partial "before" key) keys;
  let rep = ok_or_fail "scrub" (Store.scrub store) in
  note
    "scrub: checked %d corrupt %d quarantined %d dropped %d objects %d repaired %d degraded %d \
     lost %d backfilled %d passes %d"
    rep.Store.shards_checked rep.Store.shards_corrupt rep.Store.shards_quarantined
    rep.Store.shards_dropped rep.Store.objects_checked rep.Store.objects_repaired
    rep.Store.objects_degraded rep.Store.objects_lost rep.Store.checksums_backfilled
    (Store.sequencing_passes store);
  List.iter (fun (key, _) -> partial "after" key) keys;
  List.rev !lines

let test_salvage_golden () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "salvage transcript, seed %d" seed)
        expected (salvage_transcript seed))
    [
      ( 1,
        [
          "before project: fraction 1.000000 ranges [0-300] exact true crc \
           8892ec8e passes 1";
          "before license: fraction 0.318750 ranges [0-510] exact false crc \
           8725135f passes 2";
          "before tail: error Store: object tail is lost passes 2";
          "scrub: checked 1 corrupt 1 quarantined 1 dropped 0 objects 3 repaired \
           1 degraded 1 lost 1 backfilled 0 passes 4";
          "after project: fraction 1.000000 ranges [0-300] exact true crc \
           8892ec8e passes 5";
          "after license: fraction 0.318750 ranges [0-510] exact false crc \
           8725135f passes 6";
          "after tail: error Store: object tail is lost passes 6";
        ] );
      ( 2,
        [
          "before project: fraction 1.000000 ranges [0-300] exact true crc \
           856fef40 passes 1";
          "before license: fraction 0.318750 ranges [0-510] exact false crc \
           37b1803a passes 2";
          "before tail: error Store: object tail is lost passes 2";
          "scrub: checked 1 corrupt 1 quarantined 1 dropped 0 objects 3 repaired \
           1 degraded 1 lost 1 backfilled 0 passes 4";
          "after project: fraction 1.000000 ranges [0-300] exact true crc \
           856fef40 passes 5";
          "after license: fraction 0.318750 ranges [0-510] exact false crc \
           37b1803a passes 6";
          "after tail: error Store: object tail is lost passes 6";
        ] );
      ( 3,
        [
          "before project: fraction 1.000000 ranges [0-300] exact true crc \
           fc24b65f passes 1";
          "before license: fraction 0.318750 ranges [0-510] exact false crc \
           c2c1da85 passes 2";
          "before tail: error Store: object tail is lost passes 2";
          "scrub: checked 1 corrupt 1 quarantined 1 dropped 0 objects 3 repaired \
           1 degraded 1 lost 1 backfilled 0 passes 4";
          "after project: fraction 1.000000 ranges [0-300] exact true crc \
           fc24b65f passes 5";
          "after license: fraction 0.318750 ranges [0-510] exact false crc \
           c2c1da85 passes 6";
          "after tail: error Store: object tail is lost passes 6";
        ] );
    ]

let test_simulated_enospc_is_typed_and_recoverable () =
  (* The second data write (the first put's shard file) hits ENOSPC:
     the put must fail with the typed Io_error, ack nothing, release
     the primer pair, and leave the store fully usable. *)
  with_store_dir @@ fun dir ->
  let io = Store.Io.faulty { (Store.Io.no_faults ~seed:5) with Store.Io.enospc_at = Some 2 } in
  let store = ok_or_fail "init" (Store.init ~config:test_config ~io ~dir ~seed:41 ()) in
  let data = random_file (Dna.Rng.create 13) 180 in
  (match Store.put store ~key:"k" data with
  | Error (Store.Io_error _) -> ()
  | Ok () -> Alcotest.fail "put succeeded through ENOSPC"
  | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e));
  Alcotest.(check bool) "nothing acked" false (Store.mem store "k");
  Alcotest.(check int) "no primer pair leaked" 0 (Store.stats store).Store.live_primer_pairs;
  (* The fault was transient; the same key must now go through. *)
  ok_or_fail "retry put" (Store.put store ~key:"k" data);
  Alcotest.(check bytes) "retried put reads back" data
    (ok_or_fail "get" (Store.get ~use_cache:false store ~key:"k"));
  let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  Alcotest.(check bytes) "and survives reopen" data (ok_or_fail "get" (Store.get store ~key:"k"))

(* Drop the manifest lines that hold any of [fields] and fix the
   dangling commas. *)
let strip_fields fields content =
  let lines = String.split_on_char '\n' content in
  let keep line =
    let t = String.trim line in
    not
      (List.exists
         (fun f ->
           let p = Printf.sprintf "%S" f in
           String.length t >= String.length p && String.sub t 0 (String.length p) = p)
         fields)
  in
  let pruned = String.concat "\n" (List.filter keep lines) in
  (* Remove commas left trailing before a closing bracket. *)
  let buf = Buffer.create (String.length pruned) in
  let n = String.length pruned in
  let i = ref 0 in
  while !i < n do
    let c = pruned.[!i] in
    if c = ',' then begin
      let j = ref (!i + 1) in
      while !j < n && (pruned.[!j] = ' ' || pruned.[!j] = '\n') do
        incr j
      done;
      if !j < n && (pruned.[!j] = '}' || pruned.[!j] = ']') then () else Buffer.add_char buf c
    end
    else Buffer.add_char buf c;
    incr i
  done;
  Buffer.contents buf

(* Rewrite a current manifest as format [version]: version 3 lacks the
   channel, version 2 the journal (which the fixtures fold first) and
   version 1 also the checksum/quarantined/health fields. *)
let as_version version content =
  let dropped =
    if version = 1 then [ "channel"; "checksum"; "quarantined"; "health" ] else [ "channel" ]
  in
  replace_substring
    ~needle:(Printf.sprintf "\"format_version\": %d" Store.format_version)
    ~into:(Printf.sprintf "\"format_version\": %d" version)
    (strip_fields dropped content)

let test_v1_manifest_opens_and_scrub_backfills () =
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:43 ()) in
  let data = random_file (Dna.Rng.create 14) 160 in
  ok_or_fail "put" (Store.put store ~key:"legacy" data);
  (* The put went to the journal; fold it into the checkpoint so the
     object is in the document the fixture rewrites as version 1. *)
  ok_or_fail "checkpoint" (Store.checkpoint store);
  patch_manifest dir (as_version 1);
  let store = ok_or_fail "open v1 manifest" (Store.open_store ~dir ()) in
  Alcotest.(check bytes) "v1 object reads back" data
    (ok_or_fail "get" (Store.get ~use_cache:false store ~key:"legacy"));
  let rep = ok_or_fail "scrub" (Store.scrub store) in
  Alcotest.(check bool) "scrub backfills the checksums" true (rep.Store.checksums_backfilled >= 1);
  Alcotest.(check int) "no false corruption" 0 rep.Store.shards_corrupt;
  (* The upgraded manifest now verifies like any version-2 store. *)
  let store = ok_or_fail "reopen upgraded" (Store.open_store ~dir ()) in
  let rep2 = ok_or_fail "second scrub" (Store.scrub store) in
  Alcotest.(check int) "nothing left to backfill" 0 rep2.Store.checksums_backfilled;
  Alcotest.(check bytes) "still reads back" data
    (ok_or_fail "get" (Store.get store ~key:"legacy"))

let test_compact_counts_unlink_failures () =
  (* Delete a retired shard file out from under compact: the missing
     unlink must be counted, not silently swallowed, and compaction
     must still succeed. *)
  with_store_dir @@ fun dir ->
  let config = { test_config with Store.shard_target_strands = 20 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:47 ()) in
  ok_or_fail "put a" (Store.put store ~key:"a" (random_file (Dna.Rng.create 15) 250));
  ok_or_fail "put b" (Store.put store ~key:"b" (random_file (Dna.Rng.create 16) 250));
  Alcotest.(check bool) "spread over several shards" true
    ((Store.stats store).Store.n_shards > 1);
  let path = shard_path_of store "a" in
  ok_or_fail "delete a" (Store.delete store ~key:"a");
  Sys.remove path;
  let c = ok_or_fail "compact" (Store.compact store) in
  Alcotest.(check bool) "missing unlink counted" true (c.Store.unlink_failures >= 1);
  Alcotest.(check bytes) "survivor intact" (random_file (Dna.Rng.create 16) 250)
    (ok_or_fail "get b" (Store.get ~use_cache:false store ~key:"b"))

(* ---------- the shard append path ---------- *)

(* Every shard file must be exactly the canonical FASTA of its recorded
   strands, numbered m_0, m_1, ...: the bytes a whole-shard rewrite
   would write, with nothing past them. *)
let check_canonical_shards label store =
  List.iter
    (fun (path, n) ->
      let content = read_whole path in
      let records, errors = Dna.Fasta.parse_string content in
      let name = Printf.sprintf "%s: %s" label (Filename.basename path) in
      Alcotest.(check int) (name ^ " parses") 0 (List.length errors);
      Alcotest.(check int) (name ^ " holds its recorded strands") n (List.length records);
      Alcotest.(check string) (name ^ " is canonical") content
        (Dna.Fasta.to_string
           (List.mapi (fun i r -> { r with Dna.Fasta.id = Printf.sprintf "m_%d" i }) records)))
    (Store.shard_strands store)

let test_appends_write_canonical_shards () =
  (* Puts and overwrites across a shard rollover: each shard file is the
     canonical serialization of its recorded strands, scrub verifies
     every recorded checksum, and a fresh handle reads every object. *)
  with_store_dir @@ fun dir ->
  let config = { test_config with Store.shard_target_strands = 60 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:63 ()) in
  let r = Dna.Rng.create 63 in
  let live = Hashtbl.create 8 in
  let put key n =
    let data = random_file r n in
    ok_or_fail ("put " ^ key) (Store.put store ~key data);
    Hashtbl.replace live key data
  in
  let overwrite key n =
    let data = random_file r n in
    ok_or_fail ("overwrite " ^ key) (Store.overwrite store ~key data);
    Hashtbl.replace live key data
  in
  put "a" 120;
  put "b" 90;
  overwrite "a" 100;
  put "c" 150;
  overwrite "b" 80;
  put "d" 60;
  Alcotest.(check bool) "the puts rolled over to a new shard" true
    ((Store.stats store).Store.n_shards > 1);
  check_canonical_shards "live" store;
  let rep = ok_or_fail "scrub" (Store.scrub store) in
  Alcotest.(check int) "every appended checksum verifies" 0 rep.Store.shards_corrupt;
  let reopened = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  Hashtbl.iter
    (fun key data ->
      Alcotest.(check bytes) ("reopened " ^ key) data
        (ok_or_fail ("get " ^ key) (Store.get reopened ~key)))
    live

(* Init, then put "a" on a fault-counting backend: the number of fault
   points before the next put. *)
let points_after_first_put () =
  with_store_dir @@ fun dir ->
  let io = Store.Io.faulty (Store.Io.no_faults ~seed:1) in
  let store = ok_or_fail "init" (Store.init ~config:test_config ~io ~dir ~seed:67 ()) in
  ok_or_fail "put a" (Store.put store ~key:"a" (random_file (Dna.Rng.create 1) 150));
  Store.Io.points_hit io

let test_crash_mid_shard_append () =
  (* A kill inside the second put's shard append (torn molecules) or
     just after it (whole ones, no journal record): the reopened store
     lacks the object, its shard loads and scrubs clean, and the next
     put cuts the debris so the file is canonical again. *)
  let base = points_after_first_put () in
  List.iter
    (fun (label, offset) ->
      with_store_dir @@ fun dir ->
      let plan = { (Store.Io.no_faults ~seed:1) with Store.Io.crash_at = Some (base + offset) } in
      let io = Store.Io.faulty plan in
      let store = ok_or_fail "init" (Store.init ~config:test_config ~io ~dir ~seed:67 ()) in
      let a = random_file (Dna.Rng.create 1) 150 in
      ok_or_fail "put a" (Store.put store ~key:"a" a);
      (match Store.put store ~key:"b" (random_file (Dna.Rng.create 2) 150) with
      | exception Store.Io.Crashed { point; _ } ->
          Alcotest.(check bool) (label ^ ": the kill lands in the shard append") true
            (String.starts_with ~prefix:"append" point
            && Filename.check_suffix point ".fasta")
      | _ -> Alcotest.fail (label ^ ": the put survived its kill"));
      let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
      Alcotest.(check bool) (label ^ ": unacked put absent") false (Store.mem store "b");
      if offset = 3 then
        Alcotest.(check bool) (label ^ ": whole orphan records past the prefix") true
          (List.exists
             (fun (path, n) -> List.length (fst (Dna.Fasta.parse_string (read_whole path))) > n)
             (Store.shard_strands store));
      Alcotest.(check bytes) (label ^ ": acked put intact") a
        (ok_or_fail "get a" (Store.get ~use_cache:false store ~key:"a"));
      let rep = ok_or_fail "scrub" (Store.scrub store) in
      Alcotest.(check int) (label ^ ": scrub finds no damage") 0 rep.Store.shards_corrupt;
      let c = random_file (Dna.Rng.create 3) 150 in
      ok_or_fail "put c" (Store.put store ~key:"c" c);
      check_canonical_shards label store;
      let store = ok_or_fail "reopen again" (Store.open_store ~dir ()) in
      Alcotest.(check bytes) (label ^ ": later put reads back") c
        (ok_or_fail "get c" (Store.get store ~key:"c")))
    [ ("torn append", 2); ("whole append", 3) ]

let test_enospc_mid_shard_append () =
  (* Data writes: the init checkpoint, put a's shard append and journal
     record, then put b's shard append, which runs out of space after a
     torn prefix. The put fails typed with its pair released; the next
     put cuts the torn bytes and lands. *)
  with_store_dir @@ fun dir ->
  let io = Store.Io.faulty { (Store.Io.no_faults ~seed:9) with Store.Io.enospc_at = Some 4 } in
  let store = ok_or_fail "init" (Store.init ~config:test_config ~io ~dir ~seed:71 ()) in
  let r = Dna.Rng.create 71 in
  let a = random_file r 150 and b = random_file r 150 in
  ok_or_fail "put a" (Store.put store ~key:"a" a);
  (match Store.put store ~key:"b" b with
  | Error (Store.Io_error _) -> ()
  | Ok () -> Alcotest.fail "put succeeded through ENOSPC"
  | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e));
  Alcotest.(check bool) "nothing acked" false (Store.mem store "b");
  Alcotest.(check int) "pair released" 1 (Store.stats store).Store.live_primer_pairs;
  ok_or_fail "retry put" (Store.put store ~key:"b" b);
  check_canonical_shards "after retry" store;
  let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  List.iter
    (fun (key, data) ->
      Alcotest.(check bytes) ("reopened " ^ key) data (ok_or_fail "get" (Store.get store ~key)))
    [ ("a", a); ("b", b) ]

let test_put_only_handle_reads_from_disk () =
  (* The write path keeps no shard pools: a handle that has only put
     loads each shard from disk on its first get. *)
  with_store_dir @@ fun dir ->
  let config = { test_config with Store.shard_target_strands = 60 } in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed:73 ()) in
  let r = Dna.Rng.create 73 in
  let objects = List.init 5 (fun i -> (Printf.sprintf "k%d" i, random_file r (80 + (30 * i)))) in
  List.iter (fun (key, data) -> ok_or_fail ("put " ^ key) (Store.put store ~key data)) objects;
  Alcotest.(check bool) "several shards" true ((Store.stats store).Store.n_shards > 1);
  List.iter
    (fun (key, data) ->
      Alcotest.(check bytes) ("get " ^ key) data
        (ok_or_fail ("get " ^ key) (Store.get ~use_cache:false store ~key)))
    objects;
  (* A put into a shard a read has loaded keeps that pool in step. *)
  let late = random_file r 70 in
  ok_or_fail "put late" (Store.put store ~key:"late" late);
  Alcotest.(check bytes) "get after a put into a loaded shard" late
    (ok_or_fail "get late" (Store.get ~use_cache:false store ~key:"late"))

let test_get_refuses_checksum_mismatch () =
  (* E7's store at parity 6 instead of 8, seed 118: the image decodes
     to wrong bytes on both passes, the base-30 first pass and the
     depth-33 deep one. A plain get must refuse them (and cache
     nothing), while the degraded read returns them as inexact. The
     degraded read serves its own get's refused deep pass: one cold
     access of two passes (first, deep), where a salvage pass after it
     made three, with the partial read the salvage pass gave (pinned
     below: the bytes' CRC-32, fraction and ranges). *)
  let params = { E7.params with Codec.Params.rs_parity = 6 } in
  E7.with_store ~params 118 (fun ~dir:_ store ->
      let refused () =
        match Store.get store ~key:"image.raw" with
        | Error (Store.Decode_failed { reason; _ }) ->
            Alcotest.(check string) "reason" "checksum mismatch" reason
        | Ok _ -> Alcotest.fail "get acked bytes that fail the checksum"
        | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e)
      in
      refused ();
      refused ();
      let s = Store.stats store in
      Alcotest.(check int) "nothing cached: no hit" 0 s.Store.cache_hits;
      Alcotest.(check int) "both refused gets deepened" 2 s.Store.deepened_accesses;
      let passes = Store.sequencing_passes store in
      let p = ok_or_fail "get_partial" (Store.get_partial store ~key:"image.raw") in
      Alcotest.(check bool) "partial read is not exact" false p.Store.exact;
      Alcotest.(check int) "partial read keeps the length" E7.n (Bytes.length p.Store.bytes);
      Alcotest.(check string) "partial bytes' crc32" "424f07a4"
        (Printf.sprintf "%08x" (Store.Io.crc32 (Bytes.to_string p.Store.bytes)));
      Alcotest.(check (float 0.)) "partial fraction" 0.255 p.Store.recovered_fraction;
      Alcotest.(check (list (pair int int))) "partial ranges" [ (0, 510) ] p.Store.recovered_ranges;
      let s' = Store.stats store in
      Alcotest.(check int) "one more cold access" 1 (s'.Store.cold_accesses - s.Store.cold_accesses);
      Alcotest.(check int) "and it deepened: two passes" 1
        (s'.Store.deepened_accesses - s.Store.deepened_accesses);
      Alcotest.(check int) "one shard pass" 1 (Store.sequencing_passes store - passes))

(* ---------- the two-depth get ---------- *)

(* [f dir store objects] on an iid 6% store at base coverage 5, where
   the first pass fails for some 256 B objects and the shard depth
   decodes them all; a small shard target spreads the eight objects
   over several shards. *)
let shallow_store seed f =
  with_store_dir @@ fun dir ->
  let config =
    { Store.default_config with Store.coverage = 5; shard_target_strands = 60 }
  in
  let store = ok_or_fail "init" (Store.init ~config ~dir ~seed ()) in
  let r = Dna.Rng.create seed in
  let objects = List.init 8 (fun i -> (Printf.sprintf "k%d" i, random_file r 256)) in
  List.iter (fun (key, data) -> ok_or_fail ("put " ^ key) (Store.put store ~key data)) objects;
  f dir store objects

(* The answer of one solo get and whether it deepened. *)
let solo_get store key =
  let before = (Store.stats store).Store.deepened_accesses in
  let r = Store.get ~use_cache:false store ~key in
  (r, (Store.stats store).Store.deepened_accesses - before)

let test_shallow_gets_deepen_exactly () =
  List.iter
    (fun seed ->
      shallow_store seed @@ fun _ store objects ->
      List.iter
        (fun (key, data) ->
          Alcotest.(check bytes) (Printf.sprintf "seed %d: get %s" seed key) data
            (ok_or_fail ("get " ^ key) (fst (solo_get store key))))
        objects;
      let s = Store.stats store in
      Alcotest.(check int) "one cold access per get" (List.length objects) s.Store.cold_accesses;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some first passes refused (%d deepened)" seed
           s.Store.deepened_accesses)
        true
        (s.Store.deepened_accesses > 0 && s.Store.deepened_accesses < List.length objects))
    [ 1; 2 ]

let test_two_depth_get_replays () =
  (* One key per shard, so a batch of them keeps each key's shard pass
     (and so its depth) what a solo get of it has. *)
  shallow_store 3 @@ fun _ store objects ->
  let seen = Hashtbl.create 4 in
  let keys =
    List.filter_map
      (fun (key, _) ->
        let shard = Option.get (Store.object_shard store ~key) in
        if Hashtbl.mem seen shard then None
        else begin
          Hashtbl.add seen shard ();
          Some key
        end)
      objects
  in
  Alcotest.(check bool) "keys on several shards" true (List.length keys > 1);
  let solo = List.map (fun key -> (key, solo_get store key)) keys in
  let deepened = List.fold_left (fun a (_, (_, d)) -> a + d) 0 solo in
  Alcotest.(check bool)
    (Printf.sprintf "some solo gets deepened (%d)" deepened)
    true (deepened > 0);
  List.iter
    (fun domains ->
      let before = (Store.stats store).Store.deepened_accesses in
      let batch = Store.get_batch ~domains ~use_cache:false store keys in
      List.iter2
        (fun (key, (r, _)) (key', r') ->
          Alcotest.(check string) "input order" key key';
          Alcotest.(check bytes)
            (Printf.sprintf "%s at --domains %d" key domains)
            (ok_or_fail "solo" r) (ok_or_fail "batch" r');
          Alcotest.(check bytes) (key ^ " exact") (List.assoc key objects) (ok_or_fail "batch" r'))
        solo batch;
      Alcotest.(check int)
        (Printf.sprintf "deepened count at --domains %d" domains)
        deepened
        ((Store.stats store).Store.deepened_accesses - before))
    [ 1; 2 ]

let test_unmatched_checksum_refused_on_both_passes () =
  (* A recorded checksum that no decode can match, on an object whose
     first pass decodes exactly: that pass must still not be acked. *)
  shallow_store 1 @@ fun dir store objects ->
  let key, data =
    match List.find_opt (fun (key, _) -> snd (solo_get store key) = 0) objects with
    | Some o -> o
    | None -> Alcotest.fail "every get deepened in the fixture"
  in
  ok_or_fail "checkpoint" (Store.checkpoint store);
  let crc = Store.Io.crc32 (Bytes.to_string data) in
  patch_manifest dir
    (replace_substring
       ~needle:(Printf.sprintf "\"checksum\": %d" crc)
       ~into:(Printf.sprintf "\"checksum\": %d" (crc lxor 1)));
  let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  (match Store.get store ~key with
  | Error (Store.Decode_failed { reason; _ }) ->
      Alcotest.(check string) "reason" "checksum mismatch" reason
  | Ok _ -> Alcotest.fail "get acked bytes that fail the recorded checksum"
  | Error e -> Alcotest.fail ("wrong error: " ^ Store.error_message e));
  let s = Store.stats store in
  Alcotest.(check int) "the get deepened" 1 s.Store.deepened_accesses;
  Alcotest.(check int) "one cold access" 1 s.Store.cold_accesses

let test_unchecksummed_get_reads_deep () =
  (* A version-1 store records no object checksum, so its gets cannot
     check a first pass and take only the deep one. The fixture's key
     is one whose first pass is refused when the checksum is there. *)
  shallow_store 1 @@ fun dir store objects ->
  let key, data =
    match List.find_opt (fun (key, _) -> snd (solo_get store key) = 1) objects with
    | Some o -> o
    | None -> Alcotest.fail "no get deepened in the fixture"
  in
  ok_or_fail "checkpoint" (Store.checkpoint store);
  patch_manifest dir (as_version 1);
  let store = ok_or_fail "open v1 manifest" (Store.open_store ~dir ()) in
  Alcotest.(check bytes) "deep pass reads it back" data (ok_or_fail "get" (Store.get store ~key));
  let s = Store.stats store in
  Alcotest.(check int) "one cold access" 1 s.Store.cold_accesses;
  Alcotest.(check int) "no first pass to refuse" 0 s.Store.deepened_accesses

let test_crc32_vectors () =
  Alcotest.(check int) "check value" 0xCBF43926 (Store.Io.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Store.Io.crc32 "");
  let s = "The quick brown fox jumps over the lazy dog" in
  Alcotest.(check int) "pangram" 0x414FA339 (Store.Io.crc32 s);
  for cut = 0 to String.length s do
    Alcotest.(check int)
      (Printf.sprintf "update at %d" cut)
      (Store.Io.crc32 s)
      (Store.Io.crc32_update
         (Store.Io.crc32 (String.sub s 0 cut))
         (String.sub s cut (String.length s - cut)))
  done

(* ---------- the manifest journal ---------- *)

let journal_path dir = Filename.concat dir "MANIFEST.journal"

(* [f dir store before] on a store whose journal holds three records
   (put a, put b, put c), with [before] its stats before the last one. *)
let journaled_store seed f =
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed ()) in
  let r = Dna.Rng.create seed in
  ok_or_fail "put a" (Store.put store ~key:"a" (random_file r 60));
  ok_or_fail "put b" (Store.put store ~key:"b" (random_file r 60));
  let before_last = Store.stats store in
  ok_or_fail "put c" (Store.put store ~key:"c" (random_file r 60));
  Alcotest.(check int) "three journaled writes" 3 (Store.stats store).Store.journal_records;
  f dir store before_last

let test_journal_torn_tail_every_offset () =
  (* A crash mid-append leaves any prefix of the last record. Reopen
     must drop exactly that record, cut it away, and take later appends
     after the whole records. *)
  journaled_store 51 @@ fun dir _ before ->
  let journal = read_whole (journal_path dir) in
  let start = before.Store.journal_bytes in
  for cut = start to String.length journal - 1 do
    write_whole (journal_path dir) (String.sub journal 0 cut);
    let store = ok_or_fail "open torn" (Store.open_store ~dir ()) in
    let label = Printf.sprintf "cut at %d" cut in
    Alcotest.(check (list string))
      (label ^ ": last record dropped") [ "a"; "b" ] (Store.keys store);
    Alcotest.(check int) (label ^ ": generation") before.Store.generation (Store.generation store);
    Alcotest.(check int) (label ^ ": tail cut away") start (file_size (journal_path dir));
    ok_or_fail "later append" (Store.delete store ~key:"a");
    let again = ok_or_fail "reopen" (Store.open_store ~dir ()) in
    Alcotest.(check (list string)) (label ^ ": later append replays") [ "b" ] (Store.keys again)
  done

let test_journal_flipped_byte_is_corrupt () =
  (* Damage to a record with more data after it is not a torn tail:
     every single-byte flip in the first record, header or payload,
     must refuse the store. *)
  journaled_store 53 @@ fun dir _ _ ->
  let journal = read_whole (journal_path dir) in
  let first_len = 12 + Int32.to_int (String.get_int32_be journal 0) in
  for i = 0 to first_len - 1 do
    let b = Bytes.of_string journal in
    Bytes.set b i (Char.chr (Char.code journal.[i] lxor 0x20));
    write_whole (journal_path dir) (Bytes.to_string b);
    match Store.open_store ~dir () with
    | Error (Store.Corrupt _) -> ()
    | Ok _ -> Alcotest.failf "opened a journal with byte %d flipped" i
    | Error e -> Alcotest.failf "byte %d: unexpected error: %s" i (Store.error_message e)
  done

let test_journal_stale_records_skipped () =
  (* A crash between a checkpoint's rename and the journal's truncation
     leaves records the checkpoint already holds. Replay must skip them:
     re-applied after a compaction, they would point objects back at
     their old shards. *)
  journaled_store 55 @@ fun dir store _ ->
  let stale = read_whole (journal_path dir) in
  ignore (ok_or_fail "compact" (Store.compact store));
  write_whole (journal_path dir) stale;
  let reopened = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  Alcotest.(check string) "checkpoint wins over stale records" (Store.manifest_json store)
    (Store.manifest_json reopened);
  (* Later appends follow the stale records and still replay. *)
  ok_or_fail "delete after" (Store.delete reopened ~key:"b");
  let again = ok_or_fail "reopen again" (Store.open_store ~dir ()) in
  Alcotest.(check string) "appends after stale records replay" (Store.manifest_json reopened)
    (Store.manifest_json again)

let test_journal_fuzz_never_raises () =
  (* Seeded mutations of a real journal — truncations, byte flips,
     splices of header-shaped bytes — must open or fail typed, never
     raise. *)
  journaled_store 57 @@ fun dir _ _ ->
  let journal = read_whole (journal_path dir) in
  let n = String.length journal in
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create (4_242 + seed) in
      let splice = [| '\x00'; '\xff'; '{'; '}'; '"'; '\n'; '\x7f'; '\x0c' |] in
      for _ = 1 to 300 do
        let b = Bytes.of_string journal in
        let mutant =
          match Dna.Rng.int rng 4 with
          | 0 -> Bytes.sub_string b 0 (Dna.Rng.int rng n)
          | 1 ->
              Bytes.set b (Dna.Rng.int rng n) (Char.chr (Dna.Rng.int rng 256));
              Bytes.to_string b
          | 2 ->
              Bytes.set b (Dna.Rng.int rng n) splice.(Dna.Rng.int rng (Array.length splice));
              Bytes.to_string b
          | _ ->
              (* A record duplicated or dropped mid-journal. *)
              let cut = Dna.Rng.int rng n in
              String.sub journal 0 cut ^ String.sub journal (Dna.Rng.int rng (n - (n / 4))) (n / 4)
        in
        write_whole (journal_path dir) mutant;
        match Store.open_store ~dir () with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "open_store raised %s on a mutated journal" (Printexc.to_string e)
      done)
    [ 1; 2 ]

let test_journal_reopen_equals_live () =
  (* After every operation of a seeded mix of puts, overwrites, deletes,
     scrubs and compactions — enough writes to fold the journal more
     than once — a fresh open sees the live handle's manifest,
     generation included. *)
  List.iter
    (fun seed ->
      let r = Dna.Rng.create (6_100 + seed) in
      with_store_dir @@ fun dir ->
      let config = { test_config with Store.shard_target_strands = 60 } in
      let store = ok_or_fail "init" (Store.init ~config ~dir ~seed ()) in
      let live = ref [] and next = ref 0 and folds = ref 0 in
      let pick () = List.nth !live (Dna.Rng.int r (List.length !live)) in
      for step = 1 to 40 do
        let before = (Store.stats store).Store.journal_records in
        let op =
          match Dna.Rng.int r 10 with
          | _ when !live = [] || List.length !live < 3 -> `Put
          | 0 when step mod 2 = 0 -> `Compact
          | 1 -> `Scrub
          | 2 | 3 -> `Overwrite
          | 4 when List.length !live > 3 -> `Delete
          | _ -> if List.length !live < 8 then `Put else `Overwrite
        in
        (match op with
        | `Put ->
            incr next;
            let key = Printf.sprintf "k%d" !next in
            ok_or_fail "put" (Store.put store ~key (random_file r (20 + Dna.Rng.int r 60)));
            live := key :: !live
        | `Overwrite ->
            ok_or_fail "overwrite" (Store.overwrite store ~key:(pick ()) (random_file r 40))
        | `Delete ->
            let key = pick () in
            ok_or_fail "delete" (Store.delete store ~key);
            live := List.filter (( <> ) key) !live
        | `Scrub -> ignore (ok_or_fail "scrub" (Store.scrub store))
        | `Compact -> ignore (ok_or_fail "compact" (Store.compact store)));
        (match op with
        | `Put | `Overwrite | `Delete when (Store.stats store).Store.journal_records <= before ->
            incr folds
        | _ -> ());
        let reopened = ok_or_fail "reopen" (Store.open_store ~dir ()) in
        Alcotest.(check int)
          (Printf.sprintf "seed %d step %d: generation" seed step)
          (Store.generation store) (Store.generation reopened);
        Alcotest.(check string)
          (Printf.sprintf "seed %d step %d: manifest" seed step)
          (Store.manifest_json store) (Store.manifest_json reopened)
      done;
      Alcotest.(check bool) "the mix folded the journal" true (!folds >= 1))
    [ 1; 2 ]

let test_old_formats_fold_on_first_write () =
  (* Version-1 to -3 stores open as iid stores and read; their first
     write folds a current-version checkpoint that records the channel
     (an older build then refuses the store rather than miss its
     journal or read a wetlab store as iid), and later writes append. *)
  let stamp = Printf.sprintf "\"format_version\": %d" Store.format_version in
  List.iter
    (fun version ->
      let label = Printf.sprintf "v%d" version in
      with_store_dir @@ fun dir ->
      let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:59 ()) in
      let r = Dna.Rng.create 59 in
      let old = random_file r 120 and d1 = random_file r 90 and d2 = random_file r 70 in
      ok_or_fail "put" (Store.put store ~key:"old" old);
      ok_or_fail "checkpoint" (Store.checkpoint store);
      patch_manifest dir (as_version version);
      let store = ok_or_fail ("open " ^ label) (Store.open_store ~dir ()) in
      Alcotest.(check string) (label ^ " opens as iid") "iid"
        (Simulator.Channel_kind.name (Store.channel store));
      Alcotest.(check bytes) (label ^ " object reads back") old
        (ok_or_fail "get" (Store.get ~use_cache:false store ~key:"old"));
      ok_or_fail "first write" (Store.put store ~key:"new1" d1);
      let checkpoint = read_whole (Filename.concat dir "MANIFEST.json") in
      Alcotest.(check bool) (label ^ ": first write stamps the current version") true
        (contains_substring ~needle:stamp checkpoint);
      Alcotest.(check bool) (label ^ ": and records the channel") true
        (contains_substring ~needle:"\"channel\": \"iid\"" checkpoint);
      Alcotest.(check int) (label ^ ": first write folded") 0
        (Store.stats store).Store.journal_records;
      ok_or_fail "second write" (Store.put store ~key:"new2" d2);
      Alcotest.(check int) (label ^ ": second write appended") 1
        (Store.stats store).Store.journal_records;
      let store = ok_or_fail "reopen" (Store.open_store ~dir ()) in
      List.iter
        (fun (key, data) ->
          Alcotest.(check bytes) (label ^ " " ^ key) data
            (ok_or_fail "get" (Store.get store ~key)))
        [ ("old", old); ("new1", d1); ("new2", d2) ])
    [ 3; 2; 1 ]

let test_wetlab_store_survives_reopen () =
  (* The channel is part of the store: E7's wetlab store at seed 909
     reads the image back to the same bytes from a fresh handle, whose
     manifest names the channel. *)
  E7.with_store 909 (fun ~dir store ->
      let live = ok_or_fail "get" (Store.get store ~key:"image.raw") in
      let reopened = ok_or_fail "reopen" (Store.open_store ~dir ()) in
      Alcotest.(check string) "channel persisted" "wetlab"
        (Simulator.Channel_kind.name (Store.channel reopened));
      Alcotest.(check bytes) "same bytes after reopen" live
        (ok_or_fail "get after reopen" (Store.get reopened ~key:"image.raw")))

let test_checkpoint_file_is_manifest_json () =
  (* A fold streams the checkpoint to disk; the file holds exactly the
     manifest's JSON text, and its size is what the stats report. *)
  journaled_store 65 @@ fun dir store _ ->
  ok_or_fail "checkpoint" (Store.checkpoint store);
  let file = read_whole (Filename.concat dir "MANIFEST.json") in
  Alcotest.(check string) "checkpoint bytes" (Store.manifest_json store) file;
  Alcotest.(check int) "checkpoint size" (String.length file)
    (Store.stats store).Store.checkpoint_bytes

let test_stats_report_journal () =
  journaled_store 61 @@ fun dir store _ ->
  let s = Store.stats store in
  Alcotest.(check int) "journal bytes = file" (file_size (journal_path dir)) s.Store.journal_bytes;
  Alcotest.(check int) "checkpoint bytes = file"
    (file_size (Filename.concat dir "MANIFEST.json"))
    s.Store.checkpoint_bytes;
  Alcotest.(check bool) "report names the journal" true
    (contains_substring ~needle:"journal 3 records" (Store.render_stats store));
  let reopened = ok_or_fail "reopen" (Store.open_store ~dir ()) in
  Alcotest.(check bool) "a reopened handle counts the same" true
    ((Store.stats reopened).Store.journal_bytes = s.Store.journal_bytes
    && (Store.stats reopened).Store.journal_records = 3)

(* ---------- the keyed directory ---------- *)

(* One MD5 over everything a store holds: the checkpoint, the journal
   and every shard file (each named, absent ones included), and the
   order of [Store.keys]. *)
let store_digest dir store =
  let digest path =
    if Sys.file_exists path then Digest.to_hex (Digest.file path) else "absent"
  in
  let shards = Array.to_list (Sys.readdir (Filename.concat dir "shards")) in
  let files =
    [ "MANIFEST.json"; "MANIFEST.journal" ]
    @ List.map (Filename.concat "shards") (List.sort compare shards)
  in
  let listing = List.map (fun f -> f ^ " " ^ digest (Filename.concat dir f)) files in
  Digest.to_hex (Digest.string (String.concat "\n" (listing @ Store.keys store)))

(* A scripted history over several shards, with the store's digest
   after each stage. *)
let byte_stability_stages seed =
  with_store_dir @@ fun dir ->
  let config = { test_config with Store.shard_target_strands = 64 } in
  let r = Dna.Rng.create (7_700 + seed) in
  let store = ref (ok_or_fail "init" (Store.init ~config ~dir ~seed ())) in
  let stages = ref [] in
  let stage name = stages := (name ^ " " ^ store_digest dir !store) :: !stages in
  let data () = random_file r (16 + Dna.Rng.int r 80) in
  let key i = Printf.sprintf "k%03d" i in
  let puts first last =
    for i = first to last do
      ok_or_fail "put" (Store.put !store ~key:(key i) (data ()))
    done
  in
  let pick () =
    let keys = Store.keys !store in
    List.nth keys (Dna.Rng.int r (List.length keys))
  in
  puts 0 89;
  Alcotest.(check bool) "several shards" true ((Store.stats !store).Store.n_shards >= 3);
  stage "puts";
  for _ = 1 to 30 do
    ok_or_fail "overwrite" (Store.overwrite !store ~key:(pick ()) (data ()))
  done;
  stage "overwrites";
  for _ = 1 to 15 do
    ok_or_fail "delete" (Store.delete !store ~key:(pick ()))
  done;
  stage "deletes";
  store := ok_or_fail "reopen" (Store.open_store ~dir ());
  stage "reopen";
  puts 90 104;
  stage "puts after reopen";
  ignore (ok_or_fail "compact" (Store.compact !store));
  stage "compact";
  puts 105 119;
  stage "puts after compact";
  ok_or_fail "checkpoint" (Store.checkpoint !store);
  stage "checkpoint";
  List.rev !stages

let test_byte_stability_golden () =
  (* The files a scripted history leaves, and the key order, pinned
     byte for byte: a change to how the store keeps its directory or
     writes its shards must not move them. *)
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d" seed)
        expected (byte_stability_stages seed))
    [
      ( 1,
        [
          "puts 0013e67fe59a4e9a42e0df134bab14f3";
          "overwrites b17c26603bdea5bb87b3eeab87ab83ae";
          "deletes 590920b5e282a61b6f2aefb10d93e77c";
          "reopen 590920b5e282a61b6f2aefb10d93e77c";
          "puts after reopen 7314e1c2376576a4cf807461fc20a269";
          "compact ee632857a985d85bac29463cd45ed166";
          "puts after compact d904ed52bb12b1ceda108ebc408f0c1e";
          "checkpoint 7dc655d89cb79d23218f6cab0bf11fe3";
        ] );
      ( 2,
        [
          "puts fc634d813acb3bbd9e7156af6815d53e";
          "overwrites ff64d53c3417444e5f93a5601b8b8576";
          "deletes 9505159b2116b365a778209afab19993";
          "reopen 9505159b2116b365a778209afab19993";
          "puts after reopen c4168b27b1f5d8b8ff822e9d073b96e9";
          "compact 0edcb1e2ebf764b1ace4f36f41ec7afb";
          "puts after compact 9870854e53098e3739715c6a314fbfb6";
          "checkpoint 1c25b94a95890453a2d8d1fb597819c7";
        ] );
    ]

let test_checkpoint_key_listed_twice_is_corrupt () =
  (* A keyed directory holds one object per key: a checkpoint listing a
     key twice is refused, never loaded with one of the two dropped. *)
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:67 ()) in
  let r = Dna.Rng.create 67 in
  ok_or_fail "put a" (Store.put store ~key:"a" (random_file r 40));
  ok_or_fail "put b" (Store.put store ~key:"b" (random_file r 40));
  ok_or_fail "checkpoint" (Store.checkpoint store);
  let needle = "\"key\": \"b\"" in
  Alcotest.(check bool) "checkpoint lists b" true
    (contains_substring ~needle (read_whole (Filename.concat dir "MANIFEST.json")));
  patch_manifest dir (replace_substring ~needle ~into:"\"key\": \"a\"");
  match Store.open_store ~dir () with
  | Error (Store.Corrupt msg) ->
      Alcotest.(check bool) "error names the repeat" true
        (contains_substring ~needle:"twice" msg)
  | Ok _ -> Alcotest.fail "opened a checkpoint that lists a key twice"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Store.error_message e)

(* Minor words one delete allocates, averaged over 8 deletes spread
   through a store of [n] small objects. *)
let words_per_delete n =
  with_store_dir @@ fun dir ->
  let store = ok_or_fail "init" (Store.init ~config:test_config ~dir ~seed:n ()) in
  let r = Dna.Rng.create n in
  let key i = Printf.sprintf "k%04d" i in
  for i = 0 to n - 1 do
    ok_or_fail "put" (Store.put store ~key:(key i) (random_file r 8))
  done;
  ok_or_fail "checkpoint" (Store.checkpoint store);
  let deletes = 8 in
  let before = Gc.minor_words () in
  for i = 0 to deletes - 1 do
    ok_or_fail "delete" (Store.delete store ~key:(key (i * n / deletes)))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int deletes in
  Alcotest.(check int)
    (Printf.sprintf "%d objects: every delete journaled, none folded" n)
    deletes (Store.stats store).Store.journal_records;
  words

let test_delete_cost_flat () =
  (* A directory write costs the same at any store size: a delete at
     1,024 objects allocates at most 1.5x what one at 64 does. The
     window opens right after a checkpoint, so no fold lands in it. *)
  let small = words_per_delete 64 and large = words_per_delete 1024 in
  if large > 1.5 *. small then
    Alcotest.failf "words per delete: %.0f at 64 objects, %.0f at 1024 (%.2fx)" small large
      (large /. small)

(* ---------- wetlab serialization at store-pool sizes ---------- *)

let random_strand r n =
  Dna.Strand.of_string (String.init n (fun _ -> "ACGT".[Dna.Rng.int r 4]))

let check_fasta_round_trip name records =
  let text = Dna.Fasta.to_string records in
  let parsed, errors = Dna.Fasta.parse_string text in
  Alcotest.(check int) (name ^ ": no parse errors") 0 (List.length errors);
  Alcotest.(check bool) (name ^ ": fasta round trips") true (parsed = records)

let check_fastq_round_trip name records =
  let text = Dna.Fastq.to_string records in
  let parsed, errors = Dna.Fastq.parse_string text in
  Alcotest.(check int) (name ^ ": no parse errors") 0 (List.length errors);
  Alcotest.(check bool) (name ^ ": fastq round trips") true (parsed = records)

let test_formats_round_trip_store_sizes () =
  let r = Dna.Rng.create 2024 in
  let fasta_record i = { Dna.Fasta.id = Printf.sprintf "m_%d" i; seq = random_strand r 150 } in
  let fastq_record i =
    let seq = random_strand r 150 in
    { Dna.Fastq.id = Printf.sprintf "r_%d" i; seq; qual = Dna.Fastq.with_uniform_quality ~q:40 seq }
  in
  check_fasta_round_trip "empty pool" [];
  check_fasta_round_trip "single strand" [ fasta_record 0 ];
  check_fasta_round_trip "10k strands" (List.init 10_000 fasta_record);
  check_fastq_round_trip "empty run" [];
  check_fastq_round_trip "single read" [ fastq_record 0 ];
  check_fastq_round_trip "10k reads" (List.init 10_000 fastq_record)

let test_formats_accept_crlf () =
  let r = Dna.Rng.create 77 in
  let records = List.init 20 (fun i -> { Dna.Fasta.id = Printf.sprintf "m_%d" i; seq = random_strand r 120 }) in
  let crlf text =
    String.concat "\r\n" (String.split_on_char '\n' text)
  in
  let parsed, errors = Dna.Fasta.parse_string (crlf (Dna.Fasta.to_string records)) in
  Alcotest.(check int) "fasta: CRLF input parses clean" 0 (List.length errors);
  Alcotest.(check bool) "fasta: CRLF records identical" true (parsed = records);
  let reads =
    List.init 20 (fun i ->
        let seq = random_strand r 120 in
        { Dna.Fastq.id = Printf.sprintf "r_%d" i; seq; qual = Dna.Fastq.with_uniform_quality ~q:30 seq })
  in
  let parsed, errors = Dna.Fastq.parse_string (crlf (Dna.Fastq.to_string reads)) in
  Alcotest.(check int) "fastq: CRLF input parses clean" 0 (List.length errors);
  Alcotest.(check bool) "fastq: CRLF records identical" true (parsed = reads)

let test_wetlab_export_ingest_10k () =
  let r = Dna.Rng.create 555 in
  let pairs = Array.to_list (Codec.Primer.generate_pairs_exn r 2) in
  let p0 = List.nth pairs 0 and p1 = List.nth pairs 1 in
  let core () = random_strand r 110 in
  let reads =
    Array.init 10_000 (fun i ->
        let pair = if i mod 2 = 0 then p0 else p1 in
        Codec.Primer.attach pair (core ()))
  in
  let text = Dnastore.Wetlab_io.export_fastq reads in
  let ingested = Read_oracle.ingest_fastq_text pairs text in
  Alcotest.(check int) "all reads ingested" 10_000
    ingested.Dnastore.Wetlab_io.pool_stats.Dnastore.Wetlab_io.total_records;
  Alcotest.(check int) "no stray reads" 0
    ingested.Dnastore.Wetlab_io.pool_stats.Dnastore.Wetlab_io.no_primer_match;
  List.iter
    (fun (_, cores) -> Alcotest.(check int) "balanced demux" 5_000 (Dna.Strand_pool.length cores))
    ingested.Dnastore.Wetlab_io.pools_by_pair

let () =
  Alcotest.run "store"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "streamed fields equal to_string" `Quick
            test_json_output_fields_equals_to_string;
        ] );
      ( "durability",
        [
          Alcotest.test_case "survives reopen (2 seeds)" `Slow test_store_survives_reopen;
          Alcotest.test_case "init refuses existing" `Quick test_init_refuses_existing;
          Alcotest.test_case "no temp leftovers" `Slow test_no_tmp_leftovers;
          Alcotest.test_case "wetlab channel survives reopen" `Slow
            test_wetlab_store_survives_reopen;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "delete + compact reclaims (2 seeds)" `Slow
            test_delete_compact_reclaims;
          Alcotest.test_case "overwrite appends a version" `Slow test_overwrite_appends_version;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batched get equals sequential" `Slow
            test_get_batch_matches_sequential;
          Alcotest.test_case "1k-key batch joins in input order" `Slow
            test_get_batch_thousand_keys;
          Alcotest.test_case "duplicate keys decode once, answer twice" `Slow
            test_get_batch_duplicate_keys_decode_once;
          Alcotest.test_case "bytes independent of batch shape" `Slow
            test_get_deterministic_across_batch_shapes;
        ] );
      ( "cache",
        [
          Alcotest.test_case "repeated get hits" `Slow test_cache_hits_on_repeated_get;
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "cold accesses counted, hits not" `Quick test_cold_access_stats;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "garbage manifest rejected" `Quick test_corrupt_manifest_rejected;
          Alcotest.test_case "format version gate" `Quick test_format_version_gate;
        ] );
      ( "json hardening",
        [
          Alcotest.test_case "deep nesting fails typed" `Quick test_json_rejects_deep_nesting;
          Alcotest.test_case "duplicate keys rejected" `Quick test_json_rejects_duplicate_keys;
          Alcotest.test_case "fuzzed inputs never raise (2 seeds)" `Quick
            test_json_fuzz_never_raises;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "damaged shard fails typed" `Slow
            test_get_on_damaged_shard_fails_typed;
          Alcotest.test_case "scrub detects and repairs (2 seeds)" `Slow
            test_scrub_detects_and_repairs;
          Alcotest.test_case "scrub classifies lost, reads gated" `Slow
            test_scrub_classifies_lost_and_gates_reads;
          Alcotest.test_case "scrub marks degraded, partial reads" `Slow
            test_scrub_marks_degraded_and_partial_reads;
          Alcotest.test_case "simulated ENOSPC is typed and recoverable" `Slow
            test_simulated_enospc_is_typed_and_recoverable;
          Alcotest.test_case "v1 manifest opens, scrub backfills" `Slow
            test_v1_manifest_opens_and_scrub_backfills;
          Alcotest.test_case "compact counts unlink failures" `Slow
            test_compact_counts_unlink_failures;
          Alcotest.test_case "salvage golden (3 seeds)" `Slow test_salvage_golden;
        ] );
      ( "append",
        [
          Alcotest.test_case "shards stay canonical across rollover" `Slow
            test_appends_write_canonical_shards;
          Alcotest.test_case "crash mid shard append" `Slow test_crash_mid_shard_append;
          Alcotest.test_case "ENOSPC mid shard append" `Slow test_enospc_mid_shard_append;
          Alcotest.test_case "put-only handle reads from disk" `Slow
            test_put_only_handle_reads_from_disk;
          Alcotest.test_case "get refuses a checksum mismatch" `Slow
            test_get_refuses_checksum_mismatch;
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
        ] );
      ( "two-depth get",
        [
          Alcotest.test_case "shallow store: exact gets, some deepen (2 seeds)" `Slow
            test_shallow_gets_deepen_exactly;
          Alcotest.test_case "replays alone, batched, across domains" `Slow
            test_two_depth_get_replays;
          Alcotest.test_case "no checksum: single deep pass" `Slow
            test_unchecksummed_get_reads_deep;
          Alcotest.test_case "unmatched checksum refused on both passes" `Slow
            test_unmatched_checksum_refused_on_both_passes;
        ] );
      ( "journal",
        [
          Alcotest.test_case "torn tail cut at every offset" `Quick
            test_journal_torn_tail_every_offset;
          Alcotest.test_case "flipped byte in an earlier record is Corrupt" `Quick
            test_journal_flipped_byte_is_corrupt;
          Alcotest.test_case "stale records behind a checkpoint skipped" `Slow
            test_journal_stale_records_skipped;
          Alcotest.test_case "fuzzed journals never raise (2 seeds)" `Quick
            test_journal_fuzz_never_raises;
          Alcotest.test_case "reopen equals live handle (2 seeds)" `Slow
            test_journal_reopen_equals_live;
          Alcotest.test_case "v1/v2/v3 stores fold v4 on write" `Slow
            test_old_formats_fold_on_first_write;
          Alcotest.test_case "stats report the journal" `Quick test_stats_report_journal;
          Alcotest.test_case "checkpoint file is the manifest JSON" `Quick
            test_checkpoint_file_is_manifest_json;
        ] );
      ( "directory",
        [
          Alcotest.test_case "byte-stability golden (2 seeds)" `Slow test_byte_stability_golden;
          Alcotest.test_case "delete cost flat in store size" `Slow test_delete_cost_flat;
          Alcotest.test_case "checkpoint listing a key twice is Corrupt" `Quick
            test_checkpoint_key_listed_twice_is_corrupt;
        ] );
      ( "formats",
        [
          Alcotest.test_case "round trips at store sizes" `Quick
            test_formats_round_trip_store_sizes;
          Alcotest.test_case "CRLF input" `Quick test_formats_accept_crlf;
          Alcotest.test_case "wetlab export/ingest 10k reads" `Quick
            test_wetlab_export_ingest_10k;
        ] );
    ]
