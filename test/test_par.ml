(* The hardened parallel execution layer: balanced chunking across
   ragged shapes, exception-safe joins, deterministic per-task RNG
   splitting, and the instrumentation counters. *)

let test_ragged_regression () =
  (* 5 items across 4 domains: ceil-division chunking used to hand
     worker 3 the range lo=6 > n and crash on Array.init (-1). *)
  let arr = [| 1; 2; 3; 4; 5 |] in
  Alcotest.(check (array int))
    "n=5 domains=4" [| 2; 4; 6; 8; 10 |]
    (Dna.Par.map_array ~domains:4 (fun x -> 2 * x) arr)

let test_matches_sequential_all_shapes () =
  let f x = (x * x) - (3 * x) + 1 in
  for n = 0 to 64 do
    let arr = Array.init n (fun i -> (i * 7) - 11) in
    let expected = Array.map f arr in
    for domains = 1 to 8 do
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d domains=%d" n domains)
        expected
        (Dna.Par.map_array ~domains f arr)
    done
  done

let test_mapi_matches_sequential () =
  let arr = Array.init 23 (fun i -> i * 5) in
  let expected = Array.mapi (fun i x -> x - i) arr in
  for domains = 1 to 8 do
    Alcotest.(check (array int))
      (Printf.sprintf "domains=%d" domains)
      expected
      (Dna.Par.mapi_array ~domains (fun i x -> x - i) arr)
  done

let test_iter_array_visits_everything () =
  let n = 37 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Dna.Par.iter_array ~domains:5 (fun i -> Atomic.incr hits.(i)) (Array.init n Fun.id);
  Array.iteri
    (fun i a -> Alcotest.(check int) (Printf.sprintf "element %d visited once" i) 1 (Atomic.get a))
    hits

let test_chunked_map_reassembles () =
  let arr = Array.init 13 (fun i -> i) in
  for domains = 1 to 8 do
    let chunks = Dna.Par.chunked_map ~domains Fun.id arr in
    Alcotest.(check int)
      (Printf.sprintf "chunk count domains=%d" domains)
      (min domains 13) (Array.length chunks);
    Array.iter
      (fun c -> Alcotest.(check bool) "no empty chunk" true (Array.length c > 0))
      chunks;
    Alcotest.(check (array int))
      (Printf.sprintf "concat domains=%d" domains)
      arr (Array.concat (Array.to_list chunks))
  done;
  Alcotest.(check int) "empty input" 0 (Array.length (Dna.Par.chunked_map ~domains:4 Fun.id [||]))

let test_map_reduce_matches_fold () =
  let arr = Array.init 29 (fun i -> i + 1) in
  let expected = Array.fold_left (fun acc x -> acc + (x * x)) 0 arr in
  for domains = 1 to 8 do
    Alcotest.(check int)
      (Printf.sprintf "sum of squares domains=%d" domains)
      expected
      (Dna.Par.map_reduce ~domains ~map:(fun x -> x * x) ~combine:( + ) ~init:0 arr)
  done;
  (* An associative but non-commutative combine keeps submission order. *)
  let words = [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
  for domains = 1 to 8 do
    Alcotest.(check string)
      (Printf.sprintf "order preserved domains=%d" domains)
      "abcdefg"
      (Dna.Par.map_reduce ~domains ~map:Fun.id ~combine:( ^ ) ~init:"" words)
  done

let test_exception_joins_all_siblings () =
  (* One task per worker; worker 3 fails. Every sibling must still be
     joined (and hence have run) before the failure is re-raised. *)
  let completed = Atomic.make 0 in
  let f i =
    if i = 3 then failwith "boom"
    else begin
      Atomic.incr completed;
      i
    end
  in
  (try
     ignore (Dna.Par.map_array ~domains:8 f (Array.init 8 Fun.id));
     Alcotest.fail "expected the worker exception to propagate"
   with Failure msg -> Alcotest.(check string) "original payload" "boom" msg);
  Alcotest.(check int) "all siblings completed" 7 (Atomic.get completed);
  (* The layer stays usable after a failed region. *)
  Alcotest.(check (array int))
    "still functional" [| 0; 2; 4 |]
    (Dna.Par.map_array ~domains:4 (fun x -> 2 * x) [| 0; 1; 2 |])

let test_nested_region_serializes () =
  (* A region entered from inside a task must run serially rather than
     recursively claiming pool workers: the inner map still produces
     correct, ordered results and the whole nest terminates. *)
  let outer =
    Dna.Par.map_array ~domains:4
      (fun i ->
        Dna.Par.map_array ~domains:4 (fun j -> (10 * i) + j) (Array.init 3 Fun.id))
      (Array.init 8 Fun.id)
  in
  Array.iteri
    (fun i inner ->
      Alcotest.(check (array int))
        (Printf.sprintf "inner region %d" i)
        [| 10 * i; (10 * i) + 1; (10 * i) + 2 |]
        inner)
    outer

let test_pool_lifecycle () =
  (* The pool never exceeds the hardware (workers <= cores - 1), and a
     shutdown is clean: later regions still work, respawning workers if
     the hardware allows any. *)
  ignore (Dna.Par.map_array ~domains:8 Fun.id (Array.init 32 Fun.id));
  let hw_cap = max 0 (Domain.recommended_domain_count () - 1) in
  Alcotest.(check bool) "pool clamped to hardware" true (Dna.Par.pool_size () <= hw_cap);
  Dna.Par.shutdown_pool ();
  Alcotest.(check int) "shutdown empties pool" 0 (Dna.Par.pool_size ());
  Dna.Par.shutdown_pool ();
  (* idempotent *)
  Alcotest.(check (array int))
    "region after shutdown" [| 0; 2; 4; 6 |]
    (Dna.Par.map_array ~domains:4 (fun x -> 2 * x) [| 0; 1; 2; 3 |]);
  Alcotest.(check bool) "pool respawned within cap" true (Dna.Par.pool_size () <= hw_cap)

let test_counters_and_report () =
  Dna.Par.reset_counters ();
  ignore (Dna.Par.map_array ~label:"test.stage" ~domains:3 Fun.id (Array.init 10 Fun.id));
  ignore (Dna.Par.map_array ~label:"test.stage" ~domains:1 Fun.id (Array.init 5 Fun.id));
  let c =
    List.find (fun c -> c.Dna.Par.label = "test.stage") (Dna.Par.counters ())
  in
  Alcotest.(check int) "regions" 2 c.Dna.Par.regions;
  Alcotest.(check int) "tasks" 15 c.Dna.Par.tasks;
  Alcotest.(check bool) "wall time recorded" true (c.Dna.Par.wall_s >= 0.0);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let rendered = Dnastore.Report.par_counters (Dna.Par.counters ()) in
  Alcotest.(check bool) "rendered table names the stage" true (contains rendered "test.stage");
  Dna.Par.reset_counters ();
  Alcotest.(check (list string)) "reset clears" []
    (List.map (fun c -> c.Dna.Par.label) (Dna.Par.counters ()))

let test_default_domains_knob () =
  let before = Dna.Par.default_domains () in
  Fun.protect
    ~finally:(fun () -> Dna.Par.set_default_domains before)
    (fun () ->
      Dna.Par.set_default_domains 4;
      Alcotest.(check int) "set" 4 (Dna.Par.default_domains ());
      Dna.Par.set_default_domains 0;
      Alcotest.(check int) "clamped to 1" 1 (Dna.Par.default_domains ());
      Alcotest.(check bool) "recommended at least 1" true (Dna.Par.recommended_domains () >= 1))

let () =
  Alcotest.run "par"
    [
      ( "chunking",
        [
          Alcotest.test_case "ragged n=5 domains=4 regression" `Quick test_ragged_regression;
          Alcotest.test_case "matches Array.map for n in 0..64, domains in 1..8" `Slow
            test_matches_sequential_all_shapes;
          Alcotest.test_case "mapi" `Quick test_mapi_matches_sequential;
          Alcotest.test_case "iter visits everything once" `Quick test_iter_array_visits_everything;
          Alcotest.test_case "chunked_map reassembles" `Quick test_chunked_map_reassembles;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce_matches_fold;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "worker exception joins all siblings" `Quick
            test_exception_joins_all_siblings;
          Alcotest.test_case "nested region serializes" `Quick test_nested_region_serializes;
          Alcotest.test_case "pool lifecycle" `Quick test_pool_lifecycle;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "counters and report" `Quick test_counters_and_report;
          Alcotest.test_case "default domains knob" `Quick test_default_domains_knob;
        ] );
    ]
