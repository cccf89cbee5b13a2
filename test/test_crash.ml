(* The crash-consistency sweep as a tier-1 test: replay a scripted
   put/overwrite/delete/compact workload once per filesystem fault
   point with a simulated kill landing there, reopen, and check that
   acked writes survive bit-identically, acked deletes stay deleted,
   the in-flight operation is atomic and no temp/orphan debris remains.
   The sweep must reach the journal's own states: a torn append, a
   whole one, and a fold. CI's crash-matrix job runs the same sweep at
   a second seed. *)

let test_crash_matrix () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dnastore_crash_%d" (Unix.getpid ()))
  in
  let o = Crash_harness.run ~seed:1 ~dir () in
  Alcotest.(check bool)
    (Printf.sprintf "sweep traverses a full workload (%d points)" o.Crash_harness.total_points)
    true
    (o.Crash_harness.total_points > 30);
  Alcotest.(check int) "one run per fault point" o.Crash_harness.total_points o.Crash_harness.runs;
  let visited point ~during =
    List.exists
      (fun (p, op) -> p = point && List.exists (fun w -> String.starts_with ~prefix:w op) during)
      o.Crash_harness.visited
  in
  let writes = [ "put"; "overwrite"; "delete" ] in
  Alcotest.(check bool) "a kill lands inside a journal append (torn tail)" true
    (visited "append.data:MANIFEST.journal" ~during:writes);
  Alcotest.(check bool) "a kill lands after a whole journal append" true
    (visited "append.done:MANIFEST.journal" ~during:writes);
  (* Only a fold cuts the journal in the middle of a put, overwrite or
     delete; compaction's cut runs under "compact". *)
  Alcotest.(check bool) "a kill lands in a fold" true
    (visited "truncate:MANIFEST.journal" ~during:writes);
  if o.Crash_harness.failures <> [] then Alcotest.fail (Crash_harness.render o)

let () =
  Alcotest.run "crash"
    [ ("matrix", [ Alcotest.test_case "kill at every fault point" `Slow test_crash_matrix ]) ]
