(** Domain-based parallel execution for the clustering and
    reconstruction stages.

    The paper stresses that clustering and reconstruction must scale
    across cores (Section IX). This module fans balanced array chunks
    out to a pool of long-lived worker domains and is the single
    configuration point for the toolkit's parallelism:

    - chunk assignment is balanced (chunk sizes differ by at most one)
      and never produces an empty or negative range, so ragged shapes
      such as 5 items across 4 domains are safe;
    - workers are spawned once and reused: a parallel region costs a
      queue push, not a [Domain.spawn]/[Domain.join] round trip, and
      per-domain scratch state ([Domain.DLS] arenas, cached strand
      masks) survives from one region to the next;
    - the pool never holds more worker domains than the hardware can
      run ([Domain.recommended_domain_count () - 1]; the submitting
      domain works too), so [~domains:8] on a 2-core box executes 8
      balanced chunks on 2 domains instead of oversubscribing — and
      regions entered from inside a task run serially, so nested
      parallelism cannot multiply domains;
    - a failing chunk never orphans its siblings: every chunk of a
      region runs before the first failure (in submission order) is
      re-raised;
    - every parallel region is counted (regions entered, tasks run,
      wall time) under a caller-supplied label, surfaced through
      [counters] and rendered by [Core.Report.par_counters].

    With [domains = 1] every entry point degrades to the plain serial
    loop, which tests use for bit-exact determinism. *)

let recommended_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* The process-wide default worker count, used whenever a [?domains]
   argument is omitted anywhere in the toolkit. Serial by default so
   that results are reproducible unless parallelism is asked for. *)
let default = Atomic.make 1

let set_default_domains n = Atomic.set default (max 1 n)
let default_domains () = Atomic.get default

(* ---------- counters ---------- *)

type counter = { label : string; regions : int; tasks : int; wall_s : float }

type counter_cell = {
  mutable c_regions : int;
  mutable c_tasks : int;
  mutable c_wall_s : float;
}

let counters_lock = Mutex.create ()
let counters_tbl : (string, counter_cell) Hashtbl.t = Hashtbl.create 16

let record ~label ~tasks ~wall_s =
  Mutex.lock counters_lock;
  let cell =
    match Hashtbl.find_opt counters_tbl label with
    | Some c -> c
    | None ->
        let c = { c_regions = 0; c_tasks = 0; c_wall_s = 0.0 } in
        Hashtbl.add counters_tbl label c;
        c
  in
  cell.c_regions <- cell.c_regions + 1;
  cell.c_tasks <- cell.c_tasks + tasks;
  cell.c_wall_s <- cell.c_wall_s +. wall_s;
  Mutex.unlock counters_lock

let counters () =
  Mutex.lock counters_lock;
  let out =
    Hashtbl.fold
      (fun label c acc ->
        { label; regions = c.c_regions; tasks = c.c_tasks; wall_s = c.c_wall_s } :: acc)
      counters_tbl []
  in
  Mutex.unlock counters_lock;
  List.sort (fun a b -> compare a.label b.label) out

let reset_counters () =
  Mutex.lock counters_lock;
  Hashtbl.reset counters_tbl;
  Mutex.unlock counters_lock

(* ---------- the long-lived worker pool ---------- *)

(* A region is one parallel map: [n_chunks] pre-assigned balanced
   chunks, claimed one at a time through [next] by whoever has spare
   cycles — pool workers and the submitting domain alike. Chunk
   outcomes (result or exception) land in the region's own array, so a
   failing chunk is recorded, never propagated mid-region. *)
type region = {
  n_chunks : int;
  next : int Atomic.t;  (** next unclaimed chunk *)
  completed : int Atomic.t;
  run_chunk : int -> unit;  (** executes chunk [i]; must not raise *)
}

let pool_lock = Mutex.create ()
let pool_cond = Condition.create ()

(* Regions with unclaimed chunks. Exhausted regions are popped lazily
   by whoever finds them at the front. *)
let pool_queue : region Queue.t = Queue.create ()
let pool_stop = ref false
let pool_handles : unit Domain.t list ref = ref []
let pool_spawned = Atomic.make 0

(* True while this domain is executing a region chunk (worker or
   submitter): regions entered from such a context run serially, so
   nested parallelism never multiplies domains or deadlocks the pool. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let exhausted r = Atomic.get r.next >= r.n_chunks
let region_done r = Atomic.get r.completed >= r.n_chunks

(* Claim and run chunks until the region has none left. Completion of
   the last chunk is announced on [pool_cond] for the submitter. *)
let help_region r =
  let previously = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  let rec claim () =
    let i = Atomic.fetch_and_add r.next 1 in
    if i < r.n_chunks then begin
      r.run_chunk i;
      let completed = 1 + Atomic.fetch_and_add r.completed 1 in
      if completed = r.n_chunks then begin
        Mutex.lock pool_lock;
        Condition.broadcast pool_cond;
        Mutex.unlock pool_lock
      end;
      claim ()
    end
  in
  claim ();
  Domain.DLS.set in_task previously

let worker_loop () =
  let rec loop () =
    Mutex.lock pool_lock;
    let rec await () =
      (* Drop exhausted regions so the queue never pins dead work. *)
      while (not (Queue.is_empty pool_queue)) && exhausted (Queue.peek pool_queue) do
        ignore (Queue.pop pool_queue)
      done;
      if Queue.is_empty pool_queue && not !pool_stop then begin
        Condition.wait pool_cond pool_lock;
        await ()
      end
    in
    await ();
    if Queue.is_empty pool_queue then (* stop requested *)
      Mutex.unlock pool_lock
    else begin
      let r = Queue.peek pool_queue in
      Mutex.unlock pool_lock;
      help_region r;
      loop ()
    end
  in
  loop ()

let shutdown_pool () =
  Mutex.lock pool_lock;
  pool_stop := true;
  Condition.broadcast pool_cond;
  let handles = !pool_handles in
  pool_handles := [];
  Mutex.unlock pool_lock;
  List.iter Domain.join handles;
  Mutex.lock pool_lock;
  pool_stop := false;
  Atomic.set pool_spawned 0;
  Mutex.unlock pool_lock

let pool_size () = Atomic.get pool_spawned

(* The pool never exceeds the hardware: the submitting domain counts as
   one executor, so at most [recommended_domain_count - 1] workers. *)
let max_workers () = max 0 (Domain.recommended_domain_count () - 1)

let at_exit_registered = Atomic.make false

let ensure_workers wanted =
  let wanted = min wanted (max_workers ()) in
  if Atomic.get pool_spawned < wanted then begin
    Mutex.lock pool_lock;
    if not (Atomic.compare_and_set at_exit_registered false true) then ()
    else Stdlib.at_exit shutdown_pool;
    while Atomic.get pool_spawned < wanted do
      pool_handles := Domain.spawn worker_loop :: !pool_handles;
      Atomic.incr pool_spawned
    done;
    Mutex.unlock pool_lock
  end

(* ---------- core machinery ---------- *)

(* Balanced contiguous ranges: the first [n mod workers] chunks carry one
   extra element. Requires workers <= n, so no range is ever empty. *)
let chunk_ranges ~workers n =
  let base = n / workers and rem = n mod workers in
  Array.init workers (fun w ->
      let lo = (w * base) + min w rem in
      let len = base + if w < rem then 1 else 0 in
      (lo, len))

(* Apply [chunk_f lo len] to balanced ranges. Chunk results come back in
   range order. The chunk count depends only on [domains] and [n] —
   never on the hardware — so result shapes (and [chunked_map] output)
   are stable across machines; only the execution width adapts. Every
   chunk runs even if an earlier one raises; the first failure in chunk
   order is re-raised once the region is complete. *)
let run_chunks ~domains ~n chunk_f =
  if n = 0 then []
  else
    let chunks = max 1 (min domains n) in
    let serial () =
      let outcomes =
        Array.map
          (fun (lo, len) -> try Ok (chunk_f lo len) with e -> Error e)
          (chunk_ranges ~workers:chunks n)
      in
      Array.to_list (Array.map (function Ok v -> v | Error e -> raise e) outcomes)
    in
    if chunks = 1 || Domain.DLS.get in_task then serial ()
    else begin
      ensure_workers (chunks - 1);
      if pool_size () = 0 then serial ()
      else begin
        let ranges = chunk_ranges ~workers:chunks n in
        let outcomes = Array.make chunks None in
        let region =
          {
            n_chunks = chunks;
            next = Atomic.make 0;
            completed = Atomic.make 0;
            run_chunk =
              (fun i ->
                let lo, len = ranges.(i) in
                outcomes.(i) <- (try Some (Ok (chunk_f lo len)) with e -> Some (Error e)));
          }
        in
        Mutex.lock pool_lock;
        Queue.push region pool_queue;
        Condition.broadcast pool_cond;
        Mutex.unlock pool_lock;
        (* The submitter is an executor too: claim chunks alongside the
           workers, then wait out any straggler. *)
        help_region region;
        Mutex.lock pool_lock;
        while not (region_done region) do
          Condition.wait pool_cond pool_lock
        done;
        Mutex.unlock pool_lock;
        Array.to_list
          (Array.map
             (function
               | Some (Ok v) -> v
               | Some (Error e) -> raise e
               | None -> assert false (* region_done implies every slot is filled *))
             outcomes)
      end
    end

let timed ~label ~tasks f =
  let t0 = Clock.now () in
  let finish () = record ~label ~tasks ~wall_s:(Clock.now () -. t0) in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* ---------- public entry points ---------- *)

let map_array ?(label = "par.map") ?domains f (arr : 'a array) : 'b array =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let n = Array.length arr in
  timed ~label ~tasks:n (fun () ->
      Array.concat
        (run_chunks ~domains ~n (fun lo len -> Array.init len (fun i -> f arr.(lo + i)))))

let mapi_array ?(label = "par.mapi") ?domains f (arr : 'a array) : 'b array =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let n = Array.length arr in
  timed ~label ~tasks:n (fun () ->
      Array.concat
        (run_chunks ~domains ~n (fun lo len ->
             Array.init len (fun i -> f (lo + i) arr.(lo + i)))))

let iter_array ?(label = "par.iter") ?domains f (arr : 'a array) : unit =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let n = Array.length arr in
  timed ~label ~tasks:n (fun () ->
      ignore
        (run_chunks ~domains ~n (fun lo len ->
             for i = lo to lo + len - 1 do
               f arr.(i)
             done)))

let chunked_map ?(label = "par.chunked") ?domains f (arr : 'a array) : 'b array =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let n = Array.length arr in
  timed ~label ~tasks:n (fun () ->
      Array.of_list (run_chunks ~domains ~n (fun lo len -> f (Array.sub arr lo len))))

let map_reduce ?(label = "par.map_reduce") ?domains ~map ~combine ~init (arr : 'a array) : 'b
    =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let n = Array.length arr in
  timed ~label ~tasks:n (fun () ->
      let parts =
        run_chunks ~domains ~n (fun lo len ->
            let acc = ref (map arr.(lo)) in
            for i = lo + 1 to lo + len - 1 do
              acc := combine !acc (map arr.(i))
            done;
            !acc)
      in
      List.fold_left combine init parts)
