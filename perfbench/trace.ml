(* Spans recorded by the traced run, kept in memory and written out at
   the end as Chrome trace-event JSON (opens in Perfetto and
   chrome://tracing). Spans are recorded from the benchmark's own code,
   around its calls into each layer, on the coordinating domain only. *)

type span = {
  id : int;
  name : string;
  start_s : float;  (** monotonic clock, seconds *)
  stop_s : float;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  rid : int;  (** request id the span belongs to, -1 for none *)
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 0 }

let add t ?(parent = -1) ?(rid = -1) name ~start_s ~stop_s =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; name; start_s; stop_s; parent; rid } :: t.spans;
  id

(* A span whose end is not known yet: its id is fixed at [enter], so
   children recorded before it closes can name it as their parent. *)
type open_span = { o_id : int; o_name : string; o_start : float; o_parent : int; o_rid : int }

let enter t ?(parent = -1) ?(rid = -1) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  { o_id = id; o_name = name; o_start = Clock.now (); o_parent = parent; o_rid = rid }

let id o = o.o_id

let leave t o =
  let stop_s = Clock.now () in
  t.spans <-
    { id = o.o_id; name = o.o_name; start_s = o.o_start; stop_s; parent = o.o_parent; rid = o.o_rid }
    :: t.spans;
  stop_s -. o.o_start

(* Run [f] inside a span; returns the result and the span's duration. *)
let time t ?parent ?rid name f =
  let o = enter t ?parent ?rid name in
  let r = f () in
  (r, leave t o)

let spans t = List.rev t.spans

(* One complete ("ph":"X") event per span, timestamps in microseconds
   from the first span. A span tagged with a request id goes on that
   request's own track, so overlapping requests never interleave. *)
let to_chrome_json t =
  let spans = spans t in
  let origin = List.fold_left (fun acc s -> min acc s.start_s) infinity spans in
  let event s =
    Printf.sprintf
      {|{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"request":%d}}|}
      (Json.str s.name)
      (if s.rid < 0 then 0 else s.rid + 1)
      ((s.start_s -. origin) *. 1e6)
      ((s.stop_s -. s.start_s) *. 1e6)
      s.id s.parent s.rid
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map event spans) ^ "\n]}\n"

let write_chrome t path =
  Sysinfo.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_chrome_json t))
