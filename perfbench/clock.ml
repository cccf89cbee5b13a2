(* Every benchmark timing reads this monotonic clock, never the wall
   clock the store and scheduler stamp their records with. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Process CPU seconds, user + system, summed over every domain. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [time] in process CPU seconds: what the work cost, whatever the
   hypervisor stole from the wall clock meanwhile. *)
let cpu_time f =
  let c0 = cpu () in
  let r = f () in
  (r, cpu () -. c0)
