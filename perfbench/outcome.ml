(* What one workload run returns to main.ml. *)

type t = {
  attempted : int;
  failed : int;  (** operations that were wrong, errored or refused *)
  metrics : (string * float) list;
      (** end-to-end metrics (untraced) or per-layer metrics (traced),
          by catalog name *)
  report : (string * float) list;
      (** the workload's figures under their own names (e.g.
          [pipeline_kib_per_s], [get_p99_ms]), printed before the
          result line *)
  config : (string * string) list;  (** workload settings, JSON values *)
}

(* Arguments every workload takes. *)
type args = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;  (** tiny sizes: checks the harness, not speed *)
  tamper : bool;
      (** corrupt one expected value, so the correctness oracle must
          report failures (self-test only) *)
  work_dir : string;  (** scratch space inside the checkout *)
  trace_out : string;  (** Chrome trace path for the traced run *)
  domains : int;
}
