(** Deterministic fault injection (the robustness harness).

    A {!plan} names a set of faults plus a seed; every injection draws
    from a stream derived from that seed alone — never from the
    pipeline's ambient rng — so a scenario replays bit-identically
    regardless of what else the pipeline draws, and adding a fault at one
    site cannot shift the draws at another.

    Data faults ({!Strand_dropout}, {!Undersampling}, {!Read_truncation},
    {!Read_corruption}, {!Cluster_loss}) perturb the artifacts flowing
    between stages. Stage faults ({!Stage_crash}, {!Stage_stuck}) make a
    stage raise, exercising the pipeline's graceful-degradation
    fallbacks rather than the codec's error budget. *)

type stage = Encode | Simulate | Cluster | Reconstruct | Decode

let stage_name = function
  | Encode -> "encode"
  | Simulate -> "simulate"
  | Cluster -> "cluster"
  | Reconstruct -> "reconstruct"
  | Decode -> "decode"

exception Crash of stage
exception Stuck of stage

let () =
  Printexc.register_printer (function
    | Crash s -> Some (Printf.sprintf "Faults.Crash(%s): injected stage crash" (stage_name s))
    | Stuck s -> Some (Printf.sprintf "Faults.Stuck(%s): injected stuck stage" (stage_name s))
    | _ -> None)

type fault =
  | Strand_dropout of float
      (** each encoded strand lost before sequencing with this probability
          (synthesis failure / PCR skew) *)
  | Undersampling of float
      (** oligo-pool undersampling: only this fraction of reads is
          sampled, uniformly without replacement *)
  | Read_truncation of { p : float; keep_min : float }
      (** each read truncated with probability [p] to a uniform fraction
          of its length in [keep_min, 1) *)
  | Read_corruption of float  (** extra per-base substitution rate on every read *)
  | Cluster_loss of float  (** each cluster dropped whole with this probability *)
  | Stage_crash of stage  (** the stage raises {!Crash} on entry *)
  | Stage_stuck of stage
      (** the stage raises {!Stuck} on entry (a hang detected and killed
          by a watchdog, modeled as an exception) *)

let fault_name = function
  | Strand_dropout p -> Printf.sprintf "strand-dropout(%.2f)" p
  | Undersampling f -> Printf.sprintf "undersampling(%.2f)" f
  | Read_truncation { p; keep_min } -> Printf.sprintf "read-truncation(%.2f,>=%.2f)" p keep_min
  | Read_corruption r -> Printf.sprintf "read-corruption(%.3f)" r
  | Cluster_loss p -> Printf.sprintf "cluster-loss(%.2f)" p
  | Stage_crash s -> Printf.sprintf "crash(%s)" (stage_name s)
  | Stage_stuck s -> Printf.sprintf "stuck(%s)" (stage_name s)

type plan = { seed : int; faults : fault list }

let plan ?(seed = 0) faults = { seed; faults }

(* One independent stream per injection site, derived from the plan seed
   only. The golden-ratio multiplier decorrelates neighboring sites. *)
let site_rng plan site = Dna.Rng.create (plan.seed lxor (site * 0x9E3779B9) lxor 0x7faadb)

let strand_site = 1
let read_site = 2
let cluster_site = 3

let trigger plan stage =
  List.iter
    (function
      | Stage_crash s when s = stage -> raise (Crash stage)
      | Stage_stuck s when s = stage -> raise (Stuck stage)
      | _ -> ())
    plan.faults

(* ---------- data-fault application ---------- *)

let keep_filter rng p arr = Array.of_list (List.filter (fun _ -> Dna.Rng.float rng >= p) (Array.to_list arr))

let inject_strands plan (strands : Dna.Strand.t array) : Dna.Strand.t array =
  let rng = site_rng plan strand_site in
  List.fold_left
    (fun strands fault ->
      match fault with
      | Strand_dropout p -> keep_filter rng p strands
      | _ -> strands)
    strands plan.faults

let truncate_read rng ~keep_min (s : Dna.Strand.t) =
  let n = Dna.Strand.length s in
  if n <= 1 then s
  else begin
    let frac = keep_min +. (Dna.Rng.float rng *. (1.0 -. keep_min)) in
    let keep = max 1 (min n (int_of_float (frac *. float_of_int n))) in
    Dna.Strand.sub s ~pos:0 ~len:keep
  end

let corrupt_read rng rate (s : Dna.Strand.t) =
  Dna.Strand.init_codes (Dna.Strand.length s) (fun i ->
      let code = Dna.Strand.get_code s i in
      if Dna.Rng.float rng < rate then (code + 1 + Dna.Rng.int rng 3) land 3 else code)

let inject_reads plan (reads : Dna.Strand.t array) : Dna.Strand.t array =
  let rng = site_rng plan read_site in
  List.fold_left
    (fun reads fault ->
      match fault with
      | Undersampling f ->
          let n = Array.length reads in
          if n = 0 then reads
          else begin
            let k = max 1 (min n (int_of_float (f *. float_of_int n))) in
            let idx = Dna.Rng.sample_indices rng ~n ~k in
            Array.sort compare idx;
            Array.map (fun i -> reads.(i)) idx
          end
      | Read_truncation { p; keep_min } ->
          Array.map
            (fun r -> if Dna.Rng.float rng < p then truncate_read rng ~keep_min r else r)
            reads
      | Read_corruption rate -> Array.map (corrupt_read rng rate) reads
      | _ -> reads)
    reads plan.faults

(* Cluster loss over the pipeline's clusters, which are index slices
   into the read arena: one float per cluster per Cluster_loss, drawn
   from the cluster site's stream. *)
let inject_cluster_slices plan (clusters : int array list) : int array list =
  let rng = site_rng plan cluster_site in
  List.fold_left
    (fun clusters fault ->
      match fault with
      | Cluster_loss p -> List.filter (fun _ -> Dna.Rng.float rng >= p) clusters
      | _ -> clusters)
    clusters plan.faults

(* ---------- the named scenario matrix ---------- *)

type scenario = {
  scenario_name : string;
  scenario_faults : fault list;
  min_recovered : float;
      (** recovered-fraction floor this scenario must report (0.0 when
          the fault budget intentionally exceeds what RS erasures can
          absorb and only never-raise is asserted) *)
}

let scenarios =
  [
    { scenario_name = "clean"; scenario_faults = []; min_recovered = 1.0 };
    { scenario_name = "dropout-10"; scenario_faults = [ Strand_dropout 0.10 ]; min_recovered = 0.9 };
    { scenario_name = "dropout-20"; scenario_faults = [ Strand_dropout 0.20 ]; min_recovered = 0.0 };
    { scenario_name = "cluster-loss-10"; scenario_faults = [ Cluster_loss 0.10 ]; min_recovered = 0.9 };
    {
      scenario_name = "truncation";
      scenario_faults = [ Read_truncation { p = 0.1; keep_min = 0.5 } ];
      min_recovered = 0.9;
    };
    { scenario_name = "corruption-2"; scenario_faults = [ Read_corruption 0.02 ]; min_recovered = 0.9 };
    { scenario_name = "undersample-70"; scenario_faults = [ Undersampling 0.7 ]; min_recovered = 0.9 };
    { scenario_name = "undersample-50"; scenario_faults = [ Undersampling 0.5 ]; min_recovered = 0.0 };
    {
      scenario_name = "combined";
      scenario_faults = [ Strand_dropout 0.05; Read_corruption 0.01; Cluster_loss 0.05 ];
      min_recovered = 0.9;
    };
    { scenario_name = "crash-cluster"; scenario_faults = [ Stage_crash Cluster ]; min_recovered = 0.0 };
    {
      scenario_name = "stuck-reconstruct";
      scenario_faults = [ Stage_stuck Reconstruct ];
      min_recovered = 0.9;
    };
    { scenario_name = "crash-decode"; scenario_faults = [ Stage_crash Decode ]; min_recovered = 0.0 };
    { scenario_name = "crash-encode"; scenario_faults = [ Stage_crash Encode ]; min_recovered = 0.0 };
  ]

let find_scenario name = List.find_opt (fun s -> s.scenario_name = name) scenarios

let plan_of_scenario ~seed s = { seed; faults = s.scenario_faults }
