(** Declarative scenario engine: composable channel stacks.

    A scenario names an ordered stack of stages — pool-level physics
    (archive aging, PCR amplification bias) followed by read-level
    channels (iid, wetlab, bursty nanopore, trace replay) — plus
    recovered-fraction floors keyed by fault-plan name. Scenarios are
    plain data: they serialize to JSON ({!to_json}/{!of_json}), so a
    sweep configuration can live in a file, travel with a benchmark
    result, and replay bit-identically from (scenario, seed) alone.

    [build] compiles the stack into the two hooks the pipeline exposes:
    one {!Channel.t} (read stages composed in order: each stage reads
    the previous stage's whole read, and the last one writes into the
    pool) and one pool [prepare] function (pool stages folded in
    order).

    Floors reference fault scenarios by {e name} only — the simulator
    layer cannot see [Faults]; the resolution happens one layer up in
    [Scenario_run]. *)

type channel_spec =
  | Noiseless
  | Iid of float  (** total error rate, split evenly across ins/del/sub *)
  | Wetlab of float  (** base_error scale on {!Wetlab_channel.default_params} *)
  | Burst of Burst_channel.params
  | Trace of string  (** FASTQ path the profile is fitted from *)

type stage =
  | Age of Aging_channel.params
  | Amplify of { pcr : Pcr.params; depth_factor : float }
  | Read of channel_spec

type t = {
  name : string;
  description : string;
  stages : stage list;
  floors : (string * float) list;
      (** fault-plan name -> recovered-fraction floor; names are
          resolved against [Faults.scenarios] by [Scenario_run] *)
}

(* ------------------------------------------------------------------ *)
(* Compilation *)

type built = {
  channel : Channel.t;
  prepare : (Dna.Rng.t -> Dna.Strand.t array -> Dna.Strand.t array) option;
  configured_error_rate : float;
      (** analytic per-base error rate of the read-level stack *)
}

(* A read stage's channel and its configured per-base rate. *)
let spec_channel = function
  | Noiseless -> Ok (Channel.noiseless, 0.0)
  | Iid rate -> Ok (Iid_channel.create_rate ~error_rate:rate, rate)
  | Wetlab base_error ->
      Ok
        ( Wetlab_channel.create ~params:{ Wetlab_channel.default_params with base_error } (),
          base_error )
  | Burst params -> Ok (Burst_channel.create ~params (), Burst_channel.mean_error_rate params)
  | Trace path ->
      Result.map
        (fun profile -> (Trace_channel.create profile, profile.Trace_channel.mean_rate))
        (Trace_channel.fit path)

(* Chain read channels: each front channel's read is a whole strand
   before the next one sees it, and the last stage writes into the
   pool. *)
let chain = function
  | [] -> Channel.noiseless
  | [ c ] -> c
  | chans ->
      let rec split_last acc = function
        | [] -> assert false
        | [ last ] -> (List.rev acc, last)
        | c :: rest -> split_last (c :: acc) rest
      in
      let front, last = split_last [] chans in
      {
        Channel.name = String.concat "+" (List.map Channel.name chans);
        transmit_into =
          (fun rng strand pool ->
            let read = List.fold_left (fun s c -> Channel.transmit c rng s) strand front in
            Channel.transmit_into last rng read pool);
      }

let build t =
  let rec collect specs pools rate = function
    | [] -> Ok (List.rev specs, List.rev pools, rate)
    | Age params :: rest ->
        let f rng strands = Aging_channel.age_pool ~params rng strands in
        collect specs (f :: pools) rate rest
    | Amplify { pcr; depth_factor } :: rest ->
        if depth_factor <= 0.0 then Error "scenario: depth_factor must be positive"
        else
          let f rng strands = Pcr.amplify_sample ~params:pcr ~depth_factor rng strands in
          collect specs (f :: pools) rate rest
    | Read spec :: rest -> (
        match spec_channel spec with
        | Error e -> Error e
        | Ok (c, r) -> collect (c :: specs) pools (rate +. r) rest)
  in
  match collect [] [] 0.0 t.stages with
  | Error e -> Error e
  | Ok (chans, pools, configured_error_rate) ->
      let prepare =
        match pools with
        | [] -> None
        | pools -> Some (fun rng strands -> List.fold_left (fun s f -> f rng s) strands pools)
      in
      Ok { channel = chain chans; prepare; configured_error_rate }

let spec_label = function
  | Noiseless -> "noiseless"
  | Iid rate -> Printf.sprintf "iid %.1f%%" (100.0 *. rate)
  | Wetlab base_error -> Printf.sprintf "wetlab %.1f%%" (100.0 *. base_error)
  | Burst p -> Printf.sprintf "burst %.1f%%" (100.0 *. Burst_channel.mean_error_rate p)
  | Trace path -> if path = "" then "trace <unset>" else Printf.sprintf "trace %s" path

let stage_label = function
  | Age p -> Printf.sprintf "age %.0fy" p.Aging_channel.years
  | Amplify { pcr; depth_factor } ->
      Printf.sprintf "pcr x%d sd%.2f depth%.1f" pcr.Pcr.cycles pcr.bias_sd depth_factor
  | Read spec -> spec_label spec

let summary t = String.concat " -> " (List.map stage_label t.stages)

let has_trace t =
  List.exists (function Read (Trace _) -> true | _ -> false) t.stages

let with_trace_path t path =
  {
    t with
    stages = List.map (function Read (Trace _) -> Read (Trace path) | s -> s) t.stages;
  }

(* ------------------------------------------------------------------ *)
(* JSON *)

module J = Store_json

let spec_to_json = function
  | Noiseless -> [ ("channel", J.String "noiseless") ]
  | Iid rate -> [ ("channel", J.String "iid"); ("rate", J.Float rate) ]
  | Wetlab base_error -> [ ("channel", J.String "wetlab"); ("base_error", J.Float base_error) ]
  | Burst p ->
      [
        ("channel", J.String "burst");
        ("p_enter", J.Float p.Burst_channel.p_enter);
        ("p_exit", J.Float p.p_exit);
        ("p_good", J.Float p.p_good);
        ("p_bad", J.Float p.p_bad);
        ("bad_del", J.Float p.bad_del);
        ("bad_ins", J.Float p.bad_ins);
      ]
  | Trace path -> [ ("channel", J.String "trace"); ("path", J.String path) ]

let stage_to_json = function
  | Age p ->
      J.Obj
        [
          ("stage", J.String "age");
          ("years", J.Float p.Aging_channel.years);
          ("thermal_per_day", J.Float p.thermal_per_day);
          ("hydrolytic_per_day", J.Float p.hydrolytic_per_day);
          ("oxidative_per_day", J.Float p.oxidative_per_day);
          ("per_base_scale", J.Float p.per_base_scale);
          ("sub_fraction", J.Float p.sub_fraction);
          ("end_bias", J.Float p.end_bias);
        ]
  | Amplify { pcr; depth_factor } ->
      J.Obj
        [
          ("stage", J.String "amplify");
          ("cycles", J.Int pcr.Pcr.cycles);
          ("efficiency", J.Float pcr.efficiency);
          ("p_sub", J.Float pcr.p_sub);
          ("bias_sd", J.Float pcr.bias_sd);
          ("depth_factor", J.Float depth_factor);
        ]
  | Read spec -> J.Obj (("stage", J.String "read") :: spec_to_json spec)

let to_json t =
  J.Obj
    [
      ("name", J.String t.name);
      ("description", J.String t.description);
      ("stages", J.List (List.map stage_to_json t.stages));
      ( "floors",
        J.List
          (List.map
             (fun (fault, min_recovered) ->
               J.Obj [ ("fault", J.String fault); ("min_recovered", J.Float min_recovered) ])
             t.floors) );
    ]

let to_string t = J.to_string (to_json t)

let ( let* ) = Result.bind

let spec_of_json j =
  let* kind = J.string_field j "channel" in
  match kind with
  | "noiseless" -> Ok Noiseless
  | "iid" ->
      let* rate = J.float_field j "rate" in
      Ok (Iid rate)
  | "wetlab" ->
      let* base_error = J.float_field j "base_error" in
      Ok (Wetlab base_error)
  | "burst" ->
      let* p_enter = J.float_field j "p_enter" in
      let* p_exit = J.float_field j "p_exit" in
      let* p_good = J.float_field j "p_good" in
      let* p_bad = J.float_field j "p_bad" in
      let* bad_del = J.float_field j "bad_del" in
      let* bad_ins = J.float_field j "bad_ins" in
      Ok (Burst { Burst_channel.p_enter; p_exit; p_good; p_bad; bad_del; bad_ins })
  | "trace" ->
      let* path = J.string_field j "path" in
      Ok (Trace path)
  | other -> Error (Printf.sprintf "scenario: unknown channel %S" other)

let stage_of_json j =
  let* kind = J.string_field j "stage" in
  match kind with
  | "age" ->
      let* years = J.float_field j "years" in
      let* thermal_per_day = J.float_field j "thermal_per_day" in
      let* hydrolytic_per_day = J.float_field j "hydrolytic_per_day" in
      let* oxidative_per_day = J.float_field j "oxidative_per_day" in
      let* per_base_scale = J.float_field j "per_base_scale" in
      let* sub_fraction = J.float_field j "sub_fraction" in
      let* end_bias = J.float_field j "end_bias" in
      Ok
        (Age
           {
             Aging_channel.years;
             thermal_per_day;
             hydrolytic_per_day;
             oxidative_per_day;
             per_base_scale;
             sub_fraction;
             end_bias;
           })
  | "amplify" ->
      let* cycles = J.int_field j "cycles" in
      let* efficiency = J.float_field j "efficiency" in
      let* p_sub = J.float_field j "p_sub" in
      let* bias_sd = J.float_field j "bias_sd" in
      let* depth_factor = J.float_field j "depth_factor" in
      Ok (Amplify { pcr = { Pcr.cycles; efficiency; p_sub; bias_sd }; depth_factor })
  | "read" ->
      let* spec = spec_of_json j in
      Ok (Read spec)
  | other -> Error (Printf.sprintf "scenario: unknown stage %S" other)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let of_json j =
  let* name = J.string_field j "name" in
  let* description = J.string_field j "description" in
  let* stage_list = J.list_field j "stages" in
  let* stages = map_result stage_of_json stage_list in
  let* floor_list = J.list_field j "floors" in
  let* floors =
    map_result
      (fun fj ->
        let* fault = J.string_field fj "fault" in
        let* min_recovered = J.float_field fj "min_recovered" in
        Ok (fault, min_recovered))
      floor_list
  in
  if name = "" then Error "scenario: empty name"
  else Ok { name; description; stages; floors }

let of_string s =
  let* j = J.of_string s in
  of_json j

(* ------------------------------------------------------------------ *)
(* Builtin registry *)

let baseline_iid =
  {
    name = "baseline-iid";
    description = "control: the pipeline's default 3% iid channel, no pool physics";
    stages = [ Read (Iid 0.03) ];
    floors = [ ("clean", 1.0); ("dropout-10", 0.9); ("corruption-2", 0.9) ];
  }

let aging_5y =
  {
    name = "aging-5y";
    description =
      "5 simulated years of cold-storage decay (dropout + position-biased damage), then a 3% \
       iid sequencer";
    stages =
      [ Age { Aging_channel.default_params with years = 5.0 }; Read (Iid 0.03) ];
    floors = [ ("clean", 0.7); ("dropout-10", 0.2) ];
  }

let pcr_bias =
  {
    name = "pcr-bias";
    description =
      "14 PCR cycles with log-normal per-molecule amplification bias, sequencing the resampled \
       pool through a 3% iid channel";
    stages =
      [
        Amplify
          { pcr = { Pcr.default_params with cycles = 14; bias_sd = 0.12 }; depth_factor = 5.0 };
        Read (Iid 0.03);
      ];
    floors = [ ("clean", 0.95); ("dropout-10", 0.35) ];
  }

let nanopore_burst =
  {
    name = "nanopore-burst";
    description = "Gilbert-Elliott bursty indel channel at nanopore-like rates";
    stages = [ Read (Burst Burst_channel.default_params) ];
    floors = [ ("clean", 0.95); ("corruption-2", 0.9) ];
  }

let archival_decade =
  {
    name = "archival-decade";
    description =
      "the full archival stack: 10 years of decay, then biased PCR recovery amplification, \
       then bursty nanopore readout";
    stages =
      [
        Age { Aging_channel.default_params with years = 10.0 };
        Amplify
          { pcr = { Pcr.default_params with cycles = 12; bias_sd = 0.15 }; depth_factor = 5.0 };
        Read (Burst Burst_channel.default_params);
      ];
    floors = [ ("clean", 0.1) ];
  }

let trace_replay =
  {
    name = "trace-replay";
    description =
      "replay of per-position error statistics fitted from a FASTQ trace (path injected at run \
       time; a deterministic synthetic trace when none is given)";
    stages = [ Read (Trace "") ];
    floors = [ ("clean", 0.95) ];
  }

let builtins =
  [ baseline_iid; aging_5y; pcr_bias; nanopore_burst; archival_decade; trace_replay ]

let find name = List.find_opt (fun t -> t.name = name) builtins
