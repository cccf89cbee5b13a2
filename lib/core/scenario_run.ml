(** Execute declarative scenarios ({!Simulator.Scenario}) through the
    end-to-end pipeline, resolving their fault-plan floors against the
    named {!Faults} matrix — the layer where the simulator's plain-data
    scenario descriptions meet injection and recovery accounting.

    Determinism: one seed fixes everything — the pipeline rng, the fault
    plan and the error-rate probe — so [run] with equal (scenario,
    fault, seed, data) replays bit-identically. *)

type outcome = {
  scenario : string;
  fault : string;  (** fault-plan name from the {!Faults} matrix *)
  seed : int;
  n_bytes : int;
  exact : bool;
  recovered_fraction : float;
  configured_error_rate : float;
      (** analytic per-base rate of the scenario's read-level stack *)
  realized_error_rate : float;
      (** measured by probing the composed channel against known strands *)
  floor : float option;
      (** the scenario's recovered-fraction floor for this fault plan *)
  passed : bool;  (** [recovered_fraction >= floor] (true when no floor) *)
  wall_s : float;
}

(* Probe the composed read-level channel with its own derived stream:
   mean of the per-position error profile over [trials] transmissions.
   Derived (not the pipeline rng) so probing never perturbs the replay. *)
let realized_rate ?(strand_len = 120) ?(trials = 200) channel ~seed =
  let rng = Dna.Rng.create (seed lxor 0x5ca1ab1e) in
  let profile = Simulator.Channel.measure_error_profile channel rng ~strand_len ~trials in
  let n = Array.length profile in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 profile /. float_of_int n

let run_full ?params ?layout ?(coverage = 10) ?domains ?(fault = "clean") ~seed ~data
    (scenario : Simulator.Scenario.t) =
  match Simulator.Scenario.build scenario with
  | Error e -> Error (Printf.sprintf "scenario %s: %s" scenario.Simulator.Scenario.name e)
  | Ok built -> (
      match Faults.find_scenario fault with
      | None -> Error (Printf.sprintf "unknown fault scenario %S" fault)
      | Some fs ->
          let plan = Faults.plan_of_scenario ~seed fs in
          let stages =
            { (Pipeline.default_stages ~coverage ()) with Pipeline.channel = built.channel }
          in
          let rng = Dna.Rng.create seed in
          let t0 = Dna.Clock.now () in
          let out =
            Pipeline.run ?params ?layout ~stages ?domains ~faults:plan
              ?prepare:built.Simulator.Scenario.prepare rng data
          in
          let wall_s = Dna.Clock.now () -. t0 in
          let recovered_fraction =
            out.Pipeline.partial.Codec.File_codec.recovered_fraction
          in
          let floor = List.assoc_opt fault scenario.Simulator.Scenario.floors in
          let passed = match floor with None -> true | Some f -> recovered_fraction >= f in
          Ok
            ( {
                scenario = scenario.Simulator.Scenario.name;
                fault;
                seed;
                n_bytes = Bytes.length data;
                exact = out.Pipeline.exact;
                recovered_fraction;
                configured_error_rate = built.Simulator.Scenario.configured_error_rate;
                realized_error_rate = realized_rate built.Simulator.Scenario.channel ~seed;
                floor;
                passed;
                wall_s;
              },
              out ))

let run ?params ?layout ?coverage ?domains ?fault ~seed ~data scenario =
  Result.map fst (run_full ?params ?layout ?coverage ?domains ?fault ~seed ~data scenario)

let sweep ?params ?layout ?coverage ?domains ~faults ~seeds ~data scenarios =
  let ( let* ) = Result.bind in
  let rec over_scenarios acc = function
    | [] -> Ok (List.rev acc)
    | sc :: rest ->
        (* Every floor the scenario declares must name a known fault
           plan, whether or not this sweep exercises it. *)
        let* () =
          List.fold_left
            (fun ok (fault, _) ->
              let* () = ok in
              match Faults.find_scenario fault with
              | Some _ -> Ok ()
              | None ->
                  Error
                    (Printf.sprintf "scenario %s: floor references unknown fault %S"
                       sc.Simulator.Scenario.name fault))
            (Ok ()) sc.Simulator.Scenario.floors
        in
        let rec over_faults acc = function
          | [] -> Ok acc
          | fault :: faults ->
              let rec over_seeds acc = function
                | [] -> Ok acc
                | seed :: seeds ->
                    let* o = run ?params ?layout ?coverage ?domains ~fault ~seed ~data sc in
                    over_seeds (o :: acc) seeds
              in
              let* acc = over_seeds acc seeds in
              over_faults acc faults
        in
        let* acc = over_faults acc faults in
        over_scenarios acc rest
  in
  over_scenarios [] scenarios

let failures outcomes = List.filter (fun o -> not o.passed) outcomes

(* JSON for sweep artifacts (BENCH_scenarios.json, --out files): one
   object per cell, shaped for a guard script to assert floors on. *)
let outcome_json (o : outcome) =
  Store_json.Obj
    [
      ("scenario", Store_json.String o.scenario);
      ("fault", Store_json.String o.fault);
      ("seed", Store_json.Int o.seed);
      ("n_bytes", Store_json.Int o.n_bytes);
      ("exact", Store_json.Bool o.exact);
      ("recovered_fraction", Store_json.Float o.recovered_fraction);
      ("configured_error_rate", Store_json.Float o.configured_error_rate);
      ("realized_error_rate", Store_json.Float o.realized_error_rate);
      ( "floor",
        match o.floor with None -> Store_json.Null | Some f -> Store_json.Float f );
      ("passed", Store_json.Bool o.passed);
      ("wall_s", Store_json.Float o.wall_s);
    ]

let outcomes_json outcomes =
  Store_json.Obj
    [
      ("cells", Store_json.List (List.map outcome_json outcomes));
      ("n_cells", Store_json.Int (List.length outcomes));
      ("n_failed", Store_json.Int (List.length (failures outcomes)));
    ]
