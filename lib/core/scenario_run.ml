(** Execute declarative scenarios ({!Simulator.Scenario}) through the
    end-to-end pipeline, resolving their floor names against the
    {!Faults} plan registry — the layer where the simulator's
    plain-data scenario descriptions meet injection and recovery
    accounting, and the one robustness harness: every cell is checked
    against its floor and replayed here, nowhere else.

    Determinism: one seed fixes everything — the pipeline rng, the fault
    plan and the error-rate probe — so [run] with equal (scenario,
    fault, seed, data) replays bit-identically. *)

type outcome = {
  scenario : string;
  fault : string;
  seed : int;
  n_bytes : int;
  exact : bool;
  recovered_fraction : float;
  units : int * int * int;
  degraded : string list;
  digest : string;
  replayed : bool;
  configured_error_rate : float;
  realized_error_rate : float;
  floor : float option;
  floor_met : bool;
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

let run ?params ?layout ?(coverage = 10) ?domains ?(fault = "clean") ~seed ~data
    (scenario : Simulator.Scenario.t) =
  match Simulator.Scenario.build scenario with
  | Error e -> Error (Printf.sprintf "scenario %s: %s" scenario.Simulator.Scenario.name e)
  | Ok built -> (
      match List.assoc_opt fault Faults.plans with
      | None -> Error (Printf.sprintf "unknown fault plan %S" fault)
      | Some faults ->
          let stages =
            { (Pipeline.default_stages ~coverage ()) with Pipeline.channel = built.channel }
          in
          let go () =
            Pipeline.run ?params ?layout ~stages ?domains ~faults:(Faults.plan ~seed faults)
              ?prepare:built.Simulator.Scenario.prepare (Dna.Rng.create seed) data
          in
          let t0 = Dna.Clock.now () in
          let out = go () in
          let wall_s = Dna.Clock.now () -. t0 in
          (* The replay contract: the same (scenario, fault, seed, data)
             must reproduce the recovered bytes bit-identically. *)
          let replayed = Pipeline.replays out (go ()) in
          let partial = out.Pipeline.partial in
          let recovered_fraction = partial.Codec.File_codec.recovered_fraction in
          let floor = List.assoc_opt fault scenario.Simulator.Scenario.floors in
          Ok
            {
              scenario = scenario.Simulator.Scenario.name;
              fault;
              seed;
              n_bytes = Bytes.length data;
              exact = out.Pipeline.exact;
              recovered_fraction;
              units = Codec.File_codec.unit_counts partial;
              degraded = List.map (fun (s, _) -> Faults.stage_name s) out.Pipeline.stage_failures;
              digest =
                (match out.Pipeline.file with
                | Some f -> Digest.to_hex (Digest.bytes f)
                | None -> "");
              replayed;
              configured_error_rate = built.Simulator.Scenario.configured_error_rate;
              realized_error_rate = realized_rate built.Simulator.Scenario.channel ~seed;
              floor;
              floor_met = (match floor with None -> true | Some f -> recovered_fraction >= f);
              wall_s;
            })

let sweep ?params ?layout ?coverage ?domains ?faults ~seeds ~data scenarios =
  let ( let* ) = Result.bind in
  let rec each f acc = function
    | [] -> Ok acc
    | x :: rest ->
        let* acc = f acc x in
        each f acc rest
  in
  let scenario acc (sc : Simulator.Scenario.t) =
    (* Every floor the scenario declares must name a known fault plan,
       whether or not this sweep exercises it. *)
    let* () =
      match
        List.find_opt
          (fun (fault, _) -> not (List.mem_assoc fault Faults.plans))
          sc.Simulator.Scenario.floors
      with
      | None -> Ok ()
      | Some (fault, _) ->
          Error
            (Printf.sprintf "scenario %s: floor references unknown fault %S"
               sc.Simulator.Scenario.name fault)
    in
    let plans = match faults with Some fs -> fs | None -> List.map fst sc.floors in
    each
      (fun acc fault ->
        each
          (fun acc seed ->
            let* o = run ?params ?layout ?coverage ?domains ~fault ~seed ~data sc in
            Ok (o :: acc))
          acc seeds)
      acc plans
  in
  Result.map List.rev (each scenario [] scenarios)

let failures outcomes = List.filter (fun o -> not (o.floor_met && o.replayed)) outcomes

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
      ("replayed", Store_json.Bool o.replayed);
      ("configured_error_rate", Store_json.Float o.configured_error_rate);
      ("realized_error_rate", Store_json.Float o.realized_error_rate);
      ( "floor",
        match o.floor with None -> Store_json.Null | Some f -> Store_json.Float f );
      ("passed", Store_json.Bool (o.floor_met && o.replayed));
      ("wall_s", Store_json.Float o.wall_s);
    ]

let outcomes_json outcomes =
  Store_json.Obj
    [
      ("cells", Store_json.List (List.map outcome_json outcomes));
      ("n_cells", Store_json.Int (List.length outcomes));
      ("n_failed", Store_json.Int (List.length (failures outcomes)));
    ]
