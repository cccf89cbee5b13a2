(** Command-line driver for the DNA storage toolkit.

    Each subcommand runs one pipeline module on files, so the stages can
    be exercised and swapped individually, mirroring the paper's modular
    design:

      dnastore encode --input photo.bin --output strands.fasta
      dnastore simulate --strands strands.fasta --output reads.txt
      dnastore cluster --reads reads.txt --output clusters.txt
      dnastore reconstruct --clusters clusters.txt --output consensus.fasta
      dnastore decode --consensus consensus.fasta --meta strands.fasta.meta
      dnastore pipeline --input photo.bin --output recovered.bin *)

open Cmdliner

(* A user error: one line on stderr and exit 1, never an uncaught
   exception. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let or_die = function Ok v -> v | Error e -> die "%s" (Store.error_message e)

(* Sidecar metadata: enough to decode without re-deriving anything. *)
let write_meta path ~(params : Codec.Params.t) ~layout ~n_units =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "payload_nt=%d\nrs_data=%d\nrs_parity=%d\nscramble_seed=%d\nlayout=%s\nn_units=%d\n"
        params.Codec.Params.payload_nt params.rs_data params.rs_parity params.scramble_seed
        (Codec.Layout.name layout) n_units)

(* A sidecar is [key=value] lines. A missing or malformed key is
   reported by name and exits 1: decoding with a guessed value would
   silently yield wrong bytes. *)
let read_sidecar path =
  List.filter_map
    (fun line ->
      match String.index_opt line '=' with
      | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)
    (In_channel.with_open_text path In_channel.input_lines)

let sidecar_field path kv ~expect parse key =
  match List.assoc_opt key kv with
  | None -> die "%s: missing key %s" path key
  | Some v -> (
      match parse v with
      | Some x -> x
      | None -> die "%s: malformed %s=%S (expected %s)" path key v expect)

let read_meta path =
  let kv = read_sidecar path in
  let int key = sidecar_field path kv ~expect:"an integer" int_of_string_opt key in
  let params =
    {
      Codec.Params.payload_nt = int "payload_nt";
      rs_data = int "rs_data";
      rs_parity = int "rs_parity";
      scramble_seed = int "scramble_seed";
    }
  in
  let layout =
    sidecar_field path kv
      ~expect:(String.concat " or " (List.map Codec.Layout.name Codec.Layout.all))
      (fun v -> List.find_opt (fun l -> Codec.Layout.name l = v) Codec.Layout.all)
      "layout"
  in
  (params, layout, int "n_units")

(* Common options *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for reproducibility.")

let input_arg =
  Arg.(required & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Input file.")

(* The process-wide worker count, set as the option is parsed, so no
   subcommand body has to. *)
let domains_arg =
  let set n =
    Dna.Par.set_default_domains n;
    n
  in
  Term.(const set $ Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains."))

let dir_arg =
  Arg.(required & opt (some string) None & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Store directory.")

let key_arg =
  Arg.(required & opt (some string) None & info [ "key"; "k" ] ~docv:"KEY" ~doc:"Object key.")

(* The file a fault or scenario run pushes through the pipeline. *)
let data_arg =
  let input =
    Arg.(value & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE"
         ~doc:"File to push through the pipeline (default: a deterministic pseudo-random payload).")
  in
  let bytes =
    Arg.(value & opt int 2000 & info [ "bytes" ] ~docv:"N"
         ~doc:"Size of the generated payload when no $(b,--input) is given.")
  in
  let data input bytes =
    match input with
    | Some path -> Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
    | None ->
        let r = Dna.Rng.create 0xF11E in
        Bytes.init bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  Term.(const data $ input $ bytes)

let seeds_arg =
  let nonempty = function [] -> die "no valid seeds" | seeds -> seeds in
  Term.(
    const nonempty
    $ Arg.(value & opt (list int) [ 1; 2 ] & info [ "seeds" ] ~docv:"SEEDS"
           ~doc:"Comma-separated replay seeds; every run repeats once per seed."))

let layout_arg =
  let layout_conv =
    Arg.enum [ ("baseline", Codec.Layout.Baseline); ("gini", Codec.Layout.Gini) ]
  in
  Arg.(value & opt layout_conv Codec.Layout.Baseline & info [ "layout" ] ~docv:"LAYOUT"
       ~doc:"Codeword layout: $(b,baseline) (Organick) or $(b,gini) (diagonal).")

let payload_arg =
  Arg.(value & opt int 120 & info [ "payload" ] ~docv:"NT"
       ~doc:"Payload bases per molecule (multiple of 4).")

let parity_arg =
  Arg.(value & opt int 6 & info [ "parity" ] ~docv:"N" ~doc:"Reed-Solomon parity molecules per unit.")

let data_cols_arg =
  Arg.(value & opt int 20 & info [ "data-columns" ] ~docv:"N" ~doc:"Data molecules per encoding unit.")

let params_of ~payload ~data_cols ~parity =
  { Codec.Params.default with Codec.Params.payload_nt = payload; rs_data = data_cols; rs_parity = parity }

let channel_arg =
  let kinds = List.map (fun k -> (Simulator.Channel_kind.name k, k)) Simulator.Channel_kind.all in
  Arg.(value & opt (enum kinds) Simulator.Channel_kind.Iid
       & info [ "channel" ] ~docv:"CHANNEL"
         ~doc:"Wetlab simulator: $(b,iid) (Rashtchian), $(b,solqc), or $(b,wetlab) (position-dependent, bursty).")

let error_rate_arg =
  Arg.(value & opt float 0.06 & info [ "error-rate" ] ~docv:"P" ~doc:"Total per-base error rate.")

let coverage_arg =
  Arg.(value & opt int 10 & info [ "coverage" ] ~docv:"N" ~doc:"Sequencing reads per strand.")

let recon_arg =
  Arg.(value & opt (enum [ ("bma", `Bma); ("dbma", `Dbma); ("nw", `Nw); ("ensemble", `Ensemble) ]) `Nw
       & info [ "algorithm" ] ~docv:"ALGO"
         ~doc:"Trace reconstruction: $(b,bma), $(b,dbma) (double-sided), $(b,nw)                (Needleman-Wunsch), or $(b,ensemble) (vote of all three).")

(* Reconstructors over cluster index-slices of a read arena. *)
let make_recon = function
  | `Bma -> Reconstruction.Bma.reconstruct_pool
  | `Dbma -> Reconstruction.Bma.reconstruct_double_pool
  | `Nw -> Reconstruction.Nw_consensus.reconstruct_pool
  | `Ensemble -> Reconstruction.Ensemble.reconstruct_pool

let sig_kind_arg =
  Arg.(value & opt (enum [ ("qgram", Clustering.Signature.Qgram); ("wgram", Clustering.Signature.Wgram) ])
         Clustering.Signature.Qgram
       & info [ "signature" ] ~docv:"KIND" ~doc:"Clustering signature: $(b,qgram) or $(b,wgram).")

(* encode *)

let encode_cmd =
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FASTA" ~doc:"Output FASTA of encoded strands.") in
  let run input output layout payload data_cols parity =
    let params = params_of ~payload ~data_cols ~parity in
    let data = Bytes.of_string (In_channel.with_open_bin input In_channel.input_all) in
    let encoded = Codec.File_codec.encode ~layout ~params data in
    let records =
      Array.to_list
        (Array.mapi
           (fun i s -> { Dna.Fasta.id = Printf.sprintf "strand_%d" i; seq = s })
           encoded.Codec.File_codec.strands)
    in
    Dna.Fasta.write_file output records;
    write_meta (output ^ ".meta") ~params ~layout ~n_units:encoded.Codec.File_codec.n_units;
    Printf.printf "encoded %d bytes -> %d strands (%d units) in %s (+.meta)\n"
      (Bytes.length data) (Array.length encoded.Codec.File_codec.strands)
      encoded.Codec.File_codec.n_units output
  in
  Cmd.v (Cmd.info "encode" ~doc:"Encode a binary file into DNA strands.")
    Term.(const run $ input_arg $ output $ layout_arg $ payload_arg $ data_cols_arg $ parity_arg)

(* simulate *)

let simulate_cmd =
  let strands = Arg.(required & opt (some file) None & info [ "strands"; "s" ] ~docv:"FASTA" ~doc:"Encoded strands.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output reads (.txt: one read per line; .fastq).") in
  let run strands output channel error_rate coverage seed =
    let rng = Dna.Rng.create seed in
    let records, errors = Dna.Fasta.read_file strands in
    if errors <> [] then Printf.eprintf "warning: %d malformed FASTA records skipped\n" (List.length errors);
    let molecules = Array.of_list (List.map (fun r -> r.Dna.Fasta.seq) records) in
    let ch = Simulator.Channel_kind.create channel ~error_rate in
    let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
    let reads = Dna.Strand_pool.create () in
    ignore (Simulator.Sequencer.sequence_pool sp ch rng molecules ~pool:reads);
    let seqs = Dna.Strand_pool.to_array reads in
    Out_channel.with_open_text output (fun oc ->
        if Filename.check_suffix output ".fastq" then
          output_string oc (Dnastore.Wetlab_io.export_fastq seqs)
        else
          output_string oc
            (String.concat "\n" (Array.to_list (Array.map Dna.Strand.to_string seqs)) ^ "\n"));
    Printf.printf "simulated %d reads (%s channel, rate %.3f, coverage %d) -> %s\n"
      (Array.length seqs) (Simulator.Channel.name ch) error_rate coverage output
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate wetlab noise over encoded strands.")
    Term.(const run $ strands $ output $ channel_arg $ error_rate_arg $ coverage_arg $ seed_arg)

(* cluster *)

let cluster_cmd =
  let reads = Arg.(required & opt (some file) None & info [ "reads"; "r" ] ~docv:"FILE" ~doc:"Reads, one per line.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Clusters: reads grouped by blank lines.") in
  let run reads_path output kind seed domains =
    let pool = Dna.Strand_pool.create () in
    List.iter
      (fun l ->
        let l = String.trim l in
        if l <> "" then
          Option.iter (fun s -> ignore (Dna.Strand_pool.add_strand pool s)) (Dna.Strand.of_string_opt l))
      (In_channel.with_open_text reads_path In_channel.input_lines);
    if Dna.Strand_pool.length pool = 0 then die "%s: no reads" reads_path;
    (* The pipeline's own clustering stage, so this subcommand clusters
       exactly as [pipeline], the store and [serve] do. *)
    let clusters = Dnastore.Pipeline.cluster_default ~kind ~domains () (Dna.Rng.create seed) pool in
    Out_channel.with_open_text output (fun oc ->
        List.iter
          (fun members ->
            Array.iter
              (fun i -> output_string oc (Dna.Strand.to_string (Dna.Strand_pool.get pool i) ^ "\n"))
              members;
            output_char oc '\n')
          clusters);
    Printf.printf "clustered %d reads into %d clusters -> %s\n" (Dna.Strand_pool.length pool)
      (List.length clusters) output
  in
  Cmd.v (Cmd.info "cluster" ~doc:"Cluster noisy reads by similarity.")
    Term.(const run $ reads $ output $ sig_kind_arg $ seed_arg $ domains_arg)

(* reconstruct *)

let reconstruct_cmd =
  let clusters = Arg.(required & opt (some file) None & info [ "clusters"; "c" ] ~docv:"FILE" ~doc:"Clusters file (blank-line separated).") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FASTA" ~doc:"Consensus strands.") in
  let target = Arg.(required & opt (some int) None & info [ "length"; "l" ] ~docv:"NT" ~doc:"Expected strand length.") in
  let run clusters_path output target algo domains =
    (* Every read goes into one arena; each group becomes an index slice. *)
    let pool = Dna.Strand_pool.create () in
    let groups = ref [] and cur = ref [] in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line = "" then begin
          if !cur <> [] then groups := Array.of_list (List.rev !cur) :: !groups;
          cur := []
        end
        else
          match Dna.Strand.of_string_opt line with
          | Some s -> cur := Dna.Strand_pool.add_strand pool s :: !cur
          | None -> ())
      (In_channel.with_open_text clusters_path In_channel.input_lines);
    if !cur <> [] then groups := Array.of_list (List.rev !cur) :: !groups;
    let groups = Array.of_list (List.rev !groups) in
    let recon = make_recon algo in
    let consensus =
      Dna.Par.map_array ~label:"cli.reconstruct" ~domains
        (fun idxs -> if Array.length idxs = 0 then None else Some (recon ~target_len:target pool idxs))
        groups
    in
    let records =
      Array.to_list consensus |> List.filteri (fun _ c -> c <> None)
      |> List.mapi (fun i c -> { Dna.Fasta.id = Printf.sprintf "consensus_%d" i; seq = Option.get c })
    in
    Dna.Fasta.write_file output records;
    Printf.printf "reconstructed %d consensus strands -> %s\n" (List.length records) output
  in
  Cmd.v (Cmd.info "reconstruct" ~doc:"Reconstruct original strands from clusters.")
    Term.(const run $ clusters $ output $ target $ recon_arg $ domains_arg)

(* decode *)

let decode_cmd =
  let consensus = Arg.(required & opt (some file) None & info [ "consensus"; "c" ] ~docv:"FASTA" ~doc:"Reconstructed strands.") in
  let meta = Arg.(required & opt (some file) None & info [ "meta"; "m" ] ~docv:"META" ~doc:"Metadata sidecar written by encode.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Recovered file.") in
  let run consensus meta output =
    let params, layout, n_units = read_meta meta in
    let records, _ = Dna.Fasta.read_file consensus in
    let strands = List.map (fun r -> r.Dna.Fasta.seq) records in
    match Codec.File_codec.decode ~layout ~params ~n_units strands with
    | Ok (bytes, stats) ->
        Out_channel.with_open_bin output (fun oc -> Out_channel.output_bytes oc bytes);
        let failed =
          Array.fold_left
            (fun a u -> a + List.length u.Codec.Matrix_codec.failed_codewords)
            0 stats.Codec.File_codec.units
        in
        Printf.printf "decoded %d bytes -> %s (failed codewords: %d, missing molecules: %d)\n"
          (Bytes.length bytes) output failed stats.Codec.File_codec.missing_strands
    | Error e -> die "decode failed: %s" (Codec.File_codec.error_message e)
  in
  Cmd.v (Cmd.info "decode" ~doc:"Decode reconstructed strands back into the file.")
    Term.(const run $ consensus $ meta $ output)

(* pipeline *)

let pipeline_cmd =
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Recovered file.") in
  let run input output layout payload data_cols parity channel error_rate coverage algo kind seed
      domains =
    let params = params_of ~payload ~data_cols ~parity in
    let rng = Dna.Rng.create seed in
    let stages =
      {
        Dnastore.Pipeline.channel = Simulator.Channel_kind.create channel ~error_rate;
        sequencing = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage);
        cluster = Dnastore.Pipeline.cluster_default ~kind ~domains ();
        reconstruct = make_recon algo;
      }
    in
    let data = Bytes.of_string (In_channel.with_open_bin input In_channel.input_all) in
    let out = Dnastore.Pipeline.run ~params ~layout ~stages ~domains rng data in
    Option.iter
      (fun bytes -> Out_channel.with_open_bin output (fun oc -> Out_channel.output_bytes oc bytes))
      out.Dnastore.Pipeline.file;
    let t = out.Dnastore.Pipeline.timings in
    Printf.printf
      "pipeline: %s (strands=%d reads=%d clusters=%d)\n\
       latency: encode=%.2fs simulate=%.2fs cluster=%.2fs reconstruct=%.2fs decode=%.2fs total=%.2fs\n"
      (if out.Dnastore.Pipeline.exact then "file recovered exactly"
       else "RECOVERY INCOMPLETE (bytes differ)")
      out.n_strands out.n_reads out.n_clusters t.Dnastore.Pipeline.encode_s t.simulate_s
      t.cluster_s t.reconstruct_s t.decode_s (Dnastore.Pipeline.total_s t);
    print_string
      (Dnastore.Report.recon_percentiles ~p50_s:t.Dnastore.Pipeline.reconstruct_p50_s
         ~p95_s:t.Dnastore.Pipeline.reconstruct_p95_s);
    print_string
      (Dnastore.Report.recon_alloc ~n_clusters:out.Dnastore.Pipeline.n_clusters
         ~words_per_cluster:out.Dnastore.Pipeline.reconstruct_words_per_cluster);
    if not out.Dnastore.Pipeline.exact then
      print_string (Dnastore.Report.recovery out.Dnastore.Pipeline.partial);
    (match Dna.Par.counters () with
    | [] -> ()
    | counters -> print_string (Dnastore.Report.par_counters counters));
    if not out.Dnastore.Pipeline.exact then exit 1
  in
  Cmd.v (Cmd.info "pipeline" ~doc:"Run the full encode-simulate-cluster-reconstruct-decode pipeline.")
    Term.(const run $ input_arg $ output $ layout_arg $ payload_arg $ data_cols_arg $ parity_arg
          $ channel_arg $ error_rate_arg $ coverage_arg $ recon_arg $ sig_kind_arg $ seed_arg
          $ domains_arg)

(* faults: run the named fault-scenario matrix and print a recovery
   report. The graceful-degradation contract under test: the pipeline
   never raises, reports what fraction of the file survived, and every
   scenario replays bit-identically from its seed. *)

let faults_cmd =
  let scenario_arg =
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
         ~doc:"Run only this scenario (default: the whole matrix). Use $(b,--list) to see names.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenario matrix and exit.")
  in
  let run data scenario_name seeds list_only _domains =
    if list_only then begin
      print_string
        (Dnastore.Report.table
           ([ "scenario"; "faults"; "min recovered" ]
           :: List.map
                (fun s ->
                  [
                    s.Dnastore.Faults.scenario_name;
                    (match s.Dnastore.Faults.scenario_faults with
                    | [] -> "(none)"
                    | fs -> String.concat " " (List.map Dnastore.Faults.fault_name fs));
                    Printf.sprintf "%.2f" s.Dnastore.Faults.min_recovered;
                  ])
                Dnastore.Faults.scenarios))
    end
    else begin
      let scenarios =
        match scenario_name with
        | None -> Dnastore.Faults.scenarios
        | Some name -> (
            match Dnastore.Faults.find_scenario name with
            | Some s -> [ s ]
            | None -> die "faults: unknown scenario %s" name)
      in
      let violations = ref [] in
      let run_one scenario seed =
        let go () =
          let rng = Dna.Rng.create seed in
          Dnastore.Pipeline.run ~faults:(Dnastore.Faults.plan_of_scenario ~seed scenario) rng data
        in
        let out = go () in
        (* Replay: the same pipeline and fault seeds must reproduce the
           outcome bit-identically. *)
        let replay_ok = Dnastore.Pipeline.replays out (go ()) in
        let fraction = out.Dnastore.Pipeline.partial.Codec.File_codec.recovered_fraction in
        if fraction < scenario.Dnastore.Faults.min_recovered then
          violations :=
            Printf.sprintf "%s seed %d: recovered %.4f < floor %.2f"
              scenario.Dnastore.Faults.scenario_name seed fraction
              scenario.Dnastore.Faults.min_recovered
            :: !violations;
        if not replay_ok then
          violations :=
            Printf.sprintf "%s seed %d: replay diverged" scenario.Dnastore.Faults.scenario_name seed
            :: !violations;
        (out, fraction, replay_ok)
      in
      let rows = ref [] in
      List.iter
        (fun scenario ->
          List.iter
            (fun seed ->
              let out, fraction, replay_ok = run_one scenario seed in
              let r, d, l =
                Array.fold_left
                  (fun (r, d, l) s ->
                    match s with
                    | Codec.File_codec.Recovered -> (r + 1, d, l)
                    | Codec.File_codec.Degraded _ -> (r, d + 1, l)
                    | Codec.File_codec.Lost -> (r, d, l + 1))
                  (0, 0, 0)
                  out.Dnastore.Pipeline.partial.Codec.File_codec.unit_status
              in
              rows :=
                [
                  scenario.Dnastore.Faults.scenario_name;
                  string_of_int seed;
                  (if out.Dnastore.Pipeline.exact then "exact"
                   else if out.Dnastore.Pipeline.file <> None then "partial"
                   else "failed");
                  Printf.sprintf "%.4f" fraction;
                  Printf.sprintf "%d/%d/%d" r d l;
                  (if replay_ok then "ok" else "DIVERGED");
                  (match out.Dnastore.Pipeline.stage_failures with
                  | [] -> "-"
                  | fs ->
                      String.concat ";"
                        (List.map (fun (s, _) -> Dnastore.Faults.stage_name s) fs));
                ]
                :: !rows)
            seeds)
        scenarios;
      print_string
        (Dnastore.Report.table
           ([ "scenario"; "seed"; "outcome"; "recovered"; "units R/D/L"; "replay"; "degraded stages" ]
           :: List.rev !rows));
      match !violations with
      | [] -> Printf.printf "\nfault matrix clean: %d scenario runs, no contract violations\n"
                (List.length scenarios * List.length seeds)
      | vs ->
          Printf.eprintf "\n%d contract violation(s):\n" (List.length vs);
          List.iter (fun v -> Printf.eprintf "  %s\n" v) (List.rev vs);
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run the fault-injection scenario matrix and print a recovery report.")
    Term.(const run $ data_arg $ scenario_arg $ seeds_arg $ list_arg $ domains_arg)

(* scenario: the declarative channel-stack engine. list/describe browse
   the builtin registry; run executes one (scenario, fault) cell per
   seed and double-checks bit-identical replay; sweep runs the scenario
   x fault-plan matrix and asserts every recovered-fraction floor. *)

let scenario_cmd =
  let action =
    Arg.(
      required
      & pos 0
          (some (enum [ ("list", `List); ("describe", `Describe); ("run", `Run); ("sweep", `Sweep) ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,list) the builtin scenarios, $(b,describe) one as JSON, $(b,run) one \
             scenario/fault cell per seed (with a replay check), or $(b,sweep) the scenario x \
             fault matrix against its floors.")
  in
  let name_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"NAME"
         ~doc:"Builtin scenario name (see $(b,list)).")
  in
  let file_arg =
    Arg.(value & opt (some file) None & info [ "file" ] ~docv:"JSON"
         ~doc:"Load the scenario from a JSON description instead of the builtin registry.")
  in
  let fault_arg =
    Arg.(value & opt string "clean" & info [ "fault" ] ~docv:"NAME"
         ~doc:"Fault plan for $(b,run) (a name from $(b,dnastore faults --list)).")
  in
  let faults_arg =
    Arg.(value & opt (list string) [ "clean"; "dropout-10"; "corruption-2" ] & info [ "faults" ]
         ~docv:"NAMES" ~doc:"Comma-separated fault plans for $(b,sweep).")
  in
  let trace_arg =
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FASTQ"
         ~doc:"Trace for $(b,trace) stages (default: a deterministic synthetic trace).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"JSON"
         ~doc:"Also write the outcome cells as JSON.")
  in
  let run action name file fault faults seeds data trace out _domains =
    let load_file path =
      match Simulator.Scenario.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok sc -> sc
      | Error e -> die "scenario: %s: %s" path e
    in
    let resolve name =
      match (file, name) with
      | Some path, _ -> load_file path
      | None, Some n -> (
          match Simulator.Scenario.find n with
          | Some sc -> sc
          | None -> die "scenario: unknown scenario %s" n)
      | None, None -> die "scenario: give a NAME or --file"
    in
    (* Trace stages need a FASTQ on disk; when none is supplied,
       synthesize a deterministic stand-in so every run still replays. *)
    let with_trace sc =
      if not (Simulator.Scenario.has_trace sc) then sc
      else
        let path =
          match trace with
          | Some p -> p
          | None ->
              let p = Filename.temp_file "dnastore_trace" ".fastq" in
              Simulator.Trace_channel.write_synthetic ~seed:77 p;
              p
        in
        Simulator.Scenario.with_trace_path sc path
    in
    let finish outcomes violations =
      print_string (Dnastore.Report.scenario_summary outcomes);
      (match out with
      | None -> ()
      | Some path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Store_json.to_string (Dnastore.Scenario_run.outcomes_json outcomes)));
          Printf.printf "wrote %s\n" path);
      match violations with
      | [] -> ()
      | vs ->
          Printf.eprintf "\n%d scenario violation(s):\n" (List.length vs);
          List.iter (fun v -> Printf.eprintf "  %s\n" v) (List.rev vs);
          exit 1
    in
    match action with
    | `List ->
        print_string
          (Dnastore.Report.table
             ([ "scenario"; "stack"; "floors" ]
             :: List.map
                  (fun sc ->
                    [
                      sc.Simulator.Scenario.name;
                      Simulator.Scenario.summary sc;
                      String.concat " "
                        (List.map
                           (fun (f, m) -> Printf.sprintf "%s>=%.2f" f m)
                           sc.Simulator.Scenario.floors);
                    ])
                  Simulator.Scenario.builtins))
    | `Describe ->
        let sc = resolve name in
        Printf.printf "%s: %s\n%s\n\n%s" sc.Simulator.Scenario.name
          sc.Simulator.Scenario.description
          (Simulator.Scenario.summary sc)
          (Simulator.Scenario.to_string sc)
    | `Run ->
        let sc = with_trace (resolve name) in
        let violations = ref [] in
        let outcomes =
          List.map
            (fun seed ->
              let go () =
                match Dnastore.Scenario_run.run_full ~fault ~seed ~data sc with
                | Ok r -> r
                | Error e -> die "scenario: %s" e
              in
              let o, pipe = go () in
              let _, pipe' = go () in
              (match pipe.Dnastore.Pipeline.decode_error with
              | Some e -> Printf.eprintf "%s seed %d: decode error: %s\n" sc.Simulator.Scenario.name seed e
              | None -> ());
              (match pipe.Dnastore.Pipeline.stage_failures with
              | [] -> ()
              | fs ->
                  Printf.eprintf "%s seed %d: degraded stages: %s\n" sc.Simulator.Scenario.name seed
                    (String.concat ", "
                       (List.map
                          (fun (s, m) -> Dnastore.Faults.stage_name s ^ " (" ^ m ^ ")")
                          fs)));
              (* The replay contract: same (scenario, fault, seed, data)
                 must reproduce the recovered bytes bit-identically. *)
              if not (Dnastore.Pipeline.replays pipe pipe') then
                violations :=
                  Printf.sprintf "%s/%s seed %d: replay diverged" o.Dnastore.Scenario_run.scenario
                    fault seed
                  :: !violations;
              if not o.Dnastore.Scenario_run.passed then
                violations :=
                  Printf.sprintf "%s/%s seed %d: recovered %.4f below floor"
                    o.Dnastore.Scenario_run.scenario fault seed
                    o.Dnastore.Scenario_run.recovered_fraction
                  :: !violations;
              o)
            seeds
        in
        finish outcomes !violations
    | `Sweep ->
        let scenarios =
          match (file, name) with
          | None, None -> List.map with_trace Simulator.Scenario.builtins
          | _ -> [ with_trace (resolve name) ]
        in
        let outcomes =
          match Dnastore.Scenario_run.sweep ~faults ~seeds ~data scenarios with
          | Ok os -> os
          | Error e -> die "scenario: %s" e
        in
        let violations =
          List.map
            (fun (o : Dnastore.Scenario_run.outcome) ->
              Printf.sprintf "%s/%s seed %d: recovered %.4f below floor %.2f"
                o.Dnastore.Scenario_run.scenario o.Dnastore.Scenario_run.fault
                o.Dnastore.Scenario_run.seed o.Dnastore.Scenario_run.recovered_fraction
                (match o.Dnastore.Scenario_run.floor with Some f -> f | None -> 0.0))
            (Dnastore.Scenario_run.failures outcomes)
        in
        finish outcomes violations
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Compose and run declarative channel-stack scenarios against fault plans.")
    Term.(
      const run $ action $ name_arg $ file_arg $ fault_arg $ faults_arg $ seeds_arg $ data_arg
      $ trace_arg $ out_arg $ domains_arg)

(* inspect: pool statistics a lab would sanity-check before synthesis *)

let inspect_cmd =
  let input = Arg.(required & opt (some file) None & info [ "input"; "i" ] ~docv:"FASTA" ~doc:"Strand pool.") in
  let run input =
    let records, errors = Dna.Fasta.read_file input in
    let strands = List.map (fun r -> r.Dna.Fasta.seq) records in
    let n = List.length strands in
    if n = 0 then die "%s: no strands" input;
    let lengths = List.map Dna.Strand.length strands in
    let gcs = List.map Dna.Strand.gc_content strands in
    let homos = List.map Dna.Strand.max_homopolymer strands in
    let favg l = List.fold_left ( +. ) 0.0 l /. float_of_int n in
    let iavg l = float_of_int (List.fold_left ( + ) 0 l) /. float_of_int n in
    let imin l = List.fold_left min max_int l and imax l = List.fold_left max 0 l in
    Printf.printf "strands: %d (%d malformed records skipped)\n" n (List.length errors);
    Printf.printf "length:  min %d / avg %.1f / max %d nt\n" (imin lengths) (iavg lengths) (imax lengths);
    Printf.printf "GC:      avg %.3f (synthesis-friendly range is 0.4-0.6)\n" (favg gcs);
    Printf.printf "homopolymers: avg max-run %.1f, worst %d\n" (iavg homos) (imax homos);
    let worst = List.filter (fun h -> h > 6) homos in
    if worst <> [] then
      Printf.printf "warning: %d strands carry runs longer than 6 nt\n" (List.length worst)
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Sanity-check a strand pool before synthesis.")
    Term.(const run $ input)

(* store: the persistent sharded object store *)

let store_cmd =
  let opened dir = or_die (Store.open_store ~dir ()) in
  let init_cmd =
    let shard_target =
      Arg.(
        value
        & opt int Store.default_config.shard_target_strands
        & info [ "shard-target" ] ~docv:"N" ~doc:"Strands per shard before a new one opens.")
    in
    let cache =
      Arg.(
        value
        & opt int Store.default_config.cache_objects
        & info [ "cache" ] ~docv:"N" ~doc:"Decoded-object LRU capacity.")
    in
    let error_rate =
      Arg.(
        value
        & opt float Store.default_config.error_rate
        & info [ "error-rate" ] ~docv:"RATE" ~doc:"Sequencing channel error rate.")
    in
    let coverage =
      Arg.(
        value
        & opt int Store.default_config.coverage
        & info [ "coverage" ] ~docv:"N" ~doc:"Base sequencing depth per access.")
    in
    let run dir seed shard_target_strands cache_objects error_rate coverage =
      let config = { Store.shard_target_strands; cache_objects; error_rate; coverage } in
      let _store = or_die (Store.init ~config ~dir ~seed ()) in
      Printf.printf "initialized store in %s (seed %d)\n" dir seed
    in
    Cmd.v (Cmd.info "init" ~doc:"Create an empty store directory.")
      Term.(const run $ dir_arg $ seed_arg $ shard_target $ cache $ error_rate $ coverage)
  in
  let put_cmd =
    let overwrite_flag =
      Arg.(value & flag & info [ "overwrite" ] ~doc:"Replace the key if it already exists.")
    in
    let run dir key input overwrite =
      let store = opened dir in
      let data = Bytes.of_string (In_channel.with_open_bin input In_channel.input_all) in
      or_die
        (if overwrite && Store.mem store key then Store.overwrite store ~key data
         else Store.put store ~key data);
      Printf.printf "stored %s (%d bytes)\n" key (Bytes.length data)
    in
    Cmd.v (Cmd.info "put" ~doc:"Encode a file and store it under a fresh primer pair.")
      Term.(const run $ dir_arg $ key_arg $ input_arg $ overwrite_flag)
  in
  let get_cmd =
    let output =
      Arg.(
        required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")
    in
    let degraded =
      Arg.(
        value & flag
        & info [ "degraded" ]
            ~doc:
              "Serve whatever survives when the object's shard is damaged or scrub marked it \
               degraded, instead of failing. Exit 2 signals a partial (non-exact) read.")
    in
    let run dir key output domains degraded =
      let store = opened dir in
      if degraded then begin
        let p = or_die (Store.get_partial store ~key) in
        Out_channel.with_open_bin output (fun oc -> Out_channel.output_bytes oc p.Store.bytes);
        if p.Store.exact then
          Printf.printf "recovered %s (%d bytes, exact)\n" key (Bytes.length p.Store.bytes)
        else begin
          Printf.printf "degraded read of %s: %.1f%% of %d bytes recovered (%s)\n" key
            (100.0 *. p.Store.recovered_fraction)
            (Bytes.length p.Store.bytes)
            (match p.Store.recovered_ranges with
            | [] -> "no intact ranges"
            | rs -> String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) rs));
          exit 2
        end
      end
      else
        match Store.get_batch ~domains store [ key ] with
        | [ (_, r) ] ->
            let bytes = or_die r in
            Out_channel.with_open_bin output (fun oc -> Out_channel.output_bytes oc bytes);
            Printf.printf "recovered %s (%d bytes%s)\n" key (Bytes.length bytes)
              (if (Store.stats store).Store.deepened_accesses > 0 then
                 ", first pass refused, deepened"
               else "")
        | _ -> assert false
    in
    Cmd.v (Cmd.info "get" ~doc:"Sequence, reconstruct and decode one object.")
      Term.(const run $ dir_arg $ key_arg $ output $ domains_arg $ degraded)
  in
  let rm_cmd =
    let run dir key =
      let store = opened dir in
      or_die (Store.delete store ~key);
      Printf.printf "deleted %s (molecules reclaimed on the next compact)\n" key
    in
    Cmd.v (Cmd.info "rm" ~doc:"Delete an object and retire its primer pair.")
      Term.(const run $ dir_arg $ key_arg)
  in
  let compact_cmd =
    let run dir =
      let store = opened dir in
      let s = or_die (Store.compact store) in
      Printf.printf "rewrote %d objects: %d -> %d strands, %d -> %d shards, %d primer pairs reclaimed\n"
        s.Store.objects_rewritten s.strands_before s.strands_after s.shards_before s.shards_after
        s.primer_pairs_reclaimed;
      if s.Store.objects_dropped > 0 then
        Printf.printf "dropped %d lost object(s) from the directory\n" s.Store.objects_dropped;
      print_string
        (Dnastore.Report.maintenance_counters ~unlink_failures:s.Store.unlink_failures
           ~orphans_reclaimed:0)
    in
    Cmd.v
      (Cmd.info "compact" ~doc:"Re-synthesize live objects into fresh shards and reclaim primers.")
      Term.(const run $ dir_arg)
  in
  let stats_cmd =
    let run dir =
      let store = opened dir in
      print_string (Store.render_stats store);
      let s = Store.stats store in
      print_string
        (Dnastore.Report.maintenance_counters ~unlink_failures:0
           ~orphans_reclaimed:s.Store.orphans_reclaimed)
    in
    Cmd.v (Cmd.info "stats" ~doc:"Print shard, object, primer and cache statistics.")
      Term.(const run $ dir_arg)
  in
  let scrub_cmd =
    let run dir =
      let store = opened dir in
      let r = or_die (Store.scrub store) in
      print_string
        (Dnastore.Report.scrub_summary ~shards_checked:r.Store.shards_checked
           ~shards_corrupt:r.Store.shards_corrupt ~shards_quarantined:r.Store.shards_quarantined
           ~shards_dropped:r.Store.shards_dropped ~objects_checked:r.Store.objects_checked
           ~objects_repaired:r.Store.objects_repaired ~objects_degraded:r.Store.objects_degraded
           ~objects_lost:r.Store.objects_lost ~checksums_backfilled:r.Store.checksums_backfilled);
      if r.Store.objects_degraded > 0 || r.Store.objects_lost > 0 then exit 2
    in
    Cmd.v
      (Cmd.info "scrub"
         ~doc:
           "Verify every shard checksum and self-repair damaged objects. Exit 2 when damage \
            survives the pass (degraded or lost objects).")
      Term.(const run $ dir_arg)
  in
  let corrupt_cmd =
    let mode =
      Arg.(
        value
        & opt (enum [ ("flip", `Flip); ("truncate", `Truncate); ("garbage", `Garbage) ]) `Flip
        & info [ "mode" ] ~docv:"MODE"
            ~doc:
              "Damage to inject: $(b,flip) rewrites bases inside one molecule, $(b,truncate) \
               drops the tail of the shard file, $(b,garbage) replaces it with non-FASTA bytes.")
    in
    let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Injection rng seed.") in
    let run dir key mode seed =
      let store = opened dir in
      let shard =
        or_die (Option.to_result ~none:(Store.Key_not_found key) (Store.object_shard store ~key))
      in
      let path =
        or_die
          (Option.to_result
             ~none:(Store.Corrupt (Printf.sprintf "shard %d has no file" shard))
             (Store.shard_path store ~shard))
      in
      let content = In_channel.with_open_bin path In_channel.input_all in
      let rng = Dna.Rng.create seed in
      let damaged =
        match mode with
        | `Flip ->
            (* Rewrite a run of bases in the middle of the file, skewing
               the pool without changing its length or framing. *)
            let b = Bytes.of_string content in
            let len = Bytes.length b in
            let flips = ref 0 in
            while !flips < 8 do
              let i = Dna.Rng.int rng len in
              (match Bytes.get b i with
              | 'A' -> Bytes.set b i 'C'
              | 'C' -> Bytes.set b i 'G'
              | 'G' -> Bytes.set b i 'T'
              | 'T' -> Bytes.set b i 'A'
              | _ -> decr flips);
              incr flips
            done;
            Bytes.to_string b
        | `Truncate -> String.sub content 0 (String.length content / 2)
        | `Garbage -> "not a FASTA file\n"
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc damaged);
      Printf.printf "corrupted shard %d (%s) under key %s\n" shard path key
    in
    Cmd.v
      (Cmd.info "corrupt"
         ~doc:
           "Deterministically damage the shard holding a key (test tool for the scrub/degraded \
            read path).")
      Term.(const run $ dir_arg $ key_arg $ mode $ seed)
  in
  let crash_matrix_cmd =
    let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
    let scratch =
      Arg.(
        value
        & opt string "/tmp/dnastore-crash-matrix"
        & info [ "scratch" ] ~docv:"DIR" ~doc:"Scratch directory (deleted and recreated per run).")
    in
    let run seed scratch =
      let outcome = Crash_harness.run ~seed ~dir:scratch () in
      print_string (Crash_harness.render outcome);
      if outcome.Crash_harness.failures <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "crash-matrix"
         ~doc:
           "Sweep a simulated kill across every filesystem fault point of a scripted workload \
            and verify that reopening recovers a consistent prefix. Exit 1 on any violation.")
      Term.(const run $ seed $ scratch)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Persistent sharded DNA object store with rewritable random access.")
    [
      init_cmd; put_cmd; get_cmd; rm_cmd; compact_cmd; stats_cmd; scrub_cmd; corrupt_cmd;
      crash_matrix_cmd;
    ]

(* serve: drive a multi-client workload through the serving layer *)

let serve_cmd =
  let populate =
    Arg.(
      value & opt int 0
      & info [ "populate" ] ~docv:"N"
          ~doc:"Initialize the directory as a fresh store and put N objects before serving.")
  in
  let ops = Arg.(value & opt int 60 & info [ "ops" ] ~docv:"N" ~doc:"Operations to drive.") in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let read_pct =
    Arg.(
      value & opt float 0.95
      & info [ "read-pct" ] ~docv:"FRAC" ~doc:"Fraction of operations that are gets.")
  in
  let window =
    Arg.(
      value
      & opt int Serve.default_config.Serve.window
      & info [ "window" ] ~docv:"N" ~doc:"Scheduling window: max requests served per round.")
  in
  let max_queue =
    Arg.(
      value
      & opt int Serve.default_config.Serve.max_queue
      & info [ "max-queue" ] ~docv:"N" ~doc:"Admission bound before requests are rejected.")
  in
  let zipf =
    Arg.(value & opt float 0.99 & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew of key popularity.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request queueing deadline; requests waiting longer are answered timed-out.")
  in
  let degraded_reads =
    Arg.(
      value & flag
      & info [ "degraded-reads" ]
          ~doc:"Answer damaged gets with the surviving bytes instead of an error.")
  in
  let run dir populate ops clients read_pct window max_queue zipf seed domains deadline_s
      degraded_reads =
    let store =
      if populate > 0 then begin
        let store = or_die (Store.init ~dir ~seed ()) in
        let r = Dna.Rng.create (seed * 31) in
        for i = 0 to populate - 1 do
          let data = Bytes.init 120 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
          or_die (Store.put store ~key:(Printf.sprintf "obj%d" i) data)
        done;
        store
      end
      else or_die (Store.open_store ~dir ())
    in
    let keys = Store.keys store in
    if keys = [] then die "serve: store has no objects (use --populate)";
    let config =
      {
        Serve.default_config with
        Serve.window;
        Serve.max_queue;
        Serve.domains;
        Serve.deadline_s;
        Serve.degraded_reads;
      }
    in
    let mix = { Serve.Workload.label = Printf.sprintf "read%.0f" (100.0 *. read_pct); Serve.Workload.read_pct } in
    let summary, _ =
      Serve.Workload.run ~config ~mix ~n_clients:clients ~n_ops:ops ~zipf_s:zipf ~seed ~keys store
    in
    print_string (Serve.Workload.render summary);
    print_string
      (Dnastore.Report.cache_counters ~label:"store" ~hits:summary.Serve.Workload.cache_hits
         ~misses:summary.Serve.Workload.cache_misses)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a multi-client zipfian put/get/overwrite workload through the scheduler.")
    Term.(
      const run $ dir_arg $ populate $ ops $ clients $ read_pct $ window $ max_queue $ zipf
      $ seed_arg $ domains_arg $ deadline $ degraded_reads)

let main =
  let doc = "modular end-to-end DNA data storage codec and simulator" in
  Cmd.group (Cmd.info "dnastore" ~version:"1.0.0" ~doc)
    [
      encode_cmd; simulate_cmd; cluster_cmd; reconstruct_cmd; decode_cmd; pipeline_cmd;
      inspect_cmd; faults_cmd; scenario_cmd; store_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main)
