(* Read-path helpers shared by the test suites.

   [sequence] is the serial boxed sequencer, kept as the oracle for
   [Simulator.Sequencer.sequence_pool]. It makes the same draws in the
   same order (dropout float, coverage draw, then per read the channel
   stream and the orientation float, then one shuffle), but each read
   comes from a boxed model (usually one from [Channel_oracle]) as a
   fresh strand. [sequence_pool] writes through the channel's emitter
   instead, so equal reads show that the emitter consumes the model's
   stream and produces its reads. *)

type read = { seq : Dna.Strand.t; origin : int }

let sequence (params : Simulator.Sequencer.params) transmit rng (strands : Dna.Strand.t array) =
  let out = ref [] in
  Array.iteri
    (fun origin strand ->
      if Dna.Rng.float rng < params.dropout then ()
      else begin
        let n =
          match params.coverage with
          | Simulator.Sequencer.Fixed n -> n
          | Poisson mean -> Dna.Rng.poisson rng mean
        in
        for _ = 1 to n do
          let seq = transmit rng strand in
          let seq =
            if params.p_reverse > 0.0 && Dna.Rng.float rng < params.p_reverse then
              Dna.Strand.reverse_complement seq
            else seq
          in
          if Dna.Strand.length seq > 0 then out := { seq; origin } :: !out
        done
      end)
    strands;
  let reads = Array.of_list !out in
  Dna.Rng.shuffle_in_place rng reads;
  reads

(* The production sequencer's output as boxed reads and their origins. *)
let sequence_arrays params channel rng strands =
  let pool = Dna.Strand_pool.create () in
  let origins = Simulator.Sequencer.sequence_pool params channel rng strands ~pool in
  (Dna.Strand_pool.to_array pool, origins)

(* Every channel must replay its boxed model draw for draw through the
   arena: same seed, same reads in the same order, same origins. *)
let check_pool_matches_boxed
    ?(params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 4)) name
    ~boxed channel =
  let strands = Array.init 12 (fun i -> Dna.Strand.random (Dna.Rng.create (100 + i)) 90) in
  let boxed = sequence params boxed (Dna.Rng.create 55) strands in
  let reads, origins = sequence_arrays params channel (Dna.Rng.create 55) strands in
  Alcotest.(check int) (name ^ ": read count") (Array.length boxed) (Array.length origins);
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "%s: origin %d" name i) r.origin origins.(i);
      Alcotest.(check string)
        (Printf.sprintf "%s: read %d" name i)
        (Dna.Strand.to_string r.seq) (Dna.Strand.to_string reads.(i)))
    boxed

(* FASTQ text through the one demux, as a sequencer's output file
   would go: parse, then [ingest_pool] with the parse errors counted. *)
let ingest_fastq_text pairs text =
  let records, errors = Dna.Fastq.parse_string text in
  let pool = Dna.Strand_pool.create () in
  List.iter (fun (r : Dna.Fastq.record) -> ignore (Dna.Strand_pool.add_strand pool r.seq)) records;
  Dnastore.Wetlab_io.ingest_pool pairs ~parse_errors:(List.length errors) pool
