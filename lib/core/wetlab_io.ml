(** Handling real (or exported) wetlab data (Section VIII).

    Sequencers emit FASTQ. This module converts FASTQ reads into the
    pipeline's internal format — filtering unparsable records, detecting
    strand directionality against the primer library, normalizing 3'->5'
    reads to 5'->3', and stripping primers — so that a wetlab run can
    seamlessly replace the simulation module. The reverse direction
    ([export_fastq]) writes simulated reads out as FASTQ, useful for
    interoperating with external tools. *)

type ingest_stats = {
  total_records : int;
  parse_errors : int;
  no_primer_match : int;  (** reads matching no known primer pair *)
  forward : int;
  reverse : int;
}

(* Demux: find each read's core against the primer library, taking the
   first pair that fits ({!Codec.Primer.find_core}, keys built once).
   Cores are copied straight out of the read into one arena per pair: a
   forward core through a zero-copy slice, a reverse one complemented,
   back to front. No read is copied, reversed or complemented on the
   way. *)

type ingested_pool = {
  pools_by_pair : (Codec.Primer.pair * Dna.Strand_pool.t) list;
  pool_stats : ingest_stats;
}

type demux = {
  d_buckets : (Codec.Primer.pair * Codec.Primer.key * Dna.Strand_pool.t) list;
  mutable d_total : int;
  mutable d_no_match : int;
  mutable d_fwd : int;
  mutable d_rev : int;
}

let demux_create pairs =
  {
    d_buckets = List.map (fun p -> (p, Codec.Primer.key p, Dna.Strand_pool.create ())) pairs;
    d_total = 0;
    d_no_match = 0;
    d_fwd = 0;
    d_rev = 0;
  }

let demux_read d (seq : Dna.Strand.t) =
  d.d_total <- d.d_total + 1;
  let rec try_pairs = function
    | [] -> d.d_no_match <- d.d_no_match + 1
    | (_, key, pool) :: rest -> (
        match Codec.Primer.find_core key seq with
        | None -> try_pairs rest
        | Some (pos, len, Codec.Primer.Forward) ->
            d.d_fwd <- d.d_fwd + 1;
            ignore (Dna.Strand_pool.add_strand pool (Dna.Strand.sub seq ~pos ~len))
        | Some (pos, len, Codec.Primer.Reverse) ->
            d.d_rev <- d.d_rev + 1;
            for i = pos + len - 1 downto pos do
              Dna.Strand_pool.emit pool (Dna.Strand.unsafe_get_code seq i lxor 3)
            done;
            ignore (Dna.Strand_pool.commit pool))
  in
  try_pairs d.d_buckets

let demux_finish d ~parse_errors =
  {
    pools_by_pair =
      List.filter_map
        (fun (pair, _, pool) -> if Dna.Strand_pool.length pool > 0 then Some (pair, pool) else None)
        d.d_buckets;
    pool_stats =
      {
        total_records = d.d_total + parse_errors;
        parse_errors;
        no_primer_match = d.d_no_match;
        forward = d.d_fwd;
        reverse = d.d_rev;
      };
  }

let ingest_pool pairs ?(parse_errors = 0) (source : Dna.Strand_pool.t) =
  let d = demux_create pairs in
  Dna.Strand_pool.iter (fun _ seq -> demux_read d seq) source;
  demux_finish d ~parse_errors

let ingest_file_pool pairs path =
  let d = demux_create pairs in
  let (), errors =
    Dna.Fastq.fold_file path ~init:() ~f:(fun () r -> demux_read d r.Dna.Fastq.seq)
  in
  demux_finish d ~parse_errors:(List.length errors)

(* Export simulated reads as FASTQ with a uniform quality track. *)
let fastq_record quality i seq =
  { Dna.Fastq.id = Printf.sprintf "read_%d" i; seq; qual = Dna.Fastq.with_uniform_quality ~q:quality seq }

let export_fastq ?(quality = 30) (reads : Dna.Strand.t array) : string =
  Dna.Fastq.to_string (Array.to_list (Array.mapi (fastq_record quality) reads))

(* One record at a time: memory stays at one record whatever the count. *)
let export_fastq_file ?(quality = 30) path reads =
  Out_channel.with_open_text path (fun oc ->
      Array.iteri
        (fun i seq -> output_string oc (Dna.Fastq.to_string [ fastq_record quality i seq ]))
        reads)
