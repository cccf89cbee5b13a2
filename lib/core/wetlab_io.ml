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

(* Demux: orient each read against the primer library and strip the
   primers of the first pair that fits. Cores land in one arena per
   pair; stripping is a zero-copy slice, so the only per-read
   allocation is the transient reverse complement of 3'->5' reads. *)

type ingested_pool = {
  pools_by_pair : (Codec.Primer.pair * Dna.Strand_pool.t) list;
  pool_stats : ingest_stats;
}

type demux = {
  d_buckets : (Codec.Primer.pair * Dna.Strand_pool.t) list;
  mutable d_total : int;
  mutable d_no_match : int;
  mutable d_fwd : int;
  mutable d_rev : int;
}

let demux_create pairs =
  {
    d_buckets = List.map (fun p -> (p, Dna.Strand_pool.create ())) pairs;
    d_total = 0;
    d_no_match = 0;
    d_fwd = 0;
    d_rev = 0;
  }

let demux_read d (seq : Dna.Strand.t) =
  d.d_total <- d.d_total + 1;
  let rec try_pairs = function
    | [] -> d.d_no_match <- d.d_no_match + 1
    | (pair, pool) :: rest -> (
        match Codec.Primer.orient pair seq with
        | None -> try_pairs rest
        | Some (oriented, dir) -> (
            match Codec.Primer.strip pair oriented with
            | None -> try_pairs rest
            | Some core ->
                (match dir with
                | Codec.Primer.Forward -> d.d_fwd <- d.d_fwd + 1
                | Codec.Primer.Reverse -> d.d_rev <- d.d_rev + 1);
                ignore (Dna.Strand_pool.add_strand pool core)))
  in
  try_pairs d.d_buckets

let demux_finish d ~parse_errors =
  {
    pools_by_pair =
      List.filter (fun (_, pool) -> Dna.Strand_pool.length pool > 0) d.d_buckets;
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
let export_fastq ?(quality = 30) (reads : Dna.Strand.t array) : string =
  let records =
    Array.to_list
      (Array.mapi
         (fun i seq ->
           { Dna.Fastq.id = Printf.sprintf "read_%d" i; seq; qual = Dna.Fastq.with_uniform_quality ~q:quality seq })
         reads)
  in
  Dna.Fastq.to_string records

let export_fastq_file ?quality path reads =
  Out_channel.with_open_text path (fun oc -> output_string oc (export_fastq ?quality reads))
