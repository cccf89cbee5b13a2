(** Handling real (or exported) wetlab data (Section VIII): FASTQ in,
    pipeline-ready primer-stripped cores out — so a sequencing run can
    seamlessly replace the simulation module. *)

type ingest_stats = {
  total_records : int;
  parse_errors : int;
  no_primer_match : int;  (** reads matching no known primer pair *)
  forward : int;
  reverse : int;  (** reads that arrived 3'->5' and were normalized *)
}

type ingested_pool = {
  pools_by_pair : (Codec.Primer.pair * Dna.Strand_pool.t) list;
  pool_stats : ingest_stats;
}

val ingest_pool :
  Codec.Primer.pair list -> ?parse_errors:int -> Dna.Strand_pool.t -> ingested_pool
(** Demux reads already in an arena (e.g. sequencer output): each read
    is matched against the pairs in list order with
    {!Codec.Primer.find_core} (tolerances {!Codec.Primer.max_edits} and
    {!Codec.Primer.slack}), and the first pair that fits takes its core,
    normalized 5'->3'; reads no pair fits count as [no_primer_match].
    Each pair's key is built once per call, and no read is copied: a
    3'->5' core is complemented straight into its pair's pool. Cores
    land in one pool per pair, in read order.
    Pairs that match nothing are dropped from the result.
    [parse_errors] (default 0) is added to [total_records], for callers
    that parsed the reads from text. *)

val ingest_file_pool : Codec.Primer.pair list -> string -> ingested_pool
(** {!ingest_pool} over a FASTQ file, streamed: bounded memory — no
    record list, no boxed read set — regardless of file size. Malformed
    records count as [parse_errors]. *)

val export_fastq : ?quality:int -> Dna.Strand.t array -> string
(** Simulated reads as FASTQ text with a uniform quality track. *)

val export_fastq_file : ?quality:int -> string -> Dna.Strand.t array -> unit
(** {!export_fastq} written to a file, one record at a time: the same
    bytes, in memory bounded by one record. The channel is closed even
    when the write fails. *)
