(** File-level encoding and decoding (Section IV): scramble, prefix a
    replicated length header, chunk into units, matrix-encode; decoding
    groups reconstructed strands by index, decodes every unit, then
    unscrambles and trims to the recorded length. *)

type encoded = {
  params : Params.t;
  layout : Layout.t;
  strands : Dna.Strand.t array;  (** index + payload, no primers *)
  n_units : int;
}

type decode_stats = {
  units : Matrix_codec.unit_stats array;
  missing_strands : int;  (** expected molecules never seen *)
  unparsable_strands : int;  (** wrong length / bad index checksum / out of range *)
}

val header_copies : int

val header_span : rows:int -> int
(** Bytes reserved for the replicated length header; one copy per
    matrix column. Raises [Invalid_argument] when [rows < 8]. *)

val encode : ?layout:Layout.t -> ?params:Params.t -> Bytes.t -> encoded

type error =
  | Invalid_params of string
  | Corrupt_header
      (** all three header copies disagree or record an impossible
          length: the file boundary cannot be recovered *)

val error_message : error -> string

val decode :
  ?layout:Layout.t -> ?params:Params.t -> n_units:int -> Dna.Strand.t list ->
  (Bytes.t * decode_stats, error) result
(** Strands may arrive in any order, duplicated (the first parsed copy
    of a column wins — feed largest-cluster consensus first), corrupted,
    truncated or missing; never raises. [Error] only when the length
    header itself is unrecoverable or the call is malformed; partial
    corruption is returned with stats. *)

val fully_recovered : decode_stats -> bool
(** No unit had a failed codeword. *)

(** {2 Partial recovery}

    The graceful-degradation contract: even when some units cannot be
    decoded, the surviving byte ranges are returned, mapped and
    quantified. *)

type unit_status =
  | Recovered  (** every codeword decoded *)
  | Degraded of { failed_codewords : int }  (** some codewords uncorrected *)
  | Lost  (** no codeword decoded: the unit was effectively missing *)

type partial_recovery = {
  unit_status : unit_status array;
  recovered_fraction : float;  (** fraction of file bytes whose codeword decoded; 1.0 for an empty file *)
  recovered_ranges : (int * int) list;
      (** maximal [start, stop) byte ranges of the returned file whose
          codewords all decoded *)
}

val no_recovery : n_units:int -> partial_recovery
(** The all-lost record, for outright decode failures. *)

val unit_counts : partial_recovery -> int * int * int
(** Units recovered, degraded and lost. *)

val partial : params:Params.t -> file_len:int -> decode_stats -> partial_recovery
(** Map {!decode}'s stats onto the returned file: a byte is recovered
    iff the RS codeword covering it decoded. *)
