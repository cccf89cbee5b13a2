(** Minimal FASTQ reading and writing (Sanger quality offset 33).
    Malformed records are reported per record, since sequencers emit
    occasional junk. *)

type record = { id : string; seq : Strand.t; qual : int array }
type error = { line : int; message : string }

val phred_offset : int

val qual_of_string : string -> int array
(** Decode a Sanger quality string. Raises [Invalid_argument] on
    characters below ['!'] (they would decode to negative Phred
    scores). *)

val qual_of_string_opt : string -> int array option
(** [None] when any character sits below ['!']. *)

val qual_to_string : int array -> string

(** One record parser serves every entry point: a fold over a line
    source. The file readers feed it [input_line]; [parse_string] feeds
    it the string's lines exactly as [input_line] would read them from a
    file holding those bytes ({!Fasta.line_reader}), so a string and a
    file with the same contents give equal records and equal errors. A
    trailing newline ends the last line; it does not add an empty one,
    so a record cut after its [+] line is a [truncated record], not a
    quality length mismatch. Errors carry 1-based line numbers. *)

val parse_string : string -> record list * error list
val read_file : string -> record list * error list

val fold_channel : in_channel -> init:'a -> f:('a -> record -> 'a) -> 'a * error list
(** Stream records off a channel without building a line list or a
    record list: only the record being parsed is live. Errors are
    collected and returned in input order. *)

val fold_file : string -> init:'a -> f:('a -> record -> 'a) -> 'a * error list
(** [fold_channel] on an opened file. *)

val iter_file : string -> f:(record -> unit) -> unit
(** Streams like [fold_file] but discards errors (use [fold_file] to
    observe them). *)

val to_string : record list -> string
val write_file : string -> record list -> unit

val with_uniform_quality : q:int -> Strand.t -> int array
(** A constant quality track for simulated reads. *)
