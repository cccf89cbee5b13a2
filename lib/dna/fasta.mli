(** Minimal FASTA reading and writing. Sequence lines may wrap; records
    with bases outside A/C/G/T are reported as errors, not dropped
    silently. *)

type record = { id : string; seq : Strand.t }
type error = { line : int; message : string }

(** One record parser serves every entry point: a fold over a line
    source. The file readers feed it [input_line]; [parse_string] feeds
    it the string's lines exactly as [input_line] would read them from a
    file holding those bytes, so a string and a file with the same
    contents give equal records and equal errors. A trailing newline
    ends the last line; it does not add an empty one. Errors carry
    1-based line numbers. *)

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

val line_reader : string -> unit -> string option
(** [line_reader s] yields the lines [input_line] would read from a
    channel holding [s], then [None]. The line source behind
    [parse_string] here and in {!Fastq}. *)

val to_string : record list -> string
val write_file : string -> record list -> unit
