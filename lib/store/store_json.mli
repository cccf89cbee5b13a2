(** Minimal JSON for the store manifest: the subset the manifest needs
    (objects, arrays, strings with full escaping, ints, floats, bools,
    null), parsed strictly — a half-readable manifest must never be
    half-trusted. No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed with two-space indentation and a trailing newline;
    strings are fully escaped (control characters as [\uXXXX]). *)

type field = string * [ `Value of t | `Items of t Seq.t ]
(** An object field whose value is given whole, or as an array whose
    items are built one at a time. *)

val field_value : [ `Value of t | `Items of t Seq.t ] -> t
(** The value a field stands for ([`Items] as a [List]). *)

val output_fields : (string -> unit) -> field list -> unit
(** [output_fields put fields] passes {!to_string} of the object of
    [fields] (each value as {!field_value} gives it) to [put] in pieces
    of about 1 KiB. It never builds the text as one string, and builds
    each array item only as it prints it. *)

val max_depth : int
(** Container-nesting bound enforced by {!of_string} (adversarial
    ["[[[[…"] input fails typed instead of overflowing the stack). *)

val of_string : string -> (t, string) result
(** Strict parse of one JSON value: trailing garbage, unterminated
    literals, malformed escapes, duplicate object keys and nesting
    beyond {!max_depth} are errors — never exceptions. [\uXXXX]
    escapes decode to UTF-8. *)

val member : string -> t -> t option

(** Result-typed field accessors used by the manifest decoder; the
    error is a human-readable reason. *)

val field : t -> string -> (t, string) result
val as_int : t -> (int, string) result
val as_float : t -> (float, string) result
val as_string : t -> (string, string) result
val as_list : t -> (t list, string) result
val int_field : t -> string -> (int, string) result
val float_field : t -> string -> (float, string) result
val string_field : t -> string -> (string, string) result
val list_field : t -> string -> (t list, string) result
