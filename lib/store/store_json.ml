(** A minimal JSON reader/writer for the store manifest.

    The toolkit deliberately carries no external JSON dependency; this
    module implements the subset the manifest needs (objects, arrays,
    strings with full escaping, ints, floats, bools, null) with strict
    parsing — trailing garbage, unterminated literals and malformed
    escapes are errors, because a half-readable manifest must never be
    half-trusted. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_literal f =
  (* Shortest representation that round-trips. *)
  let s = Printf.sprintf "%.12g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s else s ^ ".0"

type field = string * [ `Value of t | `Items of t Seq.t ]

let field_value = function `Value v -> v | `Items items -> List (List.of_seq items)

(* The one container layout: [opening closing] when [seq] is empty, else
   [opening], one entry per line at [indent + 2] (printed by [entry],
   which is called only as its line is reached), [closing] on its own
   line. *)
let write_block ~spill buf ~indent opening closing entry seq =
  Buffer.add_char buf opening;
  match seq () with
  | Seq.Nil -> Buffer.add_char buf closing
  | Seq.Cons (first, rest) ->
      let line x =
        Buffer.add_string buf (String.make (indent + 2) ' ');
        entry x;
        spill buf
      in
      Buffer.add_char buf '\n';
      line first;
      Seq.iter
        (fun x ->
          Buffer.add_string buf ",\n";
          line x)
        rest;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf closing

(* [spill buf] runs after each array element and object field, so
   {!output_fields} can pass the text on in pieces as it goes. *)
let rec write ~spill buf ~indent v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> escape_string buf s
  | List items -> write_items ~spill buf ~indent (List.to_seq items)
  | Obj fields ->
      write_fields ~spill buf ~indent (Seq.map (fun (k, v) -> (k, `Value v)) (List.to_seq fields))

and write_items ~spill buf ~indent items =
  write_block ~spill buf ~indent '[' ']'
    (write ~spill buf ~indent:(indent + 2))
    items

and write_fields ~spill buf ~indent (fields : field Seq.t) =
  write_block ~spill buf ~indent '{' '}'
    (fun (k, value) ->
      escape_string buf k;
      Buffer.add_string buf ": ";
      match value with
      | `Value v -> write ~spill buf ~indent:(indent + 2) v
      | `Items items -> write_items ~spill buf ~indent:(indent + 2) items)
    fields

let to_string v =
  let buf = Buffer.create 1024 in
  write ~spill:ignore buf ~indent:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Pieces of about 1 KiB, and array items built one at a time: a whole
   checkpoint built as one tree and one string (with its doubling
   buffer) went to the major heap at every fold. *)
let output_fields put fields =
  let buf = Buffer.create 2048 in
  let spill b =
    if Buffer.length b >= 1024 then begin
      put (Buffer.contents b);
      Buffer.clear b
    end
  in
  write_fields ~spill buf ~indent:0 (List.to_seq fields);
  Buffer.add_char buf '\n';
  put (Buffer.contents buf)

(* ---------- parsing ---------- *)

exception Parse_error of string

let max_depth = 512
(* Nesting bound for containers: adversarial input like ["[[[[..."]
   must come back as a typed error, not blow the OCaml stack. *)

let of_string (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("invalid literal, expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    match v with
    | None -> fail "malformed \\u escape"
    | Some v ->
        pos := !pos + 4;
        v
  in
  let add_utf8 buf code =
    (* Encode a BMP code point as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' -> add_utf8 buf (hex4 ())
         | _ -> fail "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail ("malformed number " ^ lit))
  in
  let rec parse_value depth =
    if depth > max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            if List.mem_assoc k !fields then fail (Printf.sprintf "duplicate key %S" k);
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---------- accessors ---------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let field v k =
  match member k v with Some f -> Ok f | None -> Error (Printf.sprintf "missing field %S" k)

let as_int = function Int i -> Ok i | _ -> Error "expected an integer"

let as_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | _ -> Error "expected a number"

let as_string = function String s -> Ok s | _ -> Error "expected a string"
let as_list = function List l -> Ok l | _ -> Error "expected an array"

let int_field v k = Result.bind (field v k) as_int
let float_field v k = Result.bind (field v k) as_float
let string_field v k = Result.bind (field v k) as_string
let list_field v k = Result.bind (field v k) as_list
