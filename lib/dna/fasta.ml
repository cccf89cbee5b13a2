(** Minimal FASTA reading and writing.

    Records are [>id] header lines followed by one or more sequence lines.
    Sequence lines may wrap; they are concatenated. Bases outside
    {A,C,G,T} (e.g. N calls) make a record invalid and are reported rather
    than silently dropped, since downstream stages assume clean strands. *)

type record = { id : string; seq : Strand.t }

type error = { line : int; message : string }

(* The lines [input_line] would read from a channel holding [s]: a
   trailing newline ends the last line, it does not start an empty one. *)
let line_reader s =
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length s then None
    else begin
      let stop = Option.value (String.index_from_opt s !pos '\n') ~default:(String.length s) in
      let line = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some line
    end

(* The one record parser: a fold over a line source, one record in
   memory at a time (header plus its accumulating sequence buffer). *)
let fold_lines next ~init ~f =
  let errors = ref [] in
  let acc = ref init in
  let cur_id = ref None in
  let cur_seq = Buffer.create 256 in
  let cur_line = ref 0 in
  let flush () =
    match !cur_id with
    | None -> ()
    | Some (id, line) ->
        (match Strand.of_string_opt (Buffer.contents cur_seq) with
        | Some seq -> acc := f !acc { id; seq }
        | None -> errors := { line; message = "invalid base in record " ^ id } :: !errors);
        Buffer.clear cur_seq;
        cur_id := None
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some raw ->
        incr cur_line;
        let line = String.trim raw in
        if line = "" then ()
        else if line.[0] = '>' then begin
          flush ();
          cur_id := Some (String.sub line 1 (String.length line - 1), !cur_line)
        end
        else begin
          match !cur_id with
          | None -> errors := { line = !cur_line; message = "sequence before header" } :: !errors
          | Some _ -> Buffer.add_string cur_seq (String.uppercase_ascii line)
        end;
        loop ()
  in
  loop ();
  flush ();
  (!acc, List.rev !errors)

let collect fold =
  let records, errors = fold ~init:[] ~f:(fun acc r -> r :: acc) in
  (List.rev records, errors)

let parse_string s = collect (fold_lines (line_reader s))
let fold_channel ic = fold_lines (fun () -> In_channel.input_line ic)

let fold_file path ~init ~f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> fold_channel ic ~init ~f)

let iter_file path ~f = fst (fold_file path ~init:() ~f:(fun () r -> f r))

let read_file path = collect (fold_file path)

(* Sized up front and filled in place: a store writes a whole shard
   pool per put, and a doubling buffer plus its final copy allocated
   about three times the output on the major heap. *)
let to_string records =
  let size =
    List.fold_left (fun a { id; seq } -> a + String.length id + Strand.length seq + 3) 0 records
  in
  let b = Bytes.create size in
  let pos = ref 0 in
  let put c =
    Bytes.unsafe_set b !pos c;
    incr pos
  in
  List.iter
    (fun { id; seq } ->
      put '>';
      Bytes.blit_string id 0 b !pos (String.length id);
      pos := !pos + String.length id;
      put '\n';
      for i = 0 to Strand.length seq - 1 do
        put (Array.unsafe_get Strand.char_of_code (Strand.unsafe_get_code seq i))
      done;
      put '\n')
    records;
  Bytes.unsafe_to_string b

let write_file path records =
  let oc = open_out path in
  output_string oc (to_string records);
  close_out oc
