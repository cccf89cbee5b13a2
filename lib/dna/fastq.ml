(** Minimal FASTQ reading and writing (Section VIII: handling wetlab data).

    Four lines per record: [@id], sequence, [+], Phred qualities. Quality
    strings use the Sanger offset (33). Sequencers emit reads in both
    orientations and with occasional non-ACGT calls; parsing therefore
    returns per-record results instead of failing wholesale. *)

type record = { id : string; seq : Strand.t; qual : int array }

type error = { line : int; message : string }

let phred_offset = 33

let qual_of_string_opt s =
  if String.exists (fun c -> c < '!') s then None
  else Some (Array.init (String.length s) (fun i -> Char.code s.[i] - phred_offset))

let qual_of_string s =
  match qual_of_string_opt s with
  | Some q -> q
  | None -> invalid_arg "Fastq.qual_of_string: quality character below '!'"

let qual_to_string q =
  String.init (Array.length q) (fun i -> Char.chr (min 93 (max 0 q.(i)) + phred_offset))

(* The one record parser: a fold over a line source ([None] at end of
   input), one record in memory at a time, so multi-gigabyte read sets
   never materialize as a line list. *)
let fold_lines next ~init ~f =
  let errors = ref [] in
  let acc = ref init in
  let lineno = ref 0 in
  let next () =
    match next () with
    | Some line ->
        incr lineno;
        Some (String.trim line)
    | None -> None
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some "" -> loop ()
    | Some line when line.[0] <> '@' ->
        errors := { line = !lineno; message = "expected @header" } :: !errors;
        loop ()
    | Some line ->
        let header_line = !lineno in
        let id = String.sub line 1 (String.length line - 1) in
        let seq_s = next () in
        let plus = next () in
        let qual_s = next () in
        (match (seq_s, plus, qual_s) with
        | Some seq_s, Some plus, Some qual_s ->
            if String.length plus = 0 || plus.[0] <> '+' then
              errors := { line = !lineno - 1; message = "expected + separator" } :: !errors
            else if String.length seq_s <> String.length qual_s then
              errors := { line = !lineno; message = "quality length mismatch" } :: !errors
            else begin
              match Strand.of_string_opt (String.uppercase_ascii seq_s) with
              | Some seq -> (
                  (* A character below '!' would decode to a negative Phred
                     score; reject the record rather than emit one. *)
                  match qual_of_string_opt qual_s with
                  | Some qual -> acc := f !acc { id; seq; qual }
                  | None ->
                      errors :=
                        { line = !lineno; message = "invalid quality character in read " ^ id }
                        :: !errors)
              | None ->
                  errors := { line = !lineno - 2; message = "invalid base in read " ^ id } :: !errors
            end
        | _ -> errors := { line = header_line; message = "truncated record" } :: !errors);
        loop ()
  in
  loop ();
  (!acc, List.rev !errors)

let collect fold =
  let records, errors = fold ~init:[] ~f:(fun acc r -> r :: acc) in
  (List.rev records, errors)

let parse_string s = collect (fold_lines (Fasta.line_reader s))
let fold_channel ic = fold_lines (fun () -> In_channel.input_line ic)

let fold_file path ~init ~f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> fold_channel ic ~init ~f)

let iter_file path ~f = fst (fold_file path ~init:() ~f:(fun () r -> f r))

let read_file path = collect (fold_file path)

let to_string records =
  let buf = Buffer.create 1024 in
  List.iter
    (fun { id; seq; qual } ->
      Buffer.add_char buf '@';
      Buffer.add_string buf id;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Strand.to_string seq);
      Buffer.add_string buf "\n+\n";
      Buffer.add_string buf (qual_to_string qual);
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

let write_file path records =
  let oc = open_out path in
  output_string oc (to_string records);
  close_out oc

(* Synthesize a uniform quality track for simulated reads. *)
let with_uniform_quality ~q seq = Array.make (Strand.length seq) q
