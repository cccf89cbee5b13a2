(** File-level encoding and decoding (Section IV).

    A file is scrambled (unconstrained coding, Section II-D), prefixed
    with an 8-byte length header, chunked into encoding units, and each
    unit is matrix-encoded. Decoding groups reconstructed strands by
    unit, decodes every unit (missing molecules become erasures), then
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
  unparsable_strands : int;  (** wrong length / bad index checksum *)
}

(* The 8-byte length header is stored three times, one copy per matrix
   *column* (data fills column-major, so copy c goes at offset c*rows),
   and read back by a per-byte majority vote. The vote outvotes one bad
   copy, but it does not survive a failed codeword: under the Baseline
   layout all three copies of header byte i sit in codeword row i
   (columns 0-2), so a row RS cannot decode leaves all three as received
   (an erased column reads 0). A corrupt header fails the whole decode,
   and every unit is then reported Lost (ROADMAP item 3). Requires
   rows >= 8 (payload of at least 32 bases). *)
let header_copies = 3

let header_span ~rows =
  if rows < 8 then invalid_arg "File_codec: payload too short for the length header";
  header_copies * rows

let with_header ~rows data =
  let span = header_span ~rows in
  let n = Bytes.length data in
  let out = Bytes.make (span + n) '\000' in
  for c = 0 to header_copies - 1 do
    for i = 0 to 7 do
      Bytes.set out ((c * rows) + i) (Char.chr ((n lsr (8 * i)) land 0xff))
    done
  done;
  Bytes.blit data 0 out span n;
  out

let read_header ~rows data =
  let span = header_span ~rows in
  if Bytes.length data < span then None
  else begin
    let byte i =
      (* majority of the three copies; ties fall back to copy 0 *)
      let a = Char.code (Bytes.get data i)
      and b = Char.code (Bytes.get data (rows + i))
      and c = Char.code (Bytes.get data ((2 * rows) + i)) in
      if a = b || a = c then a else if b = c then b else a
    in
    let n = ref 0 in
    for i = 7 downto 0 do
      n := (!n lsl 8) lor byte i
    done;
    if !n < 0 || !n > Bytes.length data - span then None
    else Some (Bytes.sub data span !n)
  end

let encode ?(layout = Layout.Baseline) ?(params = Params.default) (file : Bytes.t) : encoded =
  Params.validate params;
  let unit_bytes = Params.unit_data_bytes params in
  let headered = with_header ~rows:(Params.rows params) file in
  let n_units = (Bytes.length headered + unit_bytes - 1) / unit_bytes in
  (* Pad to whole units *before* scrambling: otherwise the zero padding
     would come out as identical all-A molecules that no clustering
     algorithm could tell apart. *)
  let padded = Bytes.make (n_units * unit_bytes) '\000' in
  Bytes.blit headered 0 padded 0 (Bytes.length headered);
  let payload = Dna.Randomizer.scramble ~seed:params.Params.scramble_seed padded in
  if n_units > Index.max_unit + 1 then invalid_arg "File_codec.encode: file too large";
  let strands = ref [] in
  for u = n_units - 1 downto 0 do
    let chunk = Bytes.sub payload (u * unit_bytes) unit_bytes in
    let unit_strands = Matrix_codec.encode_unit params ~layout ~unit_id:u chunk in
    strands := Array.to_list unit_strands @ !strands
  done;
  { params; layout; strands = Array.of_list !strands; n_units }

type error =
  | Invalid_params of string
  | Corrupt_header
      (** all three header copies disagree or record an impossible
          length: the file boundary cannot be recovered *)

let error_message = function
  | Invalid_params msg -> "File_codec.decode: " ^ msg
  | Corrupt_header -> "File_codec.decode: corrupted length header"

(* Decode from reconstructed strands. Strands may arrive in any order,
   with duplicates (the first parsed copy of a column wins), with
   corrupted indices, truncated, or entirely missing. Never raises: a
   unit whose decode call is malformed is treated as wholly lost, and
   every malformed input surfaces as [Error] or per-unit stats. *)
let decode ?(layout = Layout.Baseline) ?(params = Params.default) ~n_units
    (strands : Dna.Strand.t list) : (Bytes.t * decode_stats, error) result =
  match Params.validate params with
  | exception Invalid_argument msg -> Error (Invalid_params msg)
  | () ->
  if n_units < 0 || n_units > Index.max_unit + 1 then
    Error (Invalid_params (Printf.sprintf "n_units %d out of range" n_units))
  else if Params.rows params < 8 then
    Error (Invalid_params "payload too short for the length header")
  else begin
  let rows = Params.rows params in
  let cols = Params.columns params in
  let unit_columns = Array.init n_units (fun _ -> Array.make cols None) in
  let unparsable = ref 0 in
  List.iter
    (fun s ->
      match Matrix_codec.parse_strand params s with
      | Some (idx, payload)
        when idx.Index.unit_id < n_units && idx.Index.column < cols ->
          if unit_columns.(idx.Index.unit_id).(idx.Index.column) = None then
            unit_columns.(idx.Index.unit_id).(idx.Index.column) <- Some payload
      | Some _ | None -> incr unparsable)
    strands;
  let missing = ref 0 in
  Array.iter
    (fun columns -> Array.iter (fun c -> if c = None then incr missing) columns)
    unit_columns;
  let all_failed =
    (* A unit that could not be decoded at all: every codeword counts as
       failed, every column as erased. *)
    {
      Matrix_codec.failed_codewords = List.init rows Fun.id;
      corrected_bytes = 0;
      erased_columns = List.init cols Fun.id;
    }
  in
  let stats_acc =
    Array.make n_units { Matrix_codec.failed_codewords = []; corrected_bytes = 0; erased_columns = [] }
  in
  let buf = Buffer.create (n_units * Params.unit_data_bytes params) in
  Array.iteri
    (fun u columns ->
      match Matrix_codec.decode_unit params ~layout columns with
      | Ok (data, stats) ->
          stats_acc.(u) <- stats;
          Buffer.add_bytes buf data
      | Error _ ->
          stats_acc.(u) <- all_failed;
          Buffer.add_bytes buf (Bytes.make (Params.unit_data_bytes params) '\000'))
    unit_columns;
  let payload =
    Dna.Randomizer.unscramble ~seed:params.Params.scramble_seed (Buffer.to_bytes buf)
  in
  match read_header ~rows payload with
  | Some file ->
      Ok
        ( file,
          { units = stats_acc; missing_strands = !missing; unparsable_strands = !unparsable } )
  | None -> Error Corrupt_header
  end

(* Total decode failure indicator: any unit with failed codewords. *)
let fully_recovered stats =
  Array.for_all (fun u -> u.Matrix_codec.failed_codewords = []) stats.units

(* ---------- partial recovery ---------- *)

type unit_status =
  | Recovered  (** every codeword decoded *)
  | Degraded of { failed_codewords : int }  (** some codewords uncorrected *)
  | Lost  (** no codeword decoded: the unit was effectively missing *)

type partial_recovery = {
  unit_status : unit_status array;
  recovered_fraction : float;
  recovered_ranges : (int * int) list;
      (** maximal [start, stop) byte ranges of the returned file whose
          codewords all decoded *)
}

let no_recovery ~n_units =
  { unit_status = Array.make (max n_units 0) Lost; recovered_fraction = 0.0; recovered_ranges = [] }

let unit_counts p =
  Array.fold_left
    (fun (r, d, l) -> function
      | Recovered -> (r + 1, d, l) | Degraded _ -> (r, d + 1, l) | Lost -> (r, d, l + 1))
    (0, 0, 0) p.unit_status

let status_of_unit ~rows (u : Matrix_codec.unit_stats) =
  match List.length u.Matrix_codec.failed_codewords with
  | 0 -> Recovered
  | f when f >= rows -> Lost
  | f -> Degraded { failed_codewords = f }

(* Which bytes of the decoded file are trustworthy. Data fills units
   column-major, so the file byte at offset [i] lives at payload position
   [i + header_span], in unit [pos / unit_bytes], codeword row
   [pos mod rows] — trustworthy iff that codeword's RS decode
   succeeded. Scrambling is byte-wise, so positions are preserved. *)
let partial ~(params : Params.t) ~file_len (stats : decode_stats) : partial_recovery =
  let rows = Params.rows params in
  let unit_bytes = Params.unit_data_bytes params in
  let span = header_span ~rows in
  let n_units = Array.length stats.units in
  let failed = Array.make n_units [||] in
  Array.iteri
    (fun u us ->
      let f = Array.make rows false in
      List.iter (fun cw -> if cw >= 0 && cw < rows then f.(cw) <- true) us.Matrix_codec.failed_codewords;
      failed.(u) <- f)
    stats.units;
  let ok i =
    let pos = i + span in
    let u = pos / unit_bytes in
    u < n_units && not failed.(u).(pos mod unit_bytes mod rows)
  in
  let ranges = ref [] in
  let run_start = ref (-1) in
  let recovered = ref 0 in
  for i = 0 to file_len - 1 do
    if ok i then begin
      incr recovered;
      if !run_start < 0 then run_start := i
    end
    else if !run_start >= 0 then begin
      ranges := (!run_start, i) :: !ranges;
      run_start := -1
    end
  done;
  if !run_start >= 0 then ranges := (!run_start, file_len) :: !ranges;
  {
    unit_status = Array.map (status_of_unit ~rows) stats.units;
    recovered_fraction =
      (if file_len = 0 then 1.0 else float_of_int !recovered /. float_of_int file_len);
    recovered_ranges = List.rev !ranges;
  }
