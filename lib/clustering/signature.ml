(** q-gram and w-gram signatures (Sections VI-A and VI-C).

    A signature summarizes a read against the dictionary of all 4^q
    grams (substrings of length q):

    - the *q-gram* signature is a bit per gram — whether it occurs in the
      read — compared with Hamming distance;
    - the *w-gram* signature records the position of the first occurrence
      of each gram (a sentinel when absent), compared with the L1 norm.

    Both are computed in one linear scan of the read. w-grams cost more
    to compute and store but spread cluster signatures further apart,
    saving edit-distance comparisons downstream (Section VI-C). *)

type kind = Qgram | Wgram

(* Sentinel for w-grams: one past any real position. *)
let absent_position ~read_len = read_len + 1

let dict_size ~q = 1 lsl (2 * q)

(** Flat signature index for clustering at scale.

    Rather than one heap object per read (a 4^q-byte bitmap for
    q-grams) and a byte-wise distance loop, the index packs every
    read's signature into one shared flat int array — q-gram
    presence bits 63 to a word, compared with SWAR-popcount Hamming
    distance; w-gram positions as flat rows compared with L1 — built in
    parallel over the Par pool. Workers fill disjoint row ranges of the
    one preallocated array (sharded build), so the merge is free and the
    result is bit-identical for every worker count. *)
module Index = struct
  type index = {
    kind : kind;
    row : int;  (* ints per read *)
    data : int array;  (* read i's signature at [i*row, (i+1)*row) *)
  }

  type t = index

  let bits_per_word = 63

  (* 64-bit SWAR popcount, valid for OCaml's 63-bit ints: [m1] has its
     top (sign) bit set so it is built from halves; the byte-sum
     multiply reads bits 56..62, enough for counts up to 63. *)
  let m1 = (0x55555555 lsl 32) lor 0x55555555
  let m2 = 0x3333333333333333
  let m4 = 0x0F0F0F0F0F0F0F0F
  let h01 = 0x0101010101010101

  let[@inline] popcount x =
    let x = x - ((x lsr 1) land m1) in
    let x = (x land m2) + ((x lsr 2) land m2) in
    let x = (x + (x lsr 4)) land m4 in
    (x * h01) lsr 56

  let row_of ~q kind =
    match kind with
    | Qgram -> (dict_size ~q + bits_per_word - 1) / bits_per_word
    | Wgram -> dict_size ~q

  let fill_row idx ~q (read : Dna.Strand.t) i =
    let base = i * idx.row in
    match idx.kind with
    | Qgram ->
        let n = Dna.Strand.length read in
        let mask = dict_size ~q - 1 in
        let acc = ref 0 in
        for j = 0 to n - 1 do
          acc := ((!acc lsl 2) lor Dna.Strand.unsafe_get_code read j) land mask;
          if j >= q - 1 then begin
            let g = !acc in
            let w = base + (g / bits_per_word) in
            idx.data.(w) <- idx.data.(w) lor (1 lsl (g mod bits_per_word))
          end
        done
    | Wgram ->
        let n = Dna.Strand.length read in
        let mask = dict_size ~q - 1 in
        let absent = absent_position ~read_len:n in
        Array.fill idx.data base idx.row absent;
        let acc = ref 0 in
        (* Last write wins per slot, so scan left to right and let later
           occurrences be ignored by writing only the first. *)
        for j = 0 to n - 1 do
          acc := ((!acc lsl 2) lor Dna.Strand.unsafe_get_code read j) land mask;
          if j >= q - 1 && idx.data.(base + !acc) = absent then
            idx.data.(base + !acc) <- j - q + 1
        done

  let build ?(domains = 1) ~q kind (reads : Dna.Strand.t array) =
    let row = row_of ~q kind in
    let n = Array.length reads in
    let idx = { kind; row; data = Array.make (max 1 (n * row)) 0 } in
    (* Row ranges are disjoint, so parallel fills never collide. *)
    ignore
      (Dna.Par.mapi_array ~label:"cluster.index" ~domains
         (fun i read ->
           fill_row idx ~q read i;
           0)
         reads);
    idx

  let distance idx i j =
    let row = idx.row in
    let a = i * row and b = j * row in
    match idx.kind with
    | Qgram ->
        let d = ref 0 in
        for w = 0 to row - 1 do
          d := !d + popcount (idx.data.(a + w) lxor idx.data.(b + w))
        done;
        !d
    | Wgram ->
        let d = ref 0 in
        for w = 0 to row - 1 do
          d := !d + abs (idx.data.(a + w) - idx.data.(b + w))
        done;
        !d
end
