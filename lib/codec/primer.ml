(** PCR primer design and handling (Sections II-D/F, VIII).

    A primer pair is the "key" of a stored file: every molecule of the
    file is flanked by the pair, and PCR amplification selects on it.
    Primers are 20 bases, GC-balanced, free of long homopolymers, and
    pairwise far apart in Hamming distance so that noisy reads still
    match the right file. Reads come off the sequencer in either
    orientation; [find_core] detects the direction by matching primers
    and locates the core payload between them.

    Primer location in noisy reads uses semi-global alignment (the primer
    must match end to end, the read position floats), so insertions and
    deletions inside the primer region are absorbed instead of cascading
    into mismatches. It runs bit-parallel: a primer fits one machine
    word, so each read base costs a handful of word operations. *)

let primer_length = 20

type pair = { forward : Dna.Strand.t; reverse : Dna.Strand.t }

let gc_balanced s =
  let gc = Dna.Strand.gc_content s in
  gc >= 0.4 && gc <= 0.6

let acceptable s = gc_balanced s && Dna.Strand.max_homopolymer s <= 3

type error =
  | Constraints_unsatisfiable of { requested : int; generated : int; attempts : int }
      (** the rejection sampler hit its attempt cap before producing
          [requested] primers; [generated] were found *)

let error_message = function
  | Constraints_unsatisfiable { requested; generated; attempts } ->
      Printf.sprintf
        "Primer.generate: constraints unsatisfiable (%d of %d primers after %d attempts)"
        generated requested attempts

(* Generate [n] primers with pairwise Hamming distance at least
   [min_distance], rejection-sampling random candidates. *)
let generate ?(min_distance = 8) ?(max_attempts = 100_000) rng n :
    (Dna.Strand.t array, error) result =
  let chosen = ref [] in
  let count = ref 0 in
  let attempts = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) && !count < n do
    incr attempts;
    if !attempts > max_attempts then exhausted := true
    else begin
      let cand = Dna.Strand.random rng primer_length in
      let far_enough other = Dna.Distance.hamming cand other >= min_distance in
      (* Also keep distance from every reverse complement, since reads can
         arrive in either orientation. *)
      if
        acceptable cand
        && List.for_all
             (fun p -> far_enough p && far_enough (Dna.Strand.reverse_complement p))
             !chosen
      then begin
        chosen := cand :: !chosen;
        incr count
      end
    end
  done;
  if !exhausted then
    Error (Constraints_unsatisfiable { requested = n; generated = !count; attempts = max_attempts })
  else Ok (Array.of_list (List.rev !chosen))

let generate_pairs ?min_distance ?max_attempts rng n : (pair array, error) result =
  match generate ?min_distance ?max_attempts rng (2 * n) with
  | Error err -> Error err
  | Ok primers ->
      Ok (Array.init n (fun i -> { forward = primers.(2 * i); reverse = primers.((2 * i) + 1) }))

let generate_pairs_exn ?min_distance ?max_attempts rng n : pair array =
  match generate_pairs ?min_distance ?max_attempts rng n with
  | Ok pairs -> pairs
  | Error e -> failwith (error_message e)

(* Attach the pair around a core strand (Figure 2a). *)
let attach pair core = Dna.Strand.concat [ pair.forward; core; pair.reverse ]

(* Hamming mismatches of [pattern] against [s] at [pos]; [max_int] when
   it does not fit. Used for strict matching on clean pool molecules. *)
let mismatches_at s ~pos ~pattern =
  let n = Dna.Strand.length s and m = Dna.Strand.length pattern in
  if pos < 0 || pos + m > n then max_int
  else begin
    let d = ref 0 in
    for i = 0 to m - 1 do
      if Dna.Strand.get_code s (pos + i) <> Dna.Strand.get_code pattern i then incr d
    done;
    !d
  end

(* A registry of reserved primer pairs: the shared bookkeeping behind
   both the in-memory kv-store and the persistent store. Reserving keeps
   a pair (and, through [fresh], its neighborhood) out of circulation;
   releasing returns it — the reclamation step after a deleted object's
   molecules have physically left the pool.

   Each reserved pair's four primers (forward, reverse and both reverse
   complements) are packed at reserve time, two bits per base, into one
   int each, so [fresh] tests a candidate with xor, fold and popcount
   instead of rescanning boxed strands. Slots stay dense: [release]
   moves the last slot into the freed one. *)
module Registry = struct
  module Pairs = Hashtbl.Make (struct
    type t = pair

    let equal a b = Dna.Strand.equal a.forward b.forward && Dna.Strand.equal a.reverse b.reverse
    let hash p = Hashtbl.hash (Dna.Strand.hash p.forward, Dna.Strand.hash p.reverse)
  end)

  type t = {
    mutable slots : pair array;  (** reserved pairs in [0, n) *)
    mutable stamps : int array;  (** reservation order of each slot *)
    mutable words : int array;  (** four packed primers per slot *)
    mutable n : int;
    mutable clock : int;
    mutable foreign : int;  (** reserved primers not [primer_length] long (left unpacked) *)
    index : int Pairs.t;  (** pair -> slot *)
  }

  let no_pair = { forward = Dna.Strand.empty; reverse = Dna.Strand.empty }

  let create () =
    {
      slots = Array.make 16 no_pair;
      stamps = Array.make 16 0;
      words = Array.make 64 0;
      n = 0;
      clock = 0;
      foreign = 0;
      index = Pairs.create 64;
    }

  (* Base [i] in bits [2i, 2i+1]. *)
  let pack s =
    let w = ref 0 in
    for i = Dna.Strand.length s - 1 downto 0 do
      w := (!w lsl 2) lor Dna.Strand.unsafe_get_code s i
    done;
    !w

  let primers p =
    [| p.forward; p.reverse; Dna.Strand.reverse_complement p.forward;
       Dna.Strand.reverse_complement p.reverse |]

  let foreign_count p =
    Array.fold_left
      (fun a s -> if Dna.Strand.length s = primer_length then a else a + 1)
      0 [| p.forward; p.reverse |]

  let grow r =
    let cap = 2 * Array.length r.slots in
    let slots = Array.make cap no_pair in
    Array.blit r.slots 0 slots 0 r.n;
    let stamps = Array.make cap 0 in
    Array.blit r.stamps 0 stamps 0 r.n;
    let words = Array.make (4 * cap) 0 in
    Array.blit r.words 0 words 0 (4 * r.n);
    r.slots <- slots;
    r.stamps <- stamps;
    r.words <- words

  let set_slot r i p ~stamp =
    r.slots.(i) <- p;
    r.stamps.(i) <- stamp;
    Pairs.replace r.index p i

  let size r = r.n
  let is_reserved r p = Pairs.mem r.index p

  let reserve r p =
    if not (is_reserved r p) then begin
      if r.n = Array.length r.slots then grow r;
      let i = r.n in
      Array.iteri
        (fun k s ->
          r.words.((4 * i) + k) <- (if Dna.Strand.length s = primer_length then pack s else 0))
        (primers p);
      r.foreign <- r.foreign + foreign_count p;
      r.clock <- r.clock + 1;
      set_slot r i p ~stamp:r.clock;
      r.n <- i + 1
    end

  let release r p =
    match Pairs.find_opt r.index p with
    | None -> ()
    | Some i ->
        Pairs.remove r.index p;
        r.foreign <- r.foreign - foreign_count p;
        let last = r.n - 1 in
        if i <> last then begin
          Array.blit r.words (4 * last) r.words (4 * i) 4;
          set_slot r i r.slots.(last) ~stamp:r.stamps.(last)
        end;
        r.n <- last

  (* [pairs] lists the head as the most recent: reserve from the tail. *)
  let of_pairs pairs =
    let r = create () in
    List.iter (reserve r) (List.rev pairs);
    r

  let pairs r =
    let order = Array.init r.n Fun.id in
    Array.sort (fun a b -> compare r.stamps.(b) r.stamps.(a)) order;
    Array.to_list (Array.map (fun i -> r.slots.(i)) order)

  (* Bit [2i] of [low] is set for every base [i] of a primer. *)
  let low = 0x5555555555

  (* Set bits of [x], which holds only bits of [low]: each 2-bit group
     is 0 or 1, so the SWAR sum starts at the 4-bit step. *)
  let[@inline] popcount40 x =
    let x = (x land 0x3333333333) + ((x lsr 2) land 0x3333333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F0F in
    ((x * 0x0101010101) lsr 32) land 0xFF

  (* Hamming distance of two packed primers: a base differs when either
     bit of its xor group is set. *)
  let[@inline] mismatches a b =
    let x = a lxor b in
    popcount40 ((x lor (x lsr 1)) land low)

  (* A fresh pair must stay [min_distance] away from both primers of
     every reserved pair and their reverse complements, so PCR selection
     on any reserved key never amplifies the new molecules and vice
     versa. *)
  let fresh ?(min_distance = 8) ?(max_attempts = 1000) r rng : (pair, error) result =
    if r.foreign > 0 then
      invalid_arg "Primer.Registry.fresh: a reserved primer is not primer_length bases";
    let words = r.words and n_words = 4 * r.n in
    let clear f b =
      let i = ref 0 in
      while
        !i < n_words
        &&
        let w = Array.unsafe_get words !i in
        mismatches f w >= min_distance && mismatches b w >= min_distance
      do
        incr i
      done;
      !i = n_words
    in
    let rec attempt tries =
      if tries >= max_attempts then
        Error (Constraints_unsatisfiable { requested = 1; generated = 0; attempts = tries })
      else
        match generate_pairs rng 1 with
        | Error e -> Error e
        | Ok cands ->
            let cand = cands.(0) in
            if clear (pack cand.forward) (pack cand.reverse) then Ok cand
            else attempt (tries + 1)
    in
    Result.map
      (fun p ->
        reserve r p;
        p)
      (attempt 0)
end

(* Tolerances of the demux: edits allowed inside a primer, and leading
   read bases a primer may start after. *)
let max_edits = 5
let slack = 4

(* The locator: semi-global alignment of the whole pattern against the
   read's head, its read span starting at 0..[slack] — a two-row DP over
   a window of [m + slack + max_edits] read bases — computed as one
   Myers/Hyyro column pass per read base, with the [m]-row pattern
   (m <= 63) in one word of match masks [masks] (layout of
   {!Dna.Strand.eq_masks}).
   Column 0 is all +1 vertical deltas (D[i][0] = i); the top row's
   horizontal delta is 0 for the first [slack] columns and +1 after,
   the DP's leading-gap rule. The row-m score is tracked per column and
   the first column holding the minimum, if it is <= [max_edits], wins —
   the DP's tie-break. The window is read by index, so no orientation
   costs a copy: column j reads base [j - 1], or base [n - j] when
   [tail], each [lxor comp] (3 complements, 0 keeps). *)
let scan masks m ~slack ~max_edits ~tail ~comp (read : Dna.Strand.t) =
  let n = Dna.Strand.length read in
  let window = min n (m + slack + max_edits) in
  if window < m - max_edits then None
  else begin
    let sbit = 1 lsl (m - 1) in
    let pv = ref (-1) and mv = ref 0 and score = ref m in
    let best_j = ref (if m <= max_edits then 0 else -1) in
    let best = ref (if m <= max_edits then m else max_edits + 1) in
    for j = 1 to window do
      let i = if tail then n - j else j - 1 in
      let eq = Array.unsafe_get masks (Dna.Strand.unsafe_get_code read i lxor comp) in
      let pv0 = !pv and mv0 = !mv in
      let xv = eq lor mv0 in
      let xh = (((eq land pv0) + pv0) lxor pv0) lor eq in
      let ph = mv0 lor lnot (xh lor pv0) in
      let mh = pv0 land xh in
      if ph land sbit <> 0 then incr score else if mh land sbit <> 0 then decr score;
      let ph = (ph lsl 1) lor if j <= slack then 0 else 1 in
      pv := (mh lsl 1) lor lnot (xv lor ph);
      mv := ph land xv;
      if !score < !best then begin
        best := !score;
        best_j := j
      end
    done;
    if !best_j < 0 then None else Some (!best_j, !best)
  end

let pattern_masks name pattern =
  let m = Dna.Strand.length pattern in
  if m < 1 || m > Dna.Strand.mask_bits then invalid_arg (name ^ ": pattern must be 1..63 nt");
  Dna.Strand.eq_masks pattern

let locate_prefix ~slack ~max_edits pattern read =
  let masks = pattern_masks "Primer.locate_prefix" pattern in
  scan masks (Dna.Strand.length pattern) ~slack ~max_edits ~tail:false ~comp:0 read

let locate_suffix ~slack ~max_edits pattern read =
  let masks = pattern_masks "Primer.locate_suffix" (Dna.Strand.rev pattern) in
  match scan masks (Dna.Strand.length pattern) ~slack ~max_edits ~tail:true ~comp:0 read with
  | None -> None
  | Some (end_in_rev, edits) -> Some (Dna.Strand.length read - end_in_rev, edits)

type orientation = Forward | Reverse

(* A pair's demux key: the forward primer's masks, and the masks of the
   reverse primer read backwards, so its tail search is a head scan. *)
type key = { fwd : int array; fwd_len : int; rev : int array; rev_len : int }

let key pair =
  {
    fwd = pattern_masks "Primer.key" pair.forward;
    fwd_len = Dna.Strand.length pair.forward;
    rev = pattern_masks "Primer.key" (Dna.Strand.rev pair.reverse);
    rev_len = Dna.Strand.length pair.reverse;
  }

(* Orient and strip in three passes. The forward primer is looked for
   at the head of the read and at the head of its reverse complement
   (the tail, complemented); whichever has fewer edits, forward on a
   tie, gives the orientation and the core's start. The reverse primer
   is then looked for at the far end of the oriented read. *)
let find_core k (read : Dna.Strand.t) : (int * int * orientation) option =
  let n = Dna.Strand.length read in
  let head ~tail ~comp = scan k.fwd k.fwd_len ~slack ~max_edits ~tail ~comp read in
  let tail_end ~tail ~comp = scan k.rev k.rev_len ~slack ~max_edits ~tail ~comp read in
  let forward start =
    match tail_end ~tail:true ~comp:0 with
    | Some (back, _) when n - back > start -> Some (start, n - back - start, Forward)
    | _ -> None
  in
  (* In reverse-complement coordinates the core is [start, n - back);
     in the read's own it is [back, n - start). *)
  let reverse start =
    match tail_end ~tail:false ~comp:3 with
    | Some (back, _) when n - back > start -> Some (back, n - start - back, Reverse)
    | _ -> None
  in
  match (head ~tail:false ~comp:0, head ~tail:true ~comp:3) with
  | Some (s, fd), Some (_, rd) when fd <= rd -> forward s
  | Some (s, _), None -> forward s
  | _, Some (s, _) -> reverse s
  | None, None -> None
