(* Boxed reference implementations of the reconstruction algorithms,
   kept as the oracle for the pool-native surface in
   [Reconstruction.Bma], [Reconstruction.Nw_consensus] and
   [Reconstruction.Ensemble]. Each takes the cluster as a plain
   [Dna.Strand.t array] and must return byte-for-byte what the pool
   function returns over an index slice holding the same reads, raising
   the same [Invalid_argument] on an empty cluster.

   BMA here is the list-based implementation that the pool [Bma.core]
   was written to reproduce. The NW consensus allocates fresh tables
   every round where the pool path reuses its domain arena; the benches
   time the two against each other, and the tests compare every
   algorithm against this file. *)

let lookahead = 2
let refinements = 2

(* ---------- BMA and double-sided BMA ---------- *)

(* Majority base over [reads] at their pointers shifted by [offset],
   restricted to indices in [active]. Returns -1 when nothing votes. *)
let majority_at reads pointers active ~offset =
  let counts = Array.make 4 0 in
  List.iter
    (fun i ->
      let p = pointers.(i) + offset in
      if p >= 0 && p < Dna.Strand.length reads.(i) then begin
        let c = Dna.Strand.get_code reads.(i) p in
        counts.(c) <- counts.(c) + 1
      end)
    active;
  let best = ref (-1) and best_count = ref 0 in
  for c = 0 to 3 do
    if counts.(c) > !best_count then begin
      best := c;
      best_count := counts.(c)
    end
  done;
  !best

(* Score a realignment hypothesis: how well the read starting at [start]
   matches the expected continuation [expected]. *)
let hypothesis_score read ~start expected =
  let n = Dna.Strand.length read in
  let score = ref 0 in
  List.iteri
    (fun k e ->
      if e >= 0 && start + k < n && start + k >= 0 && Dna.Strand.get_code read (start + k) = e then
        incr score)
    expected;
  !score

let bma ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  let n_reads = Array.length reads in
  if n_reads = 0 then invalid_arg "Bma.reconstruct: empty cluster";
  let pointers = Array.make n_reads 0 in
  let consensus = Array.make target_len 0 in
  let all = List.init n_reads (fun i -> i) in
  for t = 0 to target_len - 1 do
    let active = List.filter (fun i -> pointers.(i) < Dna.Strand.length reads.(i)) all in
    let c = majority_at reads pointers active ~offset:0 in
    let c = if c < 0 then 0 (* all reads exhausted; emit A *) else c in
    consensus.(t) <- c;
    (* Expected continuation after this consensus base: the majority of
       the agreeing reads' next bases. *)
    let agreeing =
      List.filter
        (fun i ->
          pointers.(i) < Dna.Strand.length reads.(i)
          && Dna.Strand.get_code reads.(i) pointers.(i) = c)
        active
    in
    let expected =
      List.init lookahead (fun k -> majority_at reads pointers agreeing ~offset:(k + 1))
    in
    List.iter
      (fun i ->
        let p = pointers.(i) in
        let read = reads.(i) in
        if Dna.Strand.get_code read p = c then pointers.(i) <- p + 1
        else begin
          (* Disagreement: guess the edit. Each hypothesis implies where
             the read should resume to match the expected continuation. *)
          let sub_score = hypothesis_score read ~start:(p + 1) expected in
          let ins_score = hypothesis_score read ~start:(p + 2) expected in
          let del_score = hypothesis_score read ~start:p expected in
          (* Insertion additionally requires the consensus base to appear
             right after the inserted one. *)
          let ins_ok = p + 1 < Dna.Strand.length read && Dna.Strand.get_code read (p + 1) = c in
          let ins_score = if ins_ok then ins_score + 1 else -1 in
          if sub_score >= ins_score && sub_score >= del_score then pointers.(i) <- p + 1
          else if del_score >= ins_score then () (* base belongs to the next position *)
          else pointers.(i) <- p + 2
        end)
      active
  done;
  Dna.Strand.of_codes consensus

(* Double-sided BMA: reconstruct the left half left-to-right and the
   right half right-to-left on reversed reads, then join. *)
let bma_double ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  let left_len = (target_len + 1) / 2 in
  let right_len = target_len - left_len in
  let left = bma ~target_len:left_len reads in
  let reversed = Array.map Dna.Strand.rev reads in
  let right_rev = bma ~target_len:right_len reversed in
  Dna.Strand.append left (Dna.Strand.rev right_rev)

(* ---------- NW consensus ---------- *)

(* A round's candidate columns in reference order, as parallel flat
   arrays (only the first [n] slots are meaningful). Alignment is most
   of a cluster's reconstruction time; everything around it stays in
   flat int arrays so the bookkeeping never becomes the bottleneck. *)
type profile = { codes : int array; support : int array; n : int }

(* One profile round over the first [n_reads] slots of [reads], filling
   caller-owned flat buffers: [counts]/[ins] must arrive zeroed,
   [codes]/[support] are overwritten. Returns the candidate count. *)
let profile_core (reference : Dna.Strand.t) (reads : Dna.Strand.t array) n_reads
    ~counts ~ins ~codes ~support : int =
  let m = Dna.Strand.length reference in
  (* Flat count tables: match column i holds votes at [i*5 .. i*5+4]
     (four bases plus the gap vote), insertion slot i at [i*4 .. i*4+3].
     Filled straight from the packed scripts — this loop runs once per
     read per refinement round and never allocates. *)
  for r = 0 to n_reads - 1 do
    let read = Array.unsafe_get reads r in
    let p = Dna.Alignment.align_packed reference read in
    let ops = p.Dna.Alignment.ops in
    let pos = ref 0 in
    for k = p.Dna.Alignment.off to p.Dna.Alignment.lim - 1 do
      let e = Array.unsafe_get ops k in
      let kind = e lsr 4 in
      if kind <= 1 then begin
        (* match or substitute: vote the read's base *)
        let c = (!pos * 5) + (e land 3) in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
        incr pos
      end
      else if kind = 2 then begin
        let c = (!pos * 5) + 4 in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
        incr pos
      end
      else begin
        let c = (!pos * 4) + (e land 3) in
        Array.unsafe_set ins c (Array.unsafe_get ins c + 1)
      end
    done
  done;
  let n = ref 0 in
  let insertion_candidate i =
    let best = ref 0 in
    for b = 1 to 3 do
      if ins.((i * 4) + b) > ins.((i * 4) + !best) then best := b
    done;
    if ins.((i * 4) + !best) > 0 then begin
      codes.(!n) <- !best;
      support.(!n) <- ins.((i * 4) + !best);
      incr n
    end
  in
  for i = 0 to m - 1 do
    insertion_candidate i;
    let best = ref 0 in
    for b = 1 to 3 do
      if counts.((i * 5) + b) > counts.((i * 5) + !best) then best := b
    done;
    let gap = counts.((i * 5) + 4) in
    let sup = counts.((i * 5) + !best) in
    (* Record the column with its base support; a gap majority is the
       signal to drop it, encoded as low support relative to others. *)
    codes.(!n) <- !best;
    support.(!n) <- (if sup >= gap then sup else sup - gap);
    incr n
  done;
  insertion_candidate m;
  !n

(* Fresh buffers per round. At most one insertion column before every
   match column plus one trailing slot: 2m + 1 candidates. *)
let profile_columns (reference : Dna.Strand.t) (reads : Dna.Strand.t array) :
    profile =
  let m = Dna.Strand.length reference in
  let counts = Array.make (m * 5) 0 in
  let ins = Array.make ((m + 1) * 4) 0 in
  let codes = Array.make ((2 * m) + 1) 0 in
  let support = Array.make ((2 * m) + 1) 0 in
  let n = profile_core reference reads (Array.length reads) ~counts ~ins ~codes ~support in
  { codes; support; n }

(* Majority-rule vote used between refinement rounds: keep match columns
   that beat their gap votes and insertions backed by most reads. A pure
   function of an already-computed profile, so refinement rounds whose
   reference has stabilized can reuse the profile instead of realigning
   the whole cluster. *)
let vote_core (reference : Dna.Strand.t) ~n_reads ~codes ~support n ~scratch : Dna.Strand.t =
  let kept = ref 0 in
  for k = 0 to n - 1 do
    if 2 * support.(k) > n_reads then incr kept
  done;
  if !kept = 0 then reference
  else begin
    let j = ref 0 in
    for k = 0 to n - 1 do
      if 2 * support.(k) > n_reads then begin
        scratch.(!j) <- codes.(k);
        incr j
      end
    done;
    Dna.Strand.init_codes !kept (fun i -> Array.unsafe_get scratch i)
  end

let vote_columns (reference : Dna.Strand.t) ~n_reads (p : profile) : Dna.Strand.t =
  vote_core reference ~n_reads ~codes:p.codes ~support:p.support p.n ~scratch:(Array.make (max 1 p.n) 0)

(* In-place heapsort of [order.(0..n)] by (support desc, index asc).
   Indices are distinct so the key order is strict, and any comparison
   sort yields the same sequence. *)
let sort_order order n support =
  let after a b = support.(a) < support.(b) || (support.(a) = support.(b) && a > b) in
  let swap i j =
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && after order.(l + 1) order.(l) then l + 1 else l in
      if after order.(c) order.(i) then begin
        swap c i;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for len = n - 1 downto 1 do
    swap 0 len;
    sift 0 len
  done

(* Final round over flat buffers: write the kept codes into [out]
   (capacity >= target_len) and return [(written, padded)]. Keeps
   exactly [target_len] columns when over-long, strongest support first
   (ties resolved toward earlier columns). *)
let select_core ~codes ~support n target_len ~order ~keep ~out =
  if n <= target_len then begin
    Array.blit codes 0 out 0 n;
    (n, target_len - n)
  end
  else begin
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    sort_order order n support;
    Array.fill keep 0 n false;
    for k = 0 to target_len - 1 do
      keep.(order.(k)) <- true
    done;
    let j = ref 0 in
    for i = 0 to n - 1 do
      if keep.(i) then begin
        out.(!j) <- codes.(i);
        incr j
      end
    done;
    (target_len, 0)
  end

let select_columns (p : profile) target_len =
  let out = Array.make (max p.n target_len) 0 in
  let written, padded =
    select_core ~codes:p.codes ~support:p.support p.n target_len ~order:(Array.make (max 1 p.n) 0)
      ~keep:(Array.make (max 1 p.n) false) ~out
  in
  (Array.sub out 0 written, padded)

let nw ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  let reads =
    if Array.for_all (fun r -> Dna.Strand.length r > 0) reads then reads
    else
      Array.of_list (List.filter (fun r -> Dna.Strand.length r > 0) (Array.to_list reads))
  in
  let n_reads = Array.length reads in
  if n_reads = 0 then invalid_arg "Nw_consensus.reconstruct: empty cluster";
  (* Longest read as the initial backbone. *)
  let reference = ref reads.(0) in
  Array.iter
    (fun r -> if Dna.Strand.length r > Dna.Strand.length !reference then reference := r)
    reads;
  (* Each round profiles the cluster once and votes; when the vote
     reproduces the reference the profile is already the final one
     (realigning against an unchanged reference yields the same columns),
     so later rounds — and the final selection pass — reuse it instead of
     realigning every read again. Output is identical to always
     re-profiling; only the redundant alignments are skipped. *)
  let columns = ref (profile_columns !reference reads) in
  (try
     for _ = 1 to refinements do
       let voted = vote_columns !reference ~n_reads !columns in
       if Dna.Strand.equal voted !reference then raise Exit;
       reference := voted;
       columns := profile_columns !reference reads
     done
   with Exit -> ());
  let codes, padded = select_columns !columns target_len in
  if padded = 0 then Dna.Strand.of_codes codes
  else begin
    let out = Array.make target_len 0 in
    Array.blit codes 0 out 0 (Array.length codes);
    Dna.Strand.of_codes out
  end

(* ---------- votes and the fallback chain ---------- *)

(* Plain per-position plurality vote. Reads shorter than [target_len]
   stop voting; positions no read covers default to A. *)
let majority ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  Dna.Strand.init_codes target_len (fun i ->
      let votes = [| 0; 0; 0; 0 |] in
      Array.iter
        (fun r ->
          if i < Dna.Strand.length r then
            votes.(Dna.Strand.get_code r i) <- votes.(Dna.Strand.get_code r i) + 1)
        reads;
      let best = ref 0 in
      for c = 1 to 3 do
        if votes.(c) > votes.(!best) then best := c
      done;
      !best)

(* Per-position vote over BMA, double-sided BMA and NW: the BMA base
   where the two BMA variants agree, the NW base otherwise. *)
let ensemble ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t =
  let bma = bma ~target_len reads in
  let dbma = bma_double ~target_len reads in
  let nw = nw ~target_len reads in
  Dna.Strand.init_codes target_len (fun i ->
      let a = Dna.Strand.get_code bma i
      and b = Dna.Strand.get_code dbma i
      and c = Dna.Strand.get_code nw i in
      if a = b then a else c)

(* NW -> BMA -> majority, absorbing exceptions at each step. [None] for
   an empty cluster or if every step raised. *)
let fallback ~target_len (reads : Dna.Strand.t array) : Dna.Strand.t option =
  if Array.length reads = 0 then None
  else
    List.find_map
      (fun f -> match f ~target_len reads with s -> Some s | exception _ -> None)
      [ nw; bma; majority ]

(* Run a pool-native reconstructor on a plain array: the reads go into a
   fresh pool and the slice addresses all of them, in order. *)
let on_pool recon ~target_len (reads : Dna.Strand.t array) =
  recon ~target_len (Dna.Strand_pool.of_strands reads) (Array.init (Array.length reads) Fun.id)
