(** Per-domain scratch for pool-native reconstruction.

    One grow-only arena per worker domain (keyed through [Domain.DLS],
    like the alignment scratch in {!Dna.Alignment}): a cluster's reads
    are minted as zero-copy [(pool, index)] views into [views], and
    every flat table the consensus algorithms need — NW profile counts
    and candidate columns, BMA pointers and lookahead expectations, the
    consensus output codes — lives in reusable buffers that grow to the
    largest cluster seen and are allocation-free afterwards.

    Lifetime rules: buffers and minted views are valid only between the
    [mint] that started a cluster and the next [mint] on the same
    domain; views follow {!Dna.Strand_pool}'s aliasing discipline (mint
    only after the pool has stopped growing). Nothing here is
    thread-safe — each domain owns its arena. *)

type t = {
  mutable views : Dna.Strand.t array;  (** minted cluster reads; first [mint]-count slots live *)
  mutable counts : int array;  (** NW match-column votes, [m*5] *)
  mutable ins : int array;  (** NW insertion-slot votes and longest runs, [(m+1)*5] *)
  mutable codes : int array;  (** NW candidate codes, [2m+1] *)
  mutable support : int array;  (** NW candidate support, [2m+1] *)
  mutable hist : int array;  (** NW selection support histogram *)
  mutable pointers : int array;  (** BMA per-read pointers *)
  mutable expected : int array;  (** BMA lookahead expectation window *)
  counts4 : int array;  (** 4-way base-vote counts (BMA, majority) *)
  mutable out : int array;  (** consensus output codes, [target_len] *)
}

let create () =
  {
    views = [||];
    counts = [||];
    ins = [||];
    codes = [||];
    support = [||];
    hist = [||];
    pointers = [||];
    expected = [||];
    counts4 = Array.make 4 0;
    out = [||];
  }

let key = Domain.DLS.new_key create
let get () = Domain.DLS.get key

(* Grow-only capacity: at least [n] slots, doubling to amortize. The
   caller stores the result back into the arena field. *)
let ints buf n = if Array.length buf >= n then buf else Array.make (max n (2 * Array.length buf)) 0

let mint a pool (idxs : int array) ~keep_empty =
  let n = Array.length idxs in
  if Array.length a.views < n then
    a.views <- Array.make (max n (2 * Array.length a.views)) Dna.Strand.empty;
  let m = ref 0 in
  for k = 0 to n - 1 do
    let v = Dna.Strand_pool.get pool (Array.unsafe_get idxs k) in
    if keep_empty || Dna.Strand.length v > 0 then begin
      a.views.(!m) <- v;
      incr m
    end
  done;
  !m

let capacity_words a =
  Array.length a.views + Array.length a.counts + Array.length a.ins + Array.length a.codes
  + Array.length a.support + Array.length a.hist
  + Array.length a.pointers + Array.length a.expected + Array.length a.counts4
  + Array.length a.out
