(** Ensemble trace reconstruction: run BMA, double-sided BMA and the
    Needleman-Wunsch consensus on the same cluster and take a
    per-position majority vote over their outputs (ties defer to the NW
    consensus, the strongest individual algorithm).

    The three algorithms fail differently — BMA toward the tail, DBMA in
    the middle, NW uniformly — so their errors rarely coincide and the
    vote cancels a useful fraction of them, at triple the cost.

    Every function takes a cluster as a [(pool, index)] slice. Each
    member re-mints the slice into the domain arena (the members run
    strictly in sequence, so the re-mints never overlap) under its own
    minting policy: BMA keeps empty reads as never-active, NW drops
    them. *)

(* Plain per-position plurality vote: the cheapest consensus that cannot
   fail. Reads shorter than [target_len] simply stop voting; positions no
   read covers default to A. The last line of the fallback chain. *)
let majority_pool ~target_len pool (idxs : int array) : Dna.Strand.t =
  let a = Recon_arena.get () in
  let n = Recon_arena.mint a pool idxs ~keep_empty:true in
  let views = a.Recon_arena.views in
  let votes = a.Recon_arena.counts4 in
  Dna.Strand.init_codes target_len (fun i ->
      Array.fill votes 0 4 0;
      for r = 0 to n - 1 do
        let v = Array.unsafe_get views r in
        if i < Dna.Strand.length v then begin
          let c = Dna.Strand.get_code v i in
          votes.(c) <- votes.(c) + 1
        end
      done;
      let best = ref 0 in
      for c = 1 to 3 do
        if votes.(c) > votes.(!best) then best := c
      done;
      !best)

(* Graceful-degradation chain (NW -> BMA -> majority): try each
   reconstructor in decreasing order of quality, absorbing exceptions, so
   one crashing algorithm degrades a cluster's consensus instead of
   killing the whole decode. [None] only when even the majority vote
   fails (e.g. an empty cluster). *)
let reconstruct_fallback_pool ~target_len pool (idxs : int array) : Dna.Strand.t option =
  if Array.length idxs = 0 then None
  else
    List.find_map
      (fun f -> match f ~target_len pool idxs with s -> Some s | exception _ -> None)
      [ Nw_consensus.reconstruct_pool; Bma.reconstruct_pool; majority_pool ]

let reconstruct_pool ~target_len pool (idxs : int array) : Dna.Strand.t =
  let bma = Bma.reconstruct_pool ~target_len pool idxs in
  let dbma = Bma.reconstruct_double_pool ~target_len pool idxs in
  let nw = Nw_consensus.reconstruct_pool ~target_len pool idxs in
  Dna.Strand.init_codes target_len (fun i ->
      let a = Dna.Strand.get_code bma i
      and b = Dna.Strand.get_code dbma i
      and c = Dna.Strand.get_code nw i in
      if a = b then a else c)
