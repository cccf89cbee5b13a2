(** A primer-pair -> strand-indices index over an oligo pool.

    PCR selection used to be an O(pool) scan per get; with every file's
    molecule positions recorded at [put] time (or recovered in one pass
    by [build]), selection is an indexed gather. *)

type t = (string, int list ref) Hashtbl.t
(* pair key -> pool indices, most recently added first *)

let create () : t = Hashtbl.create 16

let key_of_pair (pair : Codec.Primer.pair) =
  Dna.Strand.to_string pair.Codec.Primer.forward
  ^ "|"
  ^ Dna.Strand.to_string pair.Codec.Primer.reverse

let add (t : t) pair i =
  match Hashtbl.find_opt t (key_of_pair pair) with
  | Some l -> l := i :: !l
  | None -> Hashtbl.add t (key_of_pair pair) (ref [ i ])

let add_range (t : t) pair ~first ~len =
  for i = first to first + len - 1 do
    add t pair i
  done

let indices (t : t) pair =
  match Hashtbl.find_opt t (key_of_pair pair) with
  | None -> [||]
  | Some l ->
      let arr = Array.of_list !l in
      Array.sort compare arr;
      arr

let remove_pair (t : t) pair = Hashtbl.remove t (key_of_pair pair)

(* Strict both-end primer match, as on clean synthesized molecules. The
   design keeps distinct pairs >= 8 mismatches apart, so a tolerance of
   2 per primer cannot cross-select. *)
let max_mismatches = 2

let matches strand (pair : Codec.Primer.pair) =
  Codec.Primer.mismatches_at strand ~pos:0 ~pattern:pair.Codec.Primer.forward <= max_mismatches
  && Codec.Primer.mismatches_at strand
       ~pos:(Dna.Strand.length strand - Codec.Primer.primer_length)
       ~pattern:pair.Codec.Primer.reverse
     <= max_mismatches

let select (t : t) (pool : Dna.Strand.t array) pair =
  Array.map (fun i -> pool.(i)) (indices t pair)

(* One pass over a pool whose pair inventory is known (e.g. a shard
   loaded from disk): each strand lands in the bucket of the first pair
   it matches; strands matching no pair (orphans of an interrupted
   write) are simply not indexed. *)
let build ~(pairs : Codec.Primer.pair list) (pool : Dna.Strand.t array) : t =
  let t = create () in
  Array.iteri
    (fun i s ->
      match List.find_opt (fun p -> matches s p) pairs with
      | Some pair -> add t pair i
      | None -> ())
    pool;
  t
