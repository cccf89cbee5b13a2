(* The list-based primer registry: the reference [Codec.Primer.Registry]
   must agree with. Every reserved pair is a boxed record, and [fresh]
   rescans them all per candidate, reverse-complementing both primers of
   each pair on the way. *)

open Codec.Primer

type t = { mutable reserved : pair list }

let pair_equal a b = Dna.Strand.equal a.forward b.forward && Dna.Strand.equal a.reverse b.reverse
let create () = { reserved = [] }
let of_pairs pairs = { reserved = pairs }
let pairs r = r.reserved
let size r = List.length r.reserved
let is_reserved r p = List.exists (pair_equal p) r.reserved
let reserve r p = if not (is_reserved r p) then r.reserved <- p :: r.reserved
let release r p = r.reserved <- List.filter (fun q -> not (pair_equal p q)) r.reserved

let fresh ?(min_distance = 8) ?(max_attempts = 1000) r rng : (pair, error) result =
  let far p q = Dna.Distance.hamming p q >= min_distance in
  let clear p =
    List.for_all
      (fun used ->
        far p used.forward && far p used.reverse
        && far p (Dna.Strand.reverse_complement used.forward)
        && far p (Dna.Strand.reverse_complement used.reverse))
      r.reserved
  in
  let rec attempt tries =
    if tries >= max_attempts then
      Error (Constraints_unsatisfiable { requested = 1; generated = 0; attempts = tries })
    else
      match generate_pairs rng 1 with
      | Error e -> Error e
      | Ok cands ->
          let cand = cands.(0) in
          if clear cand.forward && clear cand.reverse then Ok cand else attempt (tries + 1)
  in
  Result.map
    (fun p ->
      reserve r p;
      p)
    (attempt 0)
