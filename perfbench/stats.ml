(* Summaries over samples. Quantiles are nearest-rank, so a reported
   percentile is always a value some sample actually took. *)

let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0.0 xs
let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

(* A ratio that reads 0 rather than nan/inf when nothing was counted. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
