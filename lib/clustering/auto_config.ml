(** Automatic configuration of the clustering thresholds (Section VI-B,
    Figure 5).

    A handful of probe reads are compared against a larger random sample
    of the remaining reads. Plotted sorted, the distances show a low
    plateau (same-cluster pairs), a jump, and a high plateau (unrelated
    pairs) — the paper's Figure 5. The thresholds bracket the jump:
    theta_low at the top of the low plateau (merge without checking),
    theta_high at the bottom of the high plateau (never merge); only the
    gap in between pays for an edit-distance comparison.

    At high error rates the two signature modes overlap and no clean jump
    exists. The fallback estimates the same-cluster mode from
    nearest-neighbor distances (each probe's closest target is almost
    always a sibling read), sets a conservative theta_low, a generous
    theta_high, and fits the edit-distance threshold from the probe->
    nearest pairs themselves — edit distance separates the modes long
    after signatures stop doing so. *)

type config = {
  theta_low : int;
  theta_high : int;
  edit_threshold : int;
  distances : int array;  (** all sampled signature distances (Figure 5 data) *)
}

type sample = {
  all : int array;  (** probe x target signature distances *)
  nearest : (int * int * int) array;  (** per probe: (probe, closest target, distance) *)
}

let sample_distances params rng (reads : Dna.Strand.t array) ~n_probes ~n_targets : sample =
  let n = Array.length reads in
  let n_probes = min n_probes n and n_targets = min n_targets n in
  let probes = Dna.Rng.sample_indices rng ~n ~k:n_probes in
  let targets = Dna.Rng.sample_indices rng ~n ~k:n_targets in
  (* One packed index over the probes then the targets: probe [pi] is
     row [pi], target [ti] is row [n_probes + ti]. *)
  let idx =
    Signature.Index.build ~q:params.Cluster.gram_len params.Cluster.kind
      (Array.map (Array.get reads) (Array.append probes targets))
  in
  let dists = ref [] in
  let nearest = ref [] in
  Array.iteri
    (fun pi p ->
      (* Track the 5 signature-closest targets of each probe: the
         candidates for edit-verified sibling pairs. *)
      let cand = ref [] in
      Array.iteri
        (fun ti t ->
          if p <> t then begin
            let d = Signature.Index.distance idx pi (n_probes + ti) in
            dists := d :: !dists;
            cand := (d, t) :: !cand
          end)
        targets;
      let closest = List.sort compare !cand in
      List.iteri (fun i (d, t) -> if i < 5 then nearest := (p, t, d) :: !nearest) closest)
    probes;
  { all = Array.of_list !dists; nearest = Array.of_list !nearest }

let percentile (sorted : int array) p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* Fit the edit-distance merge threshold from the probe->nearest pairs:
   their edit distances split into a low (sibling) and a high (unrelated)
   mode; the threshold sits in the widest gap between them. *)
let fit_edit_threshold params (reads : Dna.Strand.t array) (nearest : (int * int * int) array) =
  let read_len =
    (* Median length: insertions inflate the max, which would loosen
       every cap below. *)
    let lens = Array.map Dna.Strand.length reads in
    Array.sort compare lens;
    max 1 lens.(Array.length lens / 2)
  in
  let bound = (6 * read_len) / 10 in
  let dists =
    Array.to_list nearest
    |> List.filter_map (fun (p, t, _) ->
           Dna.Distance.levenshtein_leq ~bound reads.(p) reads.(t))
    |> Array.of_list
  in
  Array.sort compare dists;
  if Array.length dists < 4 then params.Cluster.edit_threshold
  else begin
    (* Random unrelated strands sit near 0.5 * len in edit distance;
       anything clearly below that among nearest pairs is a sibling.
       Place the threshold halfway between the worst sibling and the
       closest non-sibling (or pad the sibling mode when every sampled
       pair was a sibling). *)
    (* Unrelated random strands sit at ~0.44-0.55 * len in edit
       distance; sibling pairs at 2p * len. The two modes nearly touch
       around p = 0.15, so both the sibling cap and the final threshold
       cap must stay below the unrelated minimum. *)
    let sib_cap = (36 * read_len) / 100 in
    let hard_cap = (40 * read_len) / 100 in
    let sibs = Array.to_list dists |> List.filter (fun d -> d <= sib_cap) in
    let non_sibs = Array.to_list dists |> List.filter (fun d -> d > sib_cap) in
    match (sibs, non_sibs) with
    | [], _ -> min params.Cluster.edit_threshold hard_cap
    | _ :: _, [] -> min (List.fold_left max 0 sibs + (read_len / 12)) hard_cap
    | _ :: _, _ :: _ ->
        let hi_sib = List.fold_left max 0 sibs in
        let lo_non = List.fold_left min max_int non_sibs in
        min ((hi_sib + lo_non) / 2) hard_cap
  end

let configure ?(n_probes = 24) ?(n_targets = 300) params rng reads =
  let sample = sample_distances params rng reads ~n_probes ~n_targets in
  let n = Array.length sample.all in
  if n = 0 then
    {
      theta_low = params.Cluster.theta_low;
      theta_high = params.Cluster.theta_high;
      edit_threshold = params.Cluster.edit_threshold;
      distances = sample.all;
    }
  else begin
    let edit_threshold = fit_edit_threshold params reads sample.nearest in
    (* Sample the sibling mode directly: among each probe's closest
       targets, the pairs whose edit distance passes the (just fitted)
       merge threshold are siblings; their signature distances trace the
       low mode of Figure 5. theta_low merges the unambiguous half
       without an edit check; theta_high pads the mode's maximum, and
       everything in between is settled by edit distance. *)
    let sibling_sigs =
      Array.to_list sample.nearest
      |> List.filter_map (fun (p, t, d) ->
             match Dna.Distance.levenshtein_leq ~bound:edit_threshold reads.(p) reads.(t) with
             | Some _ -> Some d
             | None -> None)
      |> Array.of_list
    in
    Array.sort compare sibling_sigs;
    if Array.length sibling_sigs = 0 then
      {
        theta_low = params.Cluster.theta_low;
        theta_high = params.Cluster.theta_high;
        edit_threshold;
        distances = sample.all;
      }
    else begin
      let theta_low = percentile sibling_sigs 0.5 in
      let max_sib = sibling_sigs.(Array.length sibling_sigs - 1) in
      let theta_high = max (theta_low + 1) ((max_sib * 23) / 20) in
      { theta_low; theta_high; edit_threshold; distances = sample.all }
    end
  end

let apply config params =
  {
    params with
    Cluster.theta_low = config.theta_low;
    theta_high = config.theta_high;
    edit_threshold = config.edit_threshold;
  }

(* The data of Figure 5: sorted sampled distances (x = pair rank,
   y = signature distance). *)
let figure5_series config =
  let sorted = Array.copy config.distances in
  Array.sort compare sorted;
  sorted
