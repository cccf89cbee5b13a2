(* Reconstruction depth: reads used against consensus quality.

   NW consensus follows the vote (Nw_consensus's depth rule): clusters
   of more than 12 reads align 8, then 4 more at a time, until the vote
   settles. This entry places that rule on the curve of fixed depths.
   For each channel, the same clusters are reconstructed from their
   first k reads at full depth ([Recon_oracle.nw_full] on the prefix),
   for rising k, and by the depth rule
   ([Nw_consensus.reconstruct_pool_full]). Each row reports the mean
   reads used, the alignments per cluster (reads used times profiled
   rounds), the average per-index error, the perfect count and the
   clusters whose consensus equals the full-depth one.

   Settings: iid 6% substitutions/indels at 140 nt with 22 reads (a
   cold get's clusters), and the wetlab stand-in at 110 nt with 50 reads
   (the paper's NWA coverage). Guard: on every cluster the pool
   consensus and reads used equal the boxed oracle's ([Recon_oracle.nw]);
   any difference exits 1. *)

open Exp_common

type row = {
  label : string;
  reads : float;
  alignments : float;
  error : float;
  perfect : int;
  same : int;  (* consensus equal to the full-depth one *)
}

(* One channel's rows over [n_clusters] clusters of [coverage] reads. *)
let curve ~name ~channel ~seed ~len ~coverage ~n_clusters ~caps =
  let rng = Dna.Rng.create seed in
  let clusters =
    List.init n_clusters (fun _ ->
        let clean = Dna.Strand.random rng len in
        (clean, Array.init coverage (fun _ -> Simulator.Channel.transmit channel rng clean)))
  in
  let full =
    List.map (fun (_, reads) -> Recon_oracle.nw_full ~target_len:len reads) clusters
  in
  let row label results =
    let pairs = List.map2 (fun (clean, _) (cons, _, _) -> (clean, cons)) clusters results in
    let count p = List.length (List.filter Fun.id p) in
    let prof = Reconstruction.Recon_metrics.per_index_error pairs in
    let per f = List.fold_left (fun a r -> a +. f r) 0.0 results /. float_of_int n_clusters in
    {
      label;
      reads = per (fun (_, used, _) -> float_of_int used);
      alignments = per (fun (_, used, rounds) -> float_of_int (used * rounds));
      error = Reconstruction.Recon_metrics.average_error prof;
      perfect = Reconstruction.Recon_metrics.perfect_count pairs;
      same = count (List.map2 (fun f (cons, _, _) -> Dna.Strand.equal f cons) full results);
    }
  in
  let of_trace (t : Recon_oracle.trace) = (t.consensus, t.reads_used, List.length t.rounds) in
  let fixed k =
    row (Printf.sprintf "first %d, full depth" k)
      (List.map
         (fun (_, reads) ->
           of_trace (Recon_oracle.nw_trace ~settle:false ~target_len:len (Array.sub reads 0 k)))
         clusters)
  in
  let rule =
    row "depth rule"
      (List.mapi
         (fun i (_, reads) ->
           let o =
             on_pool Reconstruction.Nw_consensus.reconstruct_pool_full ~target_len:len reads
           in
           let t = Recon_oracle.nw_trace ~settle:true ~target_len:len reads in
           if
             not
               (Dna.Strand.equal o.Reconstruction.Nw_consensus.consensus t.consensus
               && o.reads_used = t.reads_used)
           then
             fail "%s cluster %d: pool consensus (%d reads) differs from the oracle's (%d reads)"
               name i o.reads_used t.reads_used;
           of_trace t)
         clusters)
  in
  let (), secs =
    time (fun () ->
        List.iter
          (fun (_, reads) ->
            ignore (on_pool Reconstruction.Nw_consensus.reconstruct_pool ~target_len:len reads))
          clusters)
  in
  Printf.printf "\n%s: %d clusters of %d reads, %d nt (depth rule %.3f ms/cluster)\n" name
    n_clusters coverage len
    (1000.0 *. secs /. float_of_int n_clusters);
  print_string
    (table
       ([ "reads"; "mean reads used"; "alignments/cluster"; "avg error"; "perfect"; "= full" ]
       :: List.map
            (fun r ->
              [
                r.label;
                Printf.sprintf "%.1f" r.reads;
                Printf.sprintf "%.1f" r.alignments;
                Printf.sprintf "%.5f" r.error;
                Printf.sprintf "%d/%d" r.perfect n_clusters;
                Printf.sprintf "%d/%d" r.same n_clusters;
              ])
            (List.map fixed caps @ [ rule ])))

let run () =
  print_string (section "Reconstruction depth: reads used against error");
  curve ~name:"iid 6%"
    ~channel:(Simulator.Iid_channel.create_rate ~error_rate:0.06)
    ~seed:606 ~len:140 ~coverage:22
    ~n_clusters:(pick ~fast:40 ~full:300)
    ~caps:[ 8; 12; 16; 22 ];
  curve ~name:"wetlab" ~channel:(Simulator.Wetlab_channel.create ()) ~seed:707 ~len:110
    ~coverage:50
    ~n_clusters:(pick ~fast:30 ~full:250)
    ~caps:[ 8; 12; 20; 30; 40; 50 ];
  print_newline ()
