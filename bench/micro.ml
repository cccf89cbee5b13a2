(* Bechamel micro-benchmarks of the pipeline's hot kernels: the RNG
   draws behind the channel, the anchor search behind clustering's
   partition keys, edit distance (full / bounded), signature
   computation and comparison, Reed-Solomon encode/decode, the pairwise
   alignment behind the NW consensus, and the three reconstruction
   algorithms on one cluster. *)

open Bechamel
open Toolkit

let rng = Dna.Rng.create 123

let strand_a = Dna.Strand.random rng 120
let strand_b =
  (* a ~6%-mutated sibling of strand_a *)
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.06 in
  Simulator.Channel.transmit ch rng strand_a

let strand_c = Dna.Strand.random rng 120

(* 300 nt pair for the blocked (multi-word) Myers kernel. *)
let long_a = Dna.Strand.random rng 300
let long_b =
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.06 in
  Simulator.Channel.transmit ch rng long_a

let cluster_reads =
  let ch = Simulator.Iid_channel.create_rate ~error_rate:0.06 in
  Array.init 10 (fun _ -> Simulator.Channel.transmit ch rng strand_a)

let rs_code = Rs.create ~k:20 ~nsym:6
let rs_msg = Array.init 20 (fun i -> (i * 37) land 0xff)
let rs_noisy =
  let cw = Rs.encode_arr rs_code rs_msg in
  cw.(3) <- cw.(3) lxor 0x55;
  cw.(15) <- cw.(15) lxor 0xaa;
  cw

let q_sig = Clustering.Signature.compute ~q:4 Clustering.Signature.Qgram strand_a
let q_sig' = Clustering.Signature.compute ~q:4 Clustering.Signature.Qgram strand_b
let w_sig = Clustering.Signature.compute ~q:4 Clustering.Signature.Wgram strand_a
let w_sig' = Clustering.Signature.compute ~q:4 Clustering.Signature.Wgram strand_b

(* A 3-base anchor as clustering draws it, searched for in a read. *)
let anchor3 = Dna.Strand.random rng 3

let tests =
  [
    Test.make ~name:"rng/float" (Staged.stage (fun () -> ignore (Dna.Rng.float rng)));
    Test.make ~name:"rng/int" (Staged.stage (fun () -> ignore (Dna.Rng.int rng 1000)));
    Test.make ~name:"strand/find-anchor3" (Staged.stage (fun () ->
        ignore (Dna.Strand.find strand_a ~pattern:anchor3)));
    (* The levenshtein/* cases time the scalar reference DP and the
       myers/* cases the bit-parallel production kernels, so one run
       shows the kernel speedup side by side. *)
    Test.make ~name:"levenshtein/siblings-120nt" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein_reference strand_a strand_b)));
    Test.make ~name:"levenshtein/unrelated-120nt" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein_reference strand_a strand_c)));
    Test.make ~name:"levenshtein/siblings-300nt" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein_reference long_a long_b)));
    Test.make ~name:"levenshtein_leq/bound-40" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein_leq_reference ~bound:40 strand_a strand_c)));
    Test.make ~name:"myers/siblings-120nt" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein strand_a strand_b)));
    Test.make ~name:"myers/unrelated-120nt" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein strand_a strand_c)));
    Test.make ~name:"myers/siblings-300nt" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein long_a long_b)));
    Test.make ~name:"myers_leq/bound-40" (Staged.stage (fun () ->
        ignore (Dna.Distance.levenshtein_leq ~bound:40 strand_a strand_c)));
    Test.make ~name:"alignment/traceback-120nt" (Staged.stage (fun () ->
        ignore (Dna.Alignment.align strand_a strand_b)));
    Test.make ~name:"signature/qgram-compute" (Staged.stage (fun () ->
        ignore (Clustering.Signature.compute ~q:4 Clustering.Signature.Qgram strand_a)));
    Test.make ~name:"signature/wgram-compute" (Staged.stage (fun () ->
        ignore (Clustering.Signature.compute ~q:4 Clustering.Signature.Wgram strand_a)));
    Test.make ~name:"signature/qgram-distance" (Staged.stage (fun () ->
        ignore (Clustering.Signature.distance q_sig q_sig')));
    Test.make ~name:"signature/wgram-distance" (Staged.stage (fun () ->
        ignore (Clustering.Signature.distance w_sig w_sig')));
    Test.make ~name:"rs/encode-26" (Staged.stage (fun () -> ignore (Rs.encode_arr rs_code rs_msg)));
    Test.make ~name:"rs/decode-2-errors" (Staged.stage (fun () ->
        ignore (Rs.decode_arr rs_code rs_noisy)));
    Test.make ~name:"recon/bma-cov10" (Staged.stage (fun () ->
        ignore (Reconstruction.Bma.reconstruct ~target_len:120 cluster_reads)));
    Test.make ~name:"recon/dbma-cov10" (Staged.stage (fun () ->
        ignore (Reconstruction.Bma.reconstruct_double ~target_len:120 cluster_reads)));
    Test.make ~name:"recon/nwa-cov10" (Staged.stage (fun () ->
        ignore (Reconstruction.Nw_consensus.reconstruct ~target_len:120 cluster_reads)));
  ]

let run () =
  print_string (Exp_common.section "Microbenchmarks (Bechamel, ns/run)");
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let test = Test.make_grouped ~name:"kernels" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | Some _ | None -> ())
    results;
  let rows = List.sort compare !rows in
  print_string
    (Exp_common.table
       ([ [ "kernel"; "time/run" ] ]
       @ List.map
           (fun (name, ns) ->
             let human =
               if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
               else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
               else Printf.sprintf "%.0f ns" ns
             in
             [ name; human ])
           rows));
  print_newline ()
