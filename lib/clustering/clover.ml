(** A Clover-style tree-based clustering algorithm (Qu et al., cited in
    Section X as an alternative clustering module).

    One streaming pass: each read's prefix of [key_len] bases is looked
    up in a 4-ary trie of existing cluster keys, allowing a bounded
    number of edits during the walk; a hit joins the read to that
    cluster, a miss creates a new cluster keyed by the read. No
    Levenshtein computations at all and memory linear in the number of
    clusters — the trade-off is sensitivity to prefix errors, bought
    back by also probing a second key drawn from the middle of the
    read. *)

type params = {
  key_len : int;  (** bases per trie key *)
  max_edits : int;  (** edit budget during a trie walk *)
  second_probe : bool;  (** also key on a mid-read window *)
}

let default_params = { key_len = 14; max_edits = 2; second_probe = true }

(* 4-ary trie storing cluster ids at depth [key_len]. *)
type node = { mutable cluster : int; children : node option array }

let fresh_node () = { cluster = -1; children = Array.make 4 None }

type t = {
  params : params;
  root_head : node;
  root_mid : node;
  mutable n_clusters : int;
  mutable members : int list array;  (** cluster id -> read indices *)
}

let create ?(params = default_params) () =
  { params; root_head = fresh_node (); root_mid = fresh_node (); n_clusters = 0; members = Array.make 64 [] }

(* Walk the trie matching [codes.(pos..)], with an edit budget spent on
   substitutions (take a different child), deletions (skip an input
   base) and insertions (descend without consuming). Returns the first
   cluster found at full depth. *)
let rec search params node (codes : int array) ~pos ~depth ~budget =
  if depth = params.key_len then if node.cluster >= 0 then Some node.cluster else None
  else begin
    let try_child c ~next_pos ~cost =
      if budget - cost < 0 then None
      else
        match node.children.(c) with
        | None -> None
        | Some child ->
            search params child codes ~pos:next_pos ~depth:(depth + 1) ~budget:(budget - cost)
    in
    let exact =
      if pos < Array.length codes then try_child codes.(pos) ~next_pos:(pos + 1) ~cost:0
      else None
    in
    match exact with
    | Some _ as hit -> hit
    | None ->
        (* Substitution: a different child, consuming the base. *)
        let rec sub c =
          if c > 3 then None
          else if pos < Array.length codes && c = codes.(pos) then sub (c + 1)
          else
            match try_child c ~next_pos:(min (pos + 1) (Array.length codes)) ~cost:1 with
            | Some _ as hit -> hit
            | None -> sub (c + 1)
        in
        (match sub 0 with
        | Some _ as hit -> hit
        | None ->
            (* Deletion in the read: skip an input base, stay at depth. *)
            let deletion =
              if pos < Array.length codes && budget > 0 then
                search params node codes ~pos:(pos + 1) ~depth ~budget:(budget - 1)
              else None
            in
            (match deletion with
            | Some _ as hit -> hit
            | None ->
                (* Insertion in the read: descend on any child without
                   consuming. Covered by the substitution branch above
                   when the budget allows; nothing more to try. *)
                None))
  end

(* Insert the exact key path for a cluster. *)
let insert params root (codes : int array) cluster =
  let node = ref root in
  for depth = 0 to params.key_len - 1 do
    let c = if depth < Array.length codes then codes.(depth) else 0 in
    let child =
      match !node.children.(c) with
      | Some child -> child
      | None ->
          let child = fresh_node () in
          !node.children.(c) <- Some child;
          child
    in
    node := child
  done;
  if !node.cluster < 0 then !node.cluster <- cluster

let key_codes t (read : Dna.Strand.t) ~mid =
  let n = Dna.Strand.length read in
  let offset = if mid then n / 2 else 0 in
  Array.init (min t.params.key_len (max 0 (n - offset))) (fun i ->
      Dna.Strand.get_code read (offset + i))

let add_member t cluster idx =
  if cluster >= Array.length t.members then begin
    let grown = Array.make (2 * (cluster + 1)) [] in
    Array.blit t.members 0 grown 0 (Array.length t.members);
    t.members <- grown
  end;
  t.members.(cluster) <- idx :: t.members.(cluster)

(* Assign one read: search head key, then optionally the mid key; on a
   miss open a new cluster and index both keys. *)
let assign t idx (read : Dna.Strand.t) =
  let head = key_codes t read ~mid:false in
  let found =
    match search t.params t.root_head head ~pos:0 ~depth:0 ~budget:t.params.max_edits with
    | Some c -> Some c
    | None ->
        if t.params.second_probe then
          search t.params t.root_mid (key_codes t read ~mid:true) ~pos:0 ~depth:0
            ~budget:t.params.max_edits
        else None
  in
  match found with
  | Some cluster -> add_member t cluster idx
  | None ->
      let cluster = t.n_clusters in
      t.n_clusters <- t.n_clusters + 1;
      insert t.params t.root_head head cluster;
      if t.params.second_probe then insert t.params t.root_mid (key_codes t read ~mid:true) cluster;
      add_member t cluster idx

(* Cluster all reads in one pass; returns the same result shape as
   {!Cluster.run_scaled} (without signature statistics). *)
let run ?params (reads : Dna.Strand.t array) : Cluster.result =
  let t = create ?params () in
  Array.iteri (fun i r -> assign t i r) reads;
  let clusters = ref [] in
  for c = t.n_clusters - 1 downto 0 do
    clusters := Array.of_list (List.rev t.members.(c)) :: !clusters
  done;
  let assignment = Array.make (Array.length reads) 0 in
  List.iter (fun members -> Array.iter (fun i -> assignment.(i) <- members.(0)) members) !clusters;
  {
    Cluster.assignment;
    clusters = !clusters;
    stats =
      {
        Cluster.signature_comparisons = 0;
        edit_comparisons = 0;
        merges = Array.length reads - t.n_clusters;
        signature_time = 0.0;
        clustering_time = 0.0;
      };
  }
