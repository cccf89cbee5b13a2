(** Partial-order alignment (POA) graphs, after Lee, Grasso & Sharlow
    (2002) and Lee (2003) — the pure-OCaml stand-in for spoa.

    Reads are folded one at a time into a DAG whose nodes carry a base and
    a support count. Each new read is globally aligned to the graph with
    unit edit costs (the Needleman-Wunsch recurrence generalized to a DAG)
    and fused: matches reinforce existing nodes, mismatches and insertions
    add nodes. The consensus is the maximum-weight start-to-sink path,
    which the reconstruction module trims using per-node support.

    Alignment is band-limited in the style of spoa's banded POA: each
    graph node [v] only scores read positions within [band] of its
    possible path positions — the window
    [[sdepth v - band, depth v + band]], where [sdepth]/[depth] are the
    shortest/longest source-to-[v] path lengths. Any alignment of cost
    [d] keeps every DP cell [(v, j)] within
    [dist (j, [sdepth v, depth v]) <= d] of that interval, so whenever
    the banded best score is [<= band] the score, the traceback, and
    therefore the fused graph are bit-identical to the unpruned DP's;
    otherwise [add] falls back to a full recompute. DP state lives in
    flat per-domain scratch arrays (no [Array.make_matrix] boxed rows
    per read), and per-node in-degrees are maintained incrementally on
    the graph instead of being recounted from adjacency lists on every
    [add]. *)

type node = {
  code : int;  (** base, 0..3 *)
  mutable weight : int;  (** number of reads supporting this node *)
  mutable preds : (int * int) list;  (** (node id, edge weight) *)
  mutable succs : (int * int) list;
  mutable aligned : int list;  (** other nodes occupying the same column *)
}

type t = {
  mutable nodes : node array;
  mutable size : int;
  mutable indeg : int array;
      (* indeg.(v) = List.length nodes.(v).preds, maintained by
         [bump_edge] so topological sorts never walk adjacency lists to
         count. *)
}

let create () = { nodes = [||]; size = 0; indeg = [||] }

let node_count g = g.size

let add_node g code =
  if g.size = Array.length g.nodes then begin
    let cap = max 16 (2 * g.size) in
    let fresh =
      Array.init cap (fun i ->
          if i < g.size then g.nodes.(i)
          else { code = 0; weight = 0; preds = []; succs = []; aligned = [] })
    in
    g.nodes <- fresh;
    let indeg = Array.make cap 0 in
    Array.blit g.indeg 0 indeg 0 g.size;
    g.indeg <- indeg
  end;
  let id = g.size in
  g.nodes.(id) <- { code; weight = 0; preds = []; succs = []; aligned = [] };
  g.indeg.(id) <- 0;
  g.size <- id + 1;
  id

let bump_edge g ~src ~dst =
  let a = g.nodes.(src) and b = g.nodes.(dst) in
  let rec bump = function
    | [] -> None
    | (id, w) :: rest when id = dst -> Some ((id, w + 1) :: rest)
    | e :: rest -> Option.map (fun r -> e :: r) (bump rest)
  in
  (match bump a.succs with
  | Some succs -> a.succs <- succs
  | None -> a.succs <- (dst, 1) :: a.succs);
  let rec bump_p = function
    | [] -> None
    | (id, w) :: rest when id = src -> Some ((id, w + 1) :: rest)
    | e :: rest -> Option.map (fun r -> e :: r) (bump_p rest)
  in
  match bump_p b.preds with
  | Some preds -> b.preds <- preds
  | None ->
      b.preds <- (src, 1) :: b.preds;
      g.indeg.(dst) <- g.indeg.(dst) + 1

(* Kahn's algorithm over the incremental in-degree array; the [order]
   array doubles as the work queue. The graph is a DAG by construction. *)
let topo_order g =
  let indeg = Array.sub g.indeg 0 g.size in
  let order = Array.make g.size 0 in
  let filled = ref 0 in
  for v = 0 to g.size - 1 do
    if indeg.(v) = 0 then begin
      order.(!filled) <- v;
      incr filled
    end
  done;
  let head = ref 0 in
  while !head < !filled do
    let v = order.(!head) in
    incr head;
    List.iter
      (fun (s, _) ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then begin
          order.(!filled) <- s;
          incr filled
        end)
      g.nodes.(v).succs
  done;
  assert (!filled = g.size);
  order

(* Insert the first read as a simple chain. *)
let add_first g (s : Strand.t) =
  let prev = ref (-1) in
  for i = 0 to Strand.length s - 1 do
    let id = add_node g (Strand.get_code s i) in
    g.nodes.(id).weight <- 1;
    if !prev >= 0 then bump_edge g ~src:!prev ~dst:id;
    prev := id
  done

(* Fuse the base of column [v] (mismatching the read base [c]): reuse an
   aligned sibling carrying [c] if one exists, otherwise create one and
   link the alignment group. *)
let aligned_sibling g v c =
  let n = g.nodes.(v) in
  List.find_opt (fun u -> g.nodes.(u).code = c) n.aligned

let link_aligned g v u =
  (* Alignment groups are cliques: every member lists every other. *)
  let group = v :: g.nodes.(v).aligned in
  List.iter
    (fun m ->
      g.nodes.(m).aligned <- u :: g.nodes.(m).aligned;
      g.nodes.(u).aligned <- m :: g.nodes.(u).aligned)
    group

type trace_step =
  | To_node of int  (** read base placed on this (possibly fresh) node id *)

let inf = max_int / 4

(* Per-domain scratch arena for [add]: row geometry, node depths and the
   flat DP/move/from cells, reused across every read a worker folds in. *)
type scratch = {
  mutable rank : int array;  (* length >= size: rank.(v), sdepth.(v), depth.(v) *)
  mutable sdepth : int array;
  mutable depth : int array;
  mutable lo : int array;  (* length >= size + 1: per-row window and offset *)
  mutable hi : int array;
  mutable off : int array;
  mutable dp : int array;  (* flat cells, row r at off.(r) covering [lo.(r), hi.(r)] *)
  mutable move : int array;  (* 0 = diag from pred, 1 = del (skip node), 2 = ins *)
  mutable from : int array;  (* dp row index we came from (for diag/del) *)
  mutable codes : int array;  (* the read's base codes *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        rank = [||];
        sdepth = [||];
        depth = [||];
        lo = [||];
        hi = [||];
        off = [||];
        dp = [||];
        move = [||];
        from = [||];
        codes = [||];
      })

let ensure arr n = if Array.length arr >= n then arr else Array.make (max n (2 * Array.length arr)) 0

(* One banded DP + traceback + fusion pass at half-width [band]. Returns
   [true] when the result is certifiably exact (best score <= band) and
   the read was fused; [false] leaves the graph untouched so the caller
   can retry unbanded. *)
let add_banded g (s : Strand.t) order ~band =
  let m = Strand.length s in
  let n = g.size in
  let sc = Domain.DLS.get scratch_key in
  let rank = ensure sc.rank n in
  sc.rank <- rank;
  Array.iteri (fun r v -> rank.(v) <- r) order;
  let codes = ensure sc.codes m in
  sc.codes <- codes;
  for j = 0 to m - 1 do
    codes.(j) <- Strand.unsafe_get_code s j
  done;
  (* Shortest/longest source-to-node path lengths (counting the node),
     in topological order: the read positions a node can occupy. *)
  let sdepth = ensure sc.sdepth n and depth = ensure sc.depth n in
  sc.sdepth <- sdepth;
  sc.depth <- depth;
  Array.iter
    (fun v ->
      match g.nodes.(v).preds with
      | [] ->
          sdepth.(v) <- 1;
          depth.(v) <- 1
      | preds ->
          let smin = ref inf and smax = ref 0 in
          List.iter
            (fun (p, _) ->
              if sdepth.(p) < !smin then smin := sdepth.(p);
              if depth.(p) > !smax then smax := depth.(p))
            preds;
          sdepth.(v) <- !smin + 1;
          depth.(v) <- !smax + 1)
    order;
  (* Row windows: row 0 is the virtual start, row r+1 is order.(r). *)
  let lo = ensure sc.lo (n + 1) and hi = ensure sc.hi (n + 1) and off = ensure sc.off (n + 2) in
  sc.lo <- lo;
  sc.hi <- hi;
  sc.off <- off;
  lo.(0) <- 0;
  hi.(0) <- min m band;
  for r = 0 to n - 1 do
    let v = order.(r) in
    lo.(r + 1) <- max 0 (sdepth.(v) - band);
    hi.(r + 1) <- min m (depth.(v) + band)
  done;
  off.(0) <- 0;
  for row = 0 to n do
    off.(row + 1) <- off.(row) + (max 0 (hi.(row) - lo.(row)) + 1)
  done;
  let total = off.(n + 1) in
  let dp = ensure sc.dp total and move = ensure sc.move total and from = ensure sc.from total in
  sc.dp <- dp;
  sc.move <- move;
  sc.from <- from;
  Array.fill dp 0 total inf;
  (* dp cell (row, j): min cost aligning the graph prefix ending at the
     row's node against the first j read bases; [inf] outside the row's
     window. *)
  let get row j = if j < lo.(row) || j > hi.(row) then inf else dp.(off.(row) + j - lo.(row)) in
  for j = 0 to hi.(0) do
    dp.(j) <- j;
    if j > 0 then move.(j) <- 2
  done;
  for r = 0 to n - 1 do
    let v = order.(r) in
    let node = g.nodes.(v) in
    let row = r + 1 in
    let rlo = lo.(row) and rhi = hi.(row) and rof = off.(row) in
    let scan_preds f =
      (* Predecessor rows: rank+1 of each pred, or the virtual start row
         when the node has no predecessor. *)
      match node.preds with [] -> f 0 | preds -> List.iter (fun (p, _) -> f (rank.(p) + 1)) preds
    in
    if rlo = 0 then
      scan_preds (fun pr ->
          let v = get pr 0 + 1 in
          if v < dp.(rof) then begin
            dp.(rof) <- v;
            move.(rof) <- 1;
            from.(rof) <- pr
          end);
    for j = max 1 rlo to rhi do
      let c = codes.(j - 1) in
      let cost = if c = node.code then 0 else 1 in
      let cell = rof + j - rlo in
      scan_preds (fun pr ->
          let diag = get pr (j - 1) + cost in
          if diag < dp.(cell) then begin
            dp.(cell) <- diag;
            move.(cell) <- 0;
            from.(cell) <- pr
          end;
          let del = get pr j + 1 in
          if del < dp.(cell) then begin
            dp.(cell) <- del;
            move.(cell) <- 1;
            from.(cell) <- pr
          end);
      let ins = (if j - 1 >= rlo then dp.(cell - 1) else inf) + 1 in
      if ins < dp.(cell) then begin
        dp.(cell) <- ins;
        move.(cell) <- 2
      end
    done
  done;
  (* Global alignment ends at any sink node (no successors) with j = m. *)
  let best_row = ref 0 in
  let best = ref (get 0 m) in
  for r = 0 to n - 1 do
    let v = order.(r) in
    if g.nodes.(v).succs = [] && get (r + 1) m < !best then begin
      best := get (r + 1) m;
      best_row := r + 1
    end
  done;
  if !best > band then false
  else begin
    (* Traceback collecting, for each read base, the node it lands on. *)
    let steps = ref [] in
    let r = ref !best_row and j = ref m in
    while not (!r = 0 && !j = 0) do
      let cell = off.(!r) + !j - lo.(!r) in
      match move.(cell) with
      | 0 ->
          let v = order.(!r - 1) in
          let c = codes.(!j - 1) in
          let target =
            if g.nodes.(v).code = c then v
            else begin
              match aligned_sibling g v c with
              | Some u -> u
              | None ->
                  let u = add_node g c in
                  link_aligned g v u;
                  u
            end
          in
          steps := To_node target :: !steps;
          r := from.(cell);
          decr j
      | 1 -> r := from.(cell)
      | 2 ->
          (* Insertion: a fresh node carrying the read base, in its own
             column. *)
          let u = add_node g codes.(!j - 1) in
          steps := To_node u :: !steps;
          decr j
      | _ -> assert false
    done;
    (* Thread the read through its nodes: bump weights and edges. *)
    let prev = ref (-1) in
    List.iter
      (fun (To_node v) ->
        g.nodes.(v).weight <- g.nodes.(v).weight + 1;
        if !prev >= 0 then bump_edge g ~src:!prev ~dst:v;
        prev := v)
      !steps;
    true
  end

let default_band = 16

let add ?(band = default_band) g (s : Strand.t) =
  if g.size = 0 then add_first g s
  else begin
    let order = topo_order g in
    let band = max 1 band in
    if not (add_banded g s order ~band) then
      (* The optimal alignment may have left the band: redo unpruned. A
         window of m + size covers every cell, so this pass cannot fail. *)
      ignore (add_banded g s order ~band:(Strand.length s + g.size))
  end

(* Maximum-weight path, scoring each node by its support minus [penalty].
   With penalty 0 this is the heaviest full path; with penalty around half
   the read count, minority nodes (spurious insertions) cost score, so the
   path naturally sticks to majority-supported columns. Returns base codes
   and per-position support. *)
let consensus_with_support ?(penalty = 0) g =
  if g.size = 0 then ([||], [||])
  else begin
    let order = topo_order g in
    let score = Array.make g.size 0 in
    let back = Array.make g.size (-1) in
    Array.iter
      (fun v ->
        let node = g.nodes.(v) in
        let best_pred =
          List.fold_left
            (fun acc (p, _) ->
              match acc with
              | Some (_, s) when s >= score.(p) -> acc
              | _ -> Some (p, score.(p)))
            None node.preds
        in
        (match best_pred with Some (p, _) -> back.(v) <- p | None -> back.(v) <- -1);
        score.(v) <- node.weight - penalty + (match best_pred with Some (_, s) -> s | None -> 0))
      order;
    let best_end = ref order.(0) in
    for v = 0 to g.size - 1 do
      if score.(v) > score.(!best_end) then best_end := v
    done;
    let rec collect v acc = if v < 0 then acc else collect back.(v) (v :: acc) in
    let path = collect !best_end [] in
    let codes = Array.of_list (List.map (fun v -> g.nodes.(v).code) path) in
    let support = Array.of_list (List.map (fun v -> g.nodes.(v).weight) path) in
    (codes, support)
  end

let consensus g =
  let codes, _ = consensus_with_support g in
  Strand.of_codes codes

(* Column-wise consensus: alignment cliques are the columns of the
   multiple sequence alignment. Each column's support is the total
   number of reads placing a base there (the rest aligned a gap); the
   majority base wins. This is the paper's "majority vote at every
   index" over the NW alignment, and unlike the heaviest path it stays
   stable as coverage grows: extra reads only sharpen the majorities.
   Returns (majority codes, per-column support) in backbone order. *)
let consensus_columns ?(n_reads = 0) g =
  if g.size = 0 then ([||], [||])
  else begin
    let order = topo_order g in
    let rank = Array.make g.size 0 in
    Array.iteri (fun r v -> rank.(v) <- r) order;
    (* Column id = representative node = member with minimum rank. *)
    let column_of = Array.make g.size (-1) in
    for v = 0 to g.size - 1 do
      if column_of.(v) < 0 then begin
        let members = v :: g.nodes.(v).aligned in
        let repr =
          List.fold_left (fun best m -> if rank.(m) < rank.(best) then m else best) v members
        in
        List.iter (fun m -> column_of.(m) <- repr) members
      end
    done;
    (* Aggregate per column: total support and per-base support. *)
    let tbl = Hashtbl.create 64 in
    for v = 0 to g.size - 1 do
      let c = column_of.(v) in
      let counts =
        match Hashtbl.find_opt tbl c with
        | Some counts -> counts
        | None ->
            let counts = Array.make 4 0 in
            Hashtbl.add tbl c counts;
            counts
      in
      counts.(g.nodes.(v).code) <- counts.(g.nodes.(v).code) + g.nodes.(v).weight
    done;
    let columns =
      Hashtbl.fold (fun repr counts acc -> (rank.(repr), counts) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    (* Keep columns where at least half the reads contributed a base;
       with unknown [n_reads] keep everything and let the caller trim. *)
    let majority_needed = if n_reads > 0 then (n_reads + 1) / 2 else 1 in
    let kept =
      List.filter_map
        (fun (_, counts) ->
          let total = Array.fold_left ( + ) 0 counts in
          if total < majority_needed then None
          else begin
            let best = ref 0 in
            Array.iteri (fun b c -> if c > counts.(!best) then best := b) counts;
            Some (!best, total)
          end)
        columns
    in
    (Array.of_list (List.map fst kept), Array.of_list (List.map snd kept))
  end

(* Convenience: build a graph from reads and return it. *)
let of_reads ?band reads =
  let g = create () in
  List.iter (fun r -> add ?band g r) reads;
  g
