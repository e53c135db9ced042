module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order
module Dominator = Ftrsn_topo.Dominator
module Mcf = Ftrsn_flow.Mincost

type problem = {
  graph : Digraph.t;
  levels : int array;
  root : int;
  sink : int;
}

let of_netlist net =
  let g, levels = Ftrsn_rsn.Netlist.dataflow_graph net in
  { graph = g; levels; root = 0; sink = 1 }

let edge_cost p (i, j) =
  if Digraph.has_edge p.graph i j then 0 else 1 + p.levels.(j) - p.levels.(i)

(* A pair (i, j) may carry a new edge: the level constraint of E_P, no
   self-loops, nothing leaves the sink or enters the root, and it must not
   already exist. *)
let potential_pair p i j =
  i <> j
  && i <> p.sink
  && j <> p.root
  && p.levels.(j) >= p.levels.(i)
  && not (Digraph.has_edge p.graph i j)

(* Existing degrees are counted per physical interconnect, not per
   collapsed dataflow edge: a segment has exactly one scan-in port, and
   every original in-edge reaches it through that single port (one mux
   tree), so a stuck-at on the port or on the mux output corrupts all of
   them together.  The fault-tolerance requirement therefore needs a
   second, physically distinct input (a new mux) at every vertex — which
   is why the paper observes "at least one additional multiplexer at the
   scan-in port of every scan segment" (§IV-C).  Out-edges are distinct
   interconnects (one per consumer port) and count individually.

   The potential pairs at a vertex are counted per level, not pair by
   pair: its [potential_pair] partners are the vertices on its side of
   the level order, minus itself, minus the excluded port on that side
   (the sink as a source, the root as a target), minus its existing
   edges to that side. *)
let demands p =
  let g = p.graph and lv = p.levels in
  let n = Digraph.vertex_count g in
  let max_level = Array.fold_left max 0 lv in
  (* [at_most.(l)] / [at_least.(l)]: vertices at level <= l / >= l. *)
  let at_most = Array.make (max_level + 1) 0 in
  let at_least = Array.make (max_level + 2) 0 in
  Array.iter (fun l -> at_most.(l) <- at_most.(l) + 1) lv;
  for l = max_level downto 0 do
    at_least.(l) <- at_most.(l) + at_least.(l + 1)
  done;
  for l = 1 to max_level do
    at_most.(l) <- at_most.(l) + at_most.(l - 1)
  done;
  let count f l = List.fold_left (fun c x -> if f x then c + 1 else c) 0 l in
  let d_in = Array.make n 0 and d_out = Array.make n 0 in
  for t = 0 to n - 1 do
    if t <> p.root then begin
      let below i = i <> t && lv.(i) <= lv.(t) in
      (* the existing port counts one, [t] itself minus one *)
      let potential =
        at_most.(lv.(t))
        - Bool.to_int (below p.sink)
        - count (fun i -> i <> p.sink && below i) (Digraph.pred g t)
      in
      d_in.(t) <- max 0 (min 2 potential - 1)
    end;
    if t <> p.sink then begin
      let above j = j <> t && lv.(j) >= lv.(t) in
      let out = Digraph.out_degree g t in
      let potential =
        out + at_least.(lv.(t)) - 1
        - Bool.to_int (above p.root)
        - count (fun j -> j <> p.root && above j) (Digraph.succ g t)
      in
      d_out.(t) <- max 0 (min 2 potential - out)
    end
  done;
  (d_in, d_out)

type solution = {
  new_edges : (int * int) list;
  cost : int;
}

exception Infeasible of int list

let describe_infeasible net short =
  Printf.sprintf "augmentation infeasible: the degree demands of %s stay unmet"
    (String.concat ", " (List.map (Ftrsn_rsn.Netlist.Elt.name net) short))

(* Candidates: potential pairs of level difference at most [window],
   minus the [banned] same-level pairs.  Both orientations of a
   same-level pair are candidates, so a solution may close a cycle among
   its same-level edges; existing and cross-level edges strictly
   increase the level and never do. *)
let candidate p window banned i j =
  potential_pair p i j
  && p.levels.(j) - p.levels.(i) <= window
  && not (p.levels.(i) = p.levels.(j) && banned i j)

(* The candidates with each vertex's count on either side, and the
   vertices whose demand exceeds their candidate edges on one side. *)
let enumerate p window banned =
  let n = Digraph.vertex_count p.graph in
  let d_in, d_out = demands p in
  (* Bucket vertices by level so candidate enumeration is near-linear. *)
  let max_level = Array.fold_left max 0 p.levels in
  let by_level = Array.make (max_level + 1) [] in
  for v = n - 1 downto 0 do
    by_level.(p.levels.(v)) <- v :: by_level.(p.levels.(v))
  done;
  let candidates = ref [] in
  let out_count = Array.make n 0 and in_count = Array.make n 0 in
  for i = 0 to n - 1 do
    if i <> p.sink then
      for lv = p.levels.(i) to min max_level (p.levels.(i) + window) do
        List.iter
          (fun j ->
            if candidate p window banned i j then begin
              candidates := (i, j) :: !candidates;
              out_count.(i) <- out_count.(i) + 1;
              in_count.(j) <- in_count.(j) + 1
            end)
          by_level.(lv)
      done
  done;
  let short =
    List.filter
      (fun v -> d_out.(v) > out_count.(v) || d_in.(v) > in_count.(v))
      (List.init n Fun.id)
  in
  (Array.of_list !candidates, out_count, in_count, short)

(* The degree cover as a min-cost flow (a b-matching) over the
   candidates, or [Error] with the short vertices.  Each side's capacity
   is its candidate count, so choosing every candidate meets all lower
   bounds: the flow is feasible exactly when no vertex is short. *)
let solve_flow p window banned =
  let n = Digraph.vertex_count p.graph in
  let d_in, d_out = demands p in
  match enumerate p window banned with
  | _, _, _, (_ :: _ as short) -> Error short
  | candidates, out_count, in_count, [] ->
      (* Nodes: out-copy v, in-copy n + v, source 2n, sink 2n + 1. *)
      let s = 2 * n and t = (2 * n) + 1 in
      let arcs =
        Array.concat
          [
            Array.map
              (fun (i, j) ->
                {
                  Mcf.With_lower_bounds.lb_src = i;
                  lb_dst = n + j;
                  lb_low = 0;
                  lb_cap = 1;
                  lb_cost = edge_cost p (i, j);
                })
              candidates;
            Array.init n (fun v ->
                {
                  Mcf.With_lower_bounds.lb_src = s;
                  lb_dst = v;
                  lb_low = d_out.(v);
                  lb_cap = out_count.(v);
                  lb_cost = 0;
                });
            Array.init n (fun v ->
                {
                  Mcf.With_lower_bounds.lb_src = n + v;
                  lb_dst = t;
                  lb_low = d_in.(v);
                  lb_cap = in_count.(v);
                  lb_cost = 0;
                });
          ]
      in
      match Mcf.With_lower_bounds.solve ~n:((2 * n) + 2) ~arcs ~s ~t with
      | None -> assert false (* every candidate chosen is a feasible flow *)
      | Some (cost, flows) ->
          let new_edges = ref [] in
          Array.iteri
            (fun k e -> if flows.(k) > 0 then new_edges := e :: !new_edges)
            candidates;
          Ok { new_edges = List.rev !new_edges; cost }

(* Whether [edges] close a cycle: a depth-first search with colours. *)
let cyclic edges =
  let succ = Hashtbl.create 16 and state = Hashtbl.create 16 in
  List.iter (fun (i, j) -> Hashtbl.add succ i j) edges;
  let rec visit v =
    Hashtbl.replace state v `Active;
    let back =
      List.exists
        (fun w ->
          match Hashtbl.find_opt state w with
          | Some `Active -> true
          | Some `Done -> false
          | None -> visit w)
        (Hashtbl.find_all succ v)
    in
    Hashtbl.replace state v `Done;
    back
  in
  List.exists (fun (i, _) -> (not (Hashtbl.mem state i)) && visit i) edges

(* Flows one window's search may solve, times the vertex count, before
   it stops branching. *)
let search_work = 8192

(* The cheapest acyclic cover within [window], by best-first search over
   orders of the same-level vertices.  A node places, per level, some
   vertices at the front of that level's order (ranks counting up from
   0) and some at the back (ranks counting down from [max_int]); the rest
   share the rank [free].  A same-level pair is a candidate only from a
   lower rank to a higher one, or between two free vertices, so the
   node's flow bounds from below every acyclic cover consistent with its
   placements, and the first acyclic flow taken from the queue is
   optimal.  A node whose flow closes a cycle branches on one end of one
   cyclic level: one child per free vertex of the level, placed next at
   that end.  The same-level edges of any acyclic cover have a source
   and a sink among the free vertices, so no cover is lost.  Of the ends
   of the cyclic levels, the one with the fewest children that pass the
   candidate count is taken (none closes the node).  [Error vs]: the
   vertices short in some child, when no node has a cover.  Once
   [search_work / n] flows are spent, each node taken from the queue
   orients the same-level pairs of its free vertices by vertex id, which
   is acyclic by construction but may cost more or miss a cover. *)
let search p window =
  let n = Digraph.vertex_count p.graph in
  let d_in, d_out = demands p in
  let members = Array.make (Array.fold_left max 0 p.levels + 1) [] in
  for v = n - 1 downto 0 do
    members.(p.levels.(v)) <- v :: members.(p.levels.(v))
  done;
  let free = max_int / 2 in
  let banned rank i j =
    rank.(i) >= rank.(j) && not (rank.(i) = free && rank.(j) = free)
  in
  let at l (i, j) = p.levels.(i) = l && p.levels.(j) = l in
  (* The levels whose same-level edges in [s] close a cycle. *)
  let cyclic_levels s =
    let same = List.filter (fun (i, j) -> at p.levels.(i) (i, j)) s.new_edges in
    List.filter
      (fun l -> cyclic (List.filter (at l) same))
      (List.sort_uniq compare (List.map (fun (i, _) -> p.levels.(i)) same))
  in
  let seen = Hashtbl.create 16 and short = ref [] and flows = ref 0 in
  (* The children of one end of level [l] that pass the candidate count.
     A child differs from [rank] only in level [l]'s same-level pairs, so
     only that level's vertices are recounted, from [out_count] and
     [in_count], the candidate counts under [rank]. *)
  let children (out_count, in_count) rank (l, front) =
    let placed f =
      List.length (List.filter (fun v -> f rank.(v) free) members.(l))
    in
    let next = if front then placed ( < ) else max_int - placed ( > ) in
    let same rank u =
      let ok i j = potential_pair p i j && not (banned rank i j) in
      ( List.length (List.filter (fun w -> ok u w) members.(l)),
        List.length (List.filter (fun w -> ok w u) members.(l)) )
    in
    List.filter_map
      (fun v ->
        let child = Array.copy rank in
        child.(v) <- next;
        if rank.(v) <> free || Hashtbl.mem seen child then None
        else
          let short_in_child u =
            let o, i = same rank u and o', i' = same child u in
            d_out.(u) > out_count.(u) - o + o'
            || d_in.(u) > in_count.(u) - i + i'
          in
          match List.filter short_in_child members.(l) with
          | [] -> Some child
          | vs ->
              short := vs @ !short;
              None)
      members.(l)
  in
  (* Of the ends of [levels], the children of the one with the fewest,
     stopping at the first with at most one. *)
  let fewest rank levels =
    let _, out_count, in_count, _ = enumerate p window (banned rank) in
    let rec go best = function
      | [] -> Option.value best ~default:[]
      | side :: sides -> (
          let c = children (out_count, in_count) rank side in
          match best with
          | _ when List.compare_length_with c 1 <= 0 -> c
          | Some b when List.compare_lengths b c <= 0 -> go best sides
          | _ -> go (Some c) sides)
    in
    go None (List.concat_map (fun l -> [ (l, true); (l, false) ]) levels)
  in
  let node banned =
    incr flows;
    match solve_flow p window banned with
    | Ok s -> Ok s
    | Error vs ->
        short := vs @ !short;
        Error ()
  in
  let by_cost (a, _) (b, _) = compare a.cost b.cost in
  let rec loop = function
    | [] -> Error (List.sort_uniq compare !short)
    | (s, rank) :: rest -> (
        match cyclic_levels s with
        | [] -> Ok s
        | _ when !flows * n >= search_work -> (
            let by_id i j =
              banned rank i j || (rank.(i) = free && rank.(j) = free && i > j)
            in
            match node by_id with Ok s -> Ok s | Error () -> loop rest)
        | levels ->
            let chosen = fewest rank levels in
            List.iter (fun r -> Hashtbl.replace seen r ()) chosen;
            let nodes =
              List.filter_map
                (fun r ->
                  match node (banned r) with
                  | Ok s -> Some (s, r)
                  | Error () -> None)
                chosen
            in
            loop (List.merge by_cost (List.stable_sort by_cost nodes) rest))
  in
  let root = Array.make n free in
  match node (banned root) with
  | Ok s -> loop [ (s, root) ]
  | Error () -> Error (List.sort_uniq compare !short)

(* Widen the window from 4, doubling up to the largest level difference,
   where every potential edge is a candidate. *)
let solve p =
  let max_w = Array.fold_left max 1 p.levels in
  let rec widen w =
    match search p w with
    | Ok s -> s
    | Error short ->
        if w >= max_w then raise (Infeasible short)
        else widen (min max_w (2 * w))
  in
  widen 4

(* Two vertex-independent root->v paths exist iff [v] is a child of the
   root in the dominator tree (no single vertex separates them, Menger)
   and, when [root -> v] is itself an edge, some other path reaches [v]
   too (see {!Ftrsn_topo.Dominator.two_paths}); the sink side is the
   same question on the transpose. *)
let verify p new_edges =
  let g = Digraph.copy p.graph in
  List.iter (fun (i, j) -> Digraph.add_edge g i j) new_edges;
  let n = Digraph.vertex_count g in
  let d_in, d_out = demands p in
  let gt = Digraph.transpose g in
  let from_root = Dominator.idoms g ~root:p.root in
  let to_sink = Dominator.idoms gt ~root:p.sink in
  let problems = ref [] in
  if not (Order.is_acyclic g) then problems := "augmented graph is cyclic" :: !problems;
  for v = 0 to n - 1 do
    if Digraph.in_degree g v < Digraph.in_degree p.graph v + d_in.(v) then
      problems := Printf.sprintf "vertex %d in-degree demand unmet" v :: !problems;
    if Digraph.out_degree g v < Digraph.out_degree p.graph v + d_out.(v) then
      problems := Printf.sprintf "vertex %d out-degree demand unmet" v :: !problems;
    (* Semantic check: two vertex-independent paths wherever the degree
       demands claimed it possible. *)
    if v <> p.root && Digraph.in_degree g v >= 2 then begin
      if not (Dominator.two_paths g from_root ~root:p.root v) then
        problems :=
          Printf.sprintf "vertex %d lacks 2 root paths" v :: !problems
    end;
    if v <> p.sink && Digraph.out_degree g v >= 2 then begin
      if not (Dominator.two_paths gt to_sink ~root:p.sink v) then
        problems :=
          Printf.sprintf "vertex %d lacks 2 sink paths" v :: !problems
    end
  done;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)
