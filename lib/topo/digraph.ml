(* Adjacency is kept as per-vertex lists in reverse insertion order plus a
   hash table keyed by packed (u, v) pairs for O(1) duplicate detection. *)

type t = {
  mutable n : int;
  mutable out_adj : int list array;
  mutable in_adj : int list array;
  mutable m : int;
  edge_set : (int, unit) Hashtbl.t;
}

let create ?(size_hint = 16) () =
  {
    n = 0;
    out_adj = Array.make (max 1 size_hint) [];
    in_adj = Array.make (max 1 size_hint) [];
    m = 0;
    edge_set = Hashtbl.create (4 * size_hint);
  }

let grow g =
  let len = Array.length g.out_adj in
  if g.n >= len then begin
    let grow_array a = Array.append a (Array.make len []) in
    g.out_adj <- grow_array g.out_adj;
    g.in_adj <- grow_array g.in_adj
  end

(* Allocates and returns a fresh vertex identifier. *)
let add_vertex g =
  grow g;
  let v = g.n in
  g.n <- g.n + 1;
  v

let add_vertices g k =
  for _ = 1 to k do
    ignore (add_vertex g)
  done

let vertex_count g = g.n
let edge_count g = g.m

let check g v label =
  if v < 0 || v >= g.n then invalid_arg ("Digraph." ^ label ^ ": bad vertex")

(* Edges are packed into a single int key; vertex counts stay far below
   2^31 in this code base. *)
let key u v = (u lsl 31) lor v

let has_edge g u v =
  check g u "has_edge";
  check g v "has_edge";
  Hashtbl.mem g.edge_set (key u v)

let add_edge g u v =
  check g u "add_edge";
  check g v "add_edge";
  if not (Hashtbl.mem g.edge_set (key u v)) then begin
    Hashtbl.add g.edge_set (key u v) ();
    g.out_adj.(u) <- v :: g.out_adj.(u);
    g.in_adj.(v) <- u :: g.in_adj.(v);
    g.m <- g.m + 1
  end

let remove_edge g u v =
  check g u "remove_edge";
  check g v "remove_edge";
  if Hashtbl.mem g.edge_set (key u v) then begin
    Hashtbl.remove g.edge_set (key u v);
    g.out_adj.(u) <- List.filter (fun w -> w <> v) g.out_adj.(u);
    g.in_adj.(v) <- List.filter (fun w -> w <> u) g.in_adj.(v);
    g.m <- g.m - 1
  end

let succ g v =
  check g v "succ";
  List.rev g.out_adj.(v)

let pred g v =
  check g v "pred";
  List.rev g.in_adj.(v)

let out_degree g v =
  check g v "out_degree";
  List.length g.out_adj.(v)

let in_degree g v =
  check g v "in_degree";
  List.length g.in_adj.(v)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> f u v) (List.rev g.out_adj.(u))
  done

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) g.out_adj.(u)
  done;
  !acc

let of_edges ~n es =
  let g = create ~size_hint:n () in
  add_vertices g n;
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy g = of_edges ~n:g.n (edges g)

let transpose g =
  let t = create ~size_hint:g.n () in
  add_vertices t g.n;
  iter_edges (fun u v -> add_edge t v u) g;
  t

let sources g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if g.in_adj.(v) = [] then acc := v :: !acc
  done;
  !acc

let sinks g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if g.out_adj.(v) = [] then acc := v :: !acc
  done;
  !acc
