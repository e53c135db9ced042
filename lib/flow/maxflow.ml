(* Dinic's algorithm with the usual paired-arc residual representation:
   arc [2k] is the forward arc of the k-th added edge and arc [2k+1] its
   reverse.  [level] holds the BFS layering, [iter] the per-vertex cursor of
   the current-arc optimisation used by the blocking-flow DFS. *)

type t = {
  n : int;
  mutable head : int array array; (* head.(v) = arc ids leaving v *)
  mutable dst : int array;        (* dst.(a)  = head vertex of arc a *)
  mutable cap : int array;        (* residual capacity of arc a *)
  mutable cap0 : int array;       (* original capacity of arc a *)
  mutable arcs : int;             (* number of arcs in use *)
  mutable adj : int list array;   (* building-time adjacency, arc ids *)
  mutable frozen : bool;
  level : int array;
  iter : int array;
}

let create ~n =
  if n <= 0 then invalid_arg "Maxflow.create: n must be positive";
  {
    n;
    head = [||];
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    cap0 = Array.make 16 0;
    arcs = 0;
    adj = Array.make n [];
    frozen = false;
    level = Array.make n (-1);
    iter = Array.make n 0;
  }

let ensure_arc_room g =
  let len = Array.length g.dst in
  if g.arcs + 2 > len then begin
    let len' = 2 * len in
    let grow a = Array.append a (Array.make (len' - len) 0) in
    g.dst <- grow g.dst;
    g.cap <- grow g.cap;
    g.cap0 <- grow g.cap0
  end

let add_edge g ~src ~dst ~cap =
  if g.frozen then invalid_arg "Maxflow.add_edge: network already solved";
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Maxflow.add_edge: vertex out of range";
  ensure_arc_room g;
  let a = g.arcs in
  g.dst.(a) <- dst;
  g.cap.(a) <- cap;
  g.cap0.(a) <- cap;
  g.dst.(a + 1) <- src;
  g.cap.(a + 1) <- 0;
  g.cap0.(a + 1) <- 0;
  g.adj.(src) <- a :: g.adj.(src);
  g.adj.(dst) <- (a + 1) :: g.adj.(dst);
  g.arcs <- g.arcs + 2;
  a / 2

let freeze g =
  if not g.frozen then begin
    g.head <- Array.map (fun l -> Array.of_list (List.rev l)) g.adj;
    g.frozen <- true
  end

let reset_flow g = Array.blit g.cap0 0 g.cap 0 g.arcs

(* BFS layering from [s]; returns true iff [t] is reachable. *)
let bfs g s t =
  Array.fill g.level 0 g.n (-1);
  let q = Queue.create () in
  g.level.(s) <- 0;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun a ->
        let w = g.dst.(a) in
        if g.cap.(a) > 0 && g.level.(w) < 0 then begin
          g.level.(w) <- g.level.(v) + 1;
          Queue.add w q
        end)
      g.head.(v)
  done;
  g.level.(t) >= 0

(* Blocking-flow DFS with the current-arc optimisation. *)
let rec dfs g v t f =
  if v = t then f
  else begin
    let arcs = g.head.(v) in
    let m = Array.length arcs in
    let pushed = ref 0 in
    while !pushed = 0 && g.iter.(v) < m do
      let a = arcs.(g.iter.(v)) in
      let w = g.dst.(a) in
      if g.cap.(a) > 0 && g.level.(w) = g.level.(v) + 1 then begin
        let d = dfs g w t (min f g.cap.(a)) in
        if d > 0 then begin
          g.cap.(a) <- g.cap.(a) - d;
          g.cap.(a lxor 1) <- g.cap.(a lxor 1) + d;
          pushed := d
        end
        else g.iter.(v) <- g.iter.(v) + 1
      end
      else g.iter.(v) <- g.iter.(v) + 1
    done;
    !pushed
  end

let max_flow g ~s ~t =
  if s = t then invalid_arg "Maxflow.max_flow: s = t";
  if s < 0 || s >= g.n || t < 0 || t >= g.n then
    invalid_arg "Maxflow.max_flow: terminal out of range";
  freeze g;
  reset_flow g;
  let total = ref 0 in
  while bfs g s t do
    Array.fill g.iter 0 g.n 0;
    let rec pump () =
      let f = dfs g s t max_int in
      if f > 0 then begin
        total := !total + f;
        pump ()
      end
    in
    pump ()
  done;
  !total

let flow_on g e =
  let a = 2 * e in
  if a < 0 || a >= g.arcs then invalid_arg "Maxflow.flow_on: bad edge id";
  g.cap0.(a) - g.cap.(a)

let min_cut_side g ~s =
  freeze g;
  let side = Array.make g.n false in
  let q = Queue.create () in
  side.(s) <- true;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun a ->
        let w = g.dst.(a) in
        if g.cap.(a) > 0 && not side.(w) then begin
          side.(w) <- true;
          Queue.add w q
        end)
      g.head.(v)
  done;
  side
