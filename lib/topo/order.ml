let sort g =
  let n = Digraph.vertex_count g in
  let indeg = Array.init n (Digraph.in_degree g) in
  let q = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v q) indeg;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order.(!k) <- v;
    incr k;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w q)
      (Digraph.succ g v)
  done;
  if !k = n then Some order else None

let is_acyclic g = sort g <> None

let levels g =
  match sort g with
  | None -> invalid_arg "Order.levels: graph is cyclic"
  | Some order ->
      let n = Digraph.vertex_count g in
      let lv = Array.make n 0 in
      Array.iter
        (fun v ->
          List.iter
            (fun w -> if lv.(v) + 1 > lv.(w) then lv.(w) <- lv.(v) + 1)
            (Digraph.succ g v))
        order;
      lv

let bfs_collect next start n =
  let seen = Bitset.create n in
  let q = Queue.create () in
  Bitset.add seen start;
  Queue.add start q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if not (Bitset.mem seen w) then begin
          Bitset.add seen w;
          Queue.add w q
        end)
      (next v)
  done;
  seen

let reachable g ~from =
  bfs_collect (Digraph.succ g) from (Digraph.vertex_count g)

let co_reachable g ~to_ =
  bfs_collect (Digraph.pred g) to_ (Digraph.vertex_count g)
