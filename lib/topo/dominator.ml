(* Cooper, Harvey, Kennedy: "A Simple, Fast Dominance Algorithm".
   Iterates intersection over a reverse-postorder numbering until fixed. *)

let reverse_postorder g root =
  let n = Digraph.vertex_count g in
  let visited = Array.make n false in
  let order = ref [] in
  (* Iterative DFS with an explicit stack of (vertex, remaining succs). *)
  let stack = Stack.create () in
  visited.(root) <- true;
  Stack.push (root, Digraph.succ g root) stack;
  while not (Stack.is_empty stack) do
    let v, rest = Stack.pop stack in
    match rest with
    | w :: rest' ->
        Stack.push (v, rest') stack;
        if not visited.(w) then begin
          visited.(w) <- true;
          Stack.push (w, Digraph.succ g w) stack
        end
    | [] -> order := v :: !order
  done;
  Array.of_list !order

let idoms g ~root =
  let n = Digraph.vertex_count g in
  if root < 0 || root >= n then invalid_arg "Dominator.idoms: bad root";
  let rpo = reverse_postorder g root in
  let number = Array.make n (-1) in
  Array.iteri (fun i v -> number.(v) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if number.(a) > number.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if v <> root then begin
          let preds =
            List.filter (fun p -> number.(p) >= 0) (Digraph.pred g v)
          in
          let processed = List.filter (fun p -> idom.(p) >= 0) preds in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(v) <> new_idom then begin
                idom.(v) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  idom

let dominators g ~root v =
  let idom = idoms g ~root in
  if v = root || idom.(v) < 0 then []
  else begin
    (* innermost first: idom(v), idom(idom(v)), ..., root *)
    let rec walk d acc =
      if d = root then List.rev (root :: acc) else walk idom.(d) (d :: acc)
    in
    walk idom.(v) []
  end

let dominates idom d v =
  if idom.(v) < 0 then false
  else begin
    let rec walk x = x = d || (x <> idom.(x) && walk idom.(x)) in
    walk v
  end

(* Menger for a vertex [v] and the root: with no edge [root -> v], the
   maximum number of vertex-independent paths is the minimum vertex
   separator, which is 1 exactly when [v] has a proper dominator besides
   the root.  With the edge, the paths are that edge plus those of the
   graph without it: the second exists iff some other predecessor [u]
   is reachable without passing through [v] ([v] does not dominate
   [u]; never the case in a DAG). *)
let two_paths g idom ~root v =
  v <> root
  && idom.(v) = root
  && ((not (Digraph.has_edge g root v))
     || List.exists
          (fun u ->
            u <> root && u <> v && idom.(u) >= 0 && not (dominates idom v u))
          (Digraph.pred g v))
