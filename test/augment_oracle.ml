(* Independent oracles for [Ftrsn_core.Augment]: the quadratic
   definition of the degree demands and the max-flow verification, both
   as they were written before the level counts and the dominator
   check replaced them. *)

module Augment = Ftrsn_core.Augment
module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order
module Menger = Ftrsn_topo.Menger

(* The quadratic definition of [Augment.demands]: every potential pair
   counted one by one. *)
let potential_pair (p : Augment.problem) i j =
  i <> j
  && i <> p.Augment.sink
  && j <> p.Augment.root
  && p.Augment.levels.(j) >= p.Augment.levels.(i)
  && not (Digraph.has_edge p.Augment.graph i j)

let demands (p : Augment.problem) =
  let g = p.Augment.graph in
  let n = Digraph.vertex_count g in
  let d_in = Array.make n 0 and d_out = Array.make n 0 in
  for t = 0 to n - 1 do
    if t <> p.Augment.root then begin
      let potential = ref 1 in
      for i = 0 to n - 1 do
        if potential_pair p i t then incr potential
      done;
      d_in.(t) <- max 0 (min 2 !potential - 1)
    end;
    if t <> p.Augment.sink then begin
      let potential = ref (Digraph.out_degree g t) in
      for j = 0 to n - 1 do
        if potential_pair p t j then incr potential
      done;
      d_out.(t) <- max 0 (min 2 !potential - Digraph.out_degree g t)
    end
  done;
  (d_in, d_out)

(* The max-flow verification: two Menger flows per vertex, with the
   same checks and messages as [Augment.verify]. *)
let verify (p : Augment.problem) new_edges =
  let g = Digraph.copy p.Augment.graph in
  List.iter (fun (i, j) -> Digraph.add_edge g i j) new_edges;
  let n = Digraph.vertex_count g in
  let d_in, d_out = demands p in
  let problems = ref [] in
  if not (Order.is_acyclic g) then
    problems := "augmented graph is cyclic" :: !problems;
  for v = 0 to n - 1 do
    if Digraph.in_degree g v < Digraph.in_degree p.Augment.graph v + d_in.(v)
    then
      problems :=
        Printf.sprintf "vertex %d in-degree demand unmet" v :: !problems;
    if Digraph.out_degree g v < Digraph.out_degree p.Augment.graph v + d_out.(v)
    then
      problems :=
        Printf.sprintf "vertex %d out-degree demand unmet" v :: !problems;
    if v <> p.Augment.root && Digraph.in_degree g v >= 2 then
      if Menger.vertex_disjoint_paths g ~src:p.Augment.root ~dst:v < 2 then
        problems :=
          Printf.sprintf "vertex %d lacks 2 root paths" v :: !problems;
    if v <> p.Augment.sink && Digraph.out_degree g v >= 2 then
      if Menger.vertex_disjoint_paths g ~src:v ~dst:p.Augment.sink < 2 then
        problems := Printf.sprintf "vertex %d lacks 2 sink paths" v :: !problems
  done;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)
