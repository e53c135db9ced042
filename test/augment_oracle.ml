(* Independent oracles for [Ftrsn_core.Augment]: the quadratic
   definition of the degree demands, the paper's exact ILP (eqs. 2-5)
   that checks the min-cost-flow solver's cost, and the max-flow
   verification.  The demands and the verification are as they were
   written before the level counts and the dominator check replaced
   them. *)

module Augment = Ftrsn_core.Augment
module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order
module Menger = Ftrsn_topo.Menger
module Acyclic = Ftrsn_topo.Acyclic
module Simplex = Ftrsn_lp.Simplex
module Bnb = Ftrsn_ilp.Bnb

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

(* The paper's formulation solved exactly: one 0/1 variable per
   potential new edge, the degree demands as covering constraints, and
   acyclicity separated lazily.  [None] if the demands are
   unsatisfiable. *)
let solve_ilp ?(max_nodes = 100_000) (p : Augment.problem) =
  let n = Digraph.vertex_count p.Augment.graph in
  let d_in, d_out = demands p in
  let vars = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if potential_pair p i j then vars := (i, j) :: !vars
    done
  done;
  let vars = Array.of_list (List.rev !vars) in
  let nv = Array.length vars in
  let index = Hashtbl.create (2 * nv) in
  Array.iteri (fun k e -> Hashtbl.add index e k) vars;
  let objective =
    Array.map (fun e -> float_of_int (Augment.edge_cost p e)) vars
  in
  let t = Bnb.make ~num_vars:nv ~objective in
  for v = 0 to n - 1 do
    if d_in.(v) > 0 then begin
      let coeffs = ref [] in
      Array.iteri (fun k (_, j) -> if j = v then coeffs := (k, 1.0) :: !coeffs) vars;
      Bnb.add_constraint t ~coeffs:!coeffs ~op:Simplex.Ge
        ~rhs:(float_of_int d_in.(v))
    end;
    if d_out.(v) > 0 then begin
      let coeffs = ref [] in
      Array.iteri (fun k (i, _) -> if i = v then coeffs := (k, 1.0) :: !coeffs) vars;
      Bnb.add_constraint t ~coeffs:!coeffs ~op:Simplex.Ge
        ~rhs:(float_of_int d_out.(v))
    end
  done;
  (* Lazy acyclicity: a cycle in the augmented graph can only use new
     same-level edges (existing edges and cross-level new edges strictly
     increase the level).  Cut each cycle found in a candidate. *)
  let lazy_cuts x =
    let g = Digraph.copy p.Augment.graph in
    Array.iteri (fun k (i, j) -> if x.(k) then Digraph.add_edge g i j) vars;
    match Acyclic.find_cycle g with
    | None -> []
    | Some cycle ->
        let arr = Array.of_list cycle in
        let m = Array.length arr in
        let members = ref [] in
        for a = 0 to m - 1 do
          let e = (arr.(a), arr.((a + 1) mod m)) in
          match Hashtbl.find_opt index e with
          | Some k -> members := k :: !members
          | None -> ()
        done;
        let coeffs = List.map (fun k -> (k, 1.0)) !members in
        [ (coeffs, Simplex.Le, float_of_int (List.length !members - 1)) ]
  in
  let report = Bnb.solve ~lazy_cuts ~max_nodes ~integral_objective:true t in
  match report.Bnb.best with
  | None -> None
  | Some sol ->
      let new_edges = ref [] in
      Array.iteri (fun k e -> if sol.Bnb.x.(k) then new_edges := e :: !new_edges) vars;
      Some
        {
          Augment.new_edges = List.rev !new_edges;
          cost = int_of_float (Float.round sol.Bnb.obj);
        }

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
