(* Tests for the directed-graph substrate: digraph bookkeeping, topological
   orders and levels, SCC, cycle finding, Menger connectivity. *)

module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order
module Scc = Ftrsn_topo.Scc
module Acyclic = Ftrsn_topo.Acyclic
module Menger = Ftrsn_topo.Menger
module Bitset = Ftrsn_topo.Bitset

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* A diamond: 0 -> 1 -> 3, 0 -> 2 -> 3. *)
let diamond () = Digraph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* A chain 0 -> 1 -> 2 -> 3. *)
let chain () = Digraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]

let test_digraph_basics () =
  let g = diamond () in
  check int_t "vertices" 4 (Digraph.vertex_count g);
  check int_t "edges" 4 (Digraph.edge_count g);
  check bool_t "has 0->1" true (Digraph.has_edge g 0 1);
  check bool_t "no 1->0" false (Digraph.has_edge g 1 0);
  check int_t "out-degree 0" 2 (Digraph.out_degree g 0);
  check int_t "in-degree 3" 2 (Digraph.in_degree g 3);
  Digraph.add_edge g 0 1;
  check int_t "duplicate edge ignored" 4 (Digraph.edge_count g);
  Digraph.remove_edge g 0 1;
  check bool_t "removed" false (Digraph.has_edge g 0 1);
  check int_t "edge count after removal" 3 (Digraph.edge_count g)

let test_digraph_succ_pred () =
  let g = diamond () in
  check (Alcotest.list int_t) "succ 0" [ 1; 2 ] (List.sort compare (Digraph.succ g 0));
  check (Alcotest.list int_t) "pred 3" [ 1; 2 ] (List.sort compare (Digraph.pred g 3));
  check (Alcotest.list int_t) "sources" [ 0 ] (Digraph.sources g);
  check (Alcotest.list int_t) "sinks" [ 3 ] (Digraph.sinks g)

let test_transpose () =
  let g = diamond () in
  let t = Digraph.transpose g in
  check bool_t "transposed edge" true (Digraph.has_edge t 1 0);
  check int_t "same edge count" (Digraph.edge_count g) (Digraph.edge_count t)

let test_toposort () =
  let g = diamond () in
  match Order.sort g with
  | None -> Alcotest.fail "diamond should be acyclic"
  | Some order ->
      let pos = Array.make 4 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Digraph.iter_edges
        (fun u v ->
          if pos.(u) >= pos.(v) then Alcotest.fail "order violates an edge")
        g

let test_toposort_cyclic () =
  let g = Digraph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  check bool_t "cycle detected" false (Order.is_acyclic g)

let test_levels () =
  let g = diamond () in
  let lv = Order.levels g in
  check int_t "level root" 0 lv.(0);
  check int_t "level mid" 1 lv.(1);
  check int_t "level sink" 2 lv.(3);
  (* Longest path wins: add 1 -> 2 so 2 is pushed a level down. *)
  let g2 = Digraph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ] in
  let lv2 = Order.levels g2 in
  check int_t "longest-path level" 2 lv2.(2);
  check int_t "sink level" 3 lv2.(3)

let test_reachable () =
  let g = chain () in
  let r = Order.reachable g ~from:1 in
  check bool_t "1 reaches 3" true (Bitset.mem r 3);
  check bool_t "1 does not reach 0" false (Bitset.mem r 0);
  let c = Order.co_reachable g ~to_:2 in
  check bool_t "0 co-reaches 2" true (Bitset.mem c 0);
  check bool_t "3 does not" false (Bitset.mem c 3)

let test_scc () =
  let g =
    Digraph.of_edges ~n:6
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3); (4, 5) ]
  in
  let comp, k = Scc.compute g in
  check int_t "three components" 3 k;
  check bool_t "0,1,2 together" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  check bool_t "3,4 together" true (comp.(3) = comp.(4));
  check bool_t "5 alone" true (comp.(5) <> comp.(4));
  (* Condensation order: edges go to smaller component ids. *)
  Digraph.iter_edges
    (fun u v -> if comp.(u) <> comp.(v) then check bool_t "topo order" true (comp.(u) > comp.(v)))
    g

let test_find_cycle () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  (match Acyclic.find_cycle g with
  | None -> Alcotest.fail "cycle exists"
  | Some vs ->
      check bool_t "cycle nonempty" true (vs <> []);
      (* Every consecutive pair is an edge, wrapping around. *)
      let arr = Array.of_list vs in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        check bool_t "cycle edge" true
          (Digraph.has_edge g arr.(i) arr.((i + 1) mod n))
      done);
  check bool_t "acyclic has none" true (Acyclic.find_cycle (diamond ()) = None)

let test_menger_diamond () =
  let g = diamond () in
  check int_t "two disjoint paths" 2
    (Menger.vertex_disjoint_paths g ~src:0 ~dst:3);
  check int_t "one path to mid" 1 (Menger.vertex_disjoint_paths g ~src:0 ~dst:1)

let test_menger_chain () =
  let g = chain () in
  check int_t "chain has one path" 1
    (Menger.vertex_disjoint_paths g ~src:0 ~dst:3);
  check bool_t "mid vertex not 2-connected" false
    (Menger.two_connected_through g ~root:0 ~sink:3 1)

let test_menger_direct_edge () =
  (* A direct edge plus an interior path: 2 vertex-independent paths. *)
  let g = Digraph.of_edges ~n:3 [ (0, 2); (0, 1); (1, 2) ] in
  check int_t "direct + interior" 2 (Menger.vertex_disjoint_paths g ~src:0 ~dst:2)

let test_menger_bottleneck () =
  (* Two diamonds sharing a middle vertex: bottleneck limits to 1. *)
  let g =
    Digraph.of_edges ~n:7
      [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 5); (4, 6); (5, 6) ]
  in
  check int_t "bottleneck at 3" 1 (Menger.vertex_disjoint_paths g ~src:0 ~dst:6);
  check (Alcotest.list int_t) "spof is vertex 3" [ 3 ]
    (Menger.single_points_of_failure g ~root:0 ~sink:6 6 |> List.filter (fun v -> v <> 6))

let test_spof () =
  let g = chain () in
  check (Alcotest.list int_t) "chain spofs for last vertex" [ 1; 2 ]
    (Menger.single_points_of_failure g ~root:0 ~sink:3 3);
  let d = diamond () in
  check (Alcotest.list int_t) "diamond sink has none" []
    (Menger.single_points_of_failure d ~root:0 ~sink:3 3)

let test_two_connected () =
  let g =
    Digraph.of_edges ~n:5
      [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3); (2, 4); (3, 4) ]
  in
  check bool_t "vertex 2 two-connected" true
    (Menger.two_connected_through g ~root:0 ~sink:4 2);
  check bool_t "vertex 1 has a single in-path" false
    (Menger.two_connected_through g ~root:0 ~sink:4 1)

let test_bitset () =
  let s = Bitset.create 100 in
  check bool_t "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check int_t "cardinal" 4 (Bitset.cardinal s);
  check bool_t "mem 64" true (Bitset.mem s 64);
  Bitset.remove s 64;
  check bool_t "removed" false (Bitset.mem s 64);
  check (Alcotest.list int_t) "elements sorted" [ 0; 63; 99 ] (Bitset.elements s);
  let t = Bitset.of_list 100 [ 0; 1; 99 ] in
  Bitset.inter_into t s;
  check (Alcotest.list int_t) "intersection" [ 0; 99 ] (Bitset.elements t);
  Bitset.union_into t (Bitset.of_list 100 [ 50 ]);
  check (Alcotest.list int_t) "union" [ 0; 50; 99 ] (Bitset.elements t);
  let u = Bitset.create 100 in
  Bitset.fill u;
  check int_t "fill" 100 (Bitset.cardinal u)

(* Word-boundary behavior: 100 is not a multiple of the 63-bit word, so
   the second word is partial — fill must not set ghost bits beyond [n],
   and andn_into must clear exactly the lanes of its argument. *)
let test_bitset_andn () =
  let n = 100 in
  let s = Bitset.create n in
  Bitset.fill s;
  check int_t "fill stops at n" n (Bitset.cardinal s);
  let mask = Bitset.of_list n [ 0; 62; 63; 64; 99 ] in
  Bitset.andn_into s mask;
  check int_t "andn cardinal" (n - 5) (Bitset.cardinal s);
  List.iter
    (fun i -> check bool_t (Printf.sprintf "bit %d cleared" i) false (Bitset.mem s i))
    [ 0; 62; 63; 64; 99 ];
  List.iter
    (fun i -> check bool_t (Printf.sprintf "bit %d kept" i) true (Bitset.mem s i))
    [ 1; 61; 65; 98 ];
  (* clearing the same bits again is a no-op *)
  Bitset.andn_into s mask;
  check int_t "andn idempotent" (n - 5) (Bitset.cardinal s);
  (* andn against a full set empties *)
  let full = Bitset.create n in
  Bitset.fill full;
  Bitset.andn_into s full;
  check bool_t "andn full empties" true (Bitset.is_empty s)

module Lanes = Ftrsn_topo.Lanes

let test_lanes () =
  check bool_t "width is Sys.int_size" true (Lanes.width = Sys.int_size);
  let v = Lanes.create 5 in
  check int_t "length" 5 (Lanes.length v);
  check int_t "zero init" 0 (Lanes.get v 3);
  (* or_in returns only the newly set lanes *)
  check int_t "or_in fresh" 0b101 (Lanes.or_in v 2 0b101);
  check int_t "or_in repeat" 0 (Lanes.or_in v 2 0b101);
  check int_t "or_in partial" 0b010 (Lanes.or_in v 2 0b111);
  check int_t "word after or_in" 0b111 (Lanes.get v 2);
  (* word ops act lane-wise *)
  let w = Lanes.create 5 in
  Lanes.fill w 0b110;
  Lanes.and_into w v;
  check int_t "and_into" 0b110 (Lanes.get w 2);
  check int_t "and_into zero elsewhere" 0 (Lanes.get w 0);
  Lanes.or_into w v;
  check int_t "or_into" 0b111 (Lanes.get w 2);
  Lanes.andn_into w v;
  check int_t "andn_into clears" 0 (Lanes.get w 2);
  (* popcount, including the negative (sign lane set) word *)
  check int_t "popcount 0" 0 (Lanes.popcount 0);
  check int_t "popcount 0b1011" 3 (Lanes.popcount 0b1011);
  check int_t "popcount all-ones" Lanes.width (Lanes.popcount (-1));
  check int_t "popcount min_int" 1 (Lanes.popcount min_int);
  (* cardinal over a copied vector; equal/copy round-trip *)
  let c = Lanes.copy v in
  check bool_t "copy equal" true (Lanes.equal c v);
  check int_t "cardinal" 3 (Lanes.cardinal c);
  Lanes.clear c;
  check int_t "clear" 0 (Lanes.cardinal c);
  check bool_t "cleared differs" false (Lanes.equal c v);
  (* lane_mask at and beyond the word width *)
  check int_t "lane_mask 0" 0 (Lanes.lane_mask 0);
  check int_t "lane_mask 3" 0b111 (Lanes.lane_mask 3);
  check int_t "lane_mask width" (-1) (Lanes.lane_mask Lanes.width);
  check int_t "lane_mask beyond" (-1) (Lanes.lane_mask (Lanes.width + 7));
  check bool_t "lane_mask negative raises" true
    (try
       ignore (Lanes.lane_mask (-1));
       false
     with Invalid_argument _ -> true);
  (* iter_lanes ascending, sign lane included *)
  let seen = ref [] in
  Lanes.iter_lanes (fun l -> seen := l :: !seen) 0b1011;
  check (Alcotest.list int_t) "iter_lanes ascending" [ 0; 1; 3 ]
    (List.rev !seen);
  seen := [];
  Lanes.iter_lanes (fun l -> seen := l :: !seen) min_int;
  check (Alcotest.list int_t) "iter_lanes sign lane" [ Lanes.width - 1 ]
    (List.rev !seen);
  seen := [];
  Lanes.iter_lanes (fun l -> seen := l :: !seen) (-1);
  check int_t "iter_lanes all lanes" Lanes.width (List.length !seen)

module Dominator = Ftrsn_topo.Dominator
module Dot = Ftrsn_topo.Dot

let test_dominators_diamond () =
  let g = diamond () in
  let idom = Dominator.idoms g ~root:0 in
  check int_t "idom of 1" 0 idom.(1);
  check int_t "idom of 2" 0 idom.(2);
  check int_t "idom of sink skips the diamond" 0 idom.(3);
  check (Alcotest.list int_t) "proper dominators of 3" [ 0 ]
    (Dominator.dominators g ~root:0 3);
  check bool_t "0 dominates 3" true (Dominator.dominates idom 0 3);
  check bool_t "1 does not dominate 3" false (Dominator.dominates idom 1 3)

let test_dominators_chain () =
  let g = chain () in
  check (Alcotest.list int_t) "chain dominators innermost first" [ 2; 1; 0 ]
    (Dominator.dominators g ~root:0 3)

let test_dominators_unreachable () =
  let g = Digraph.of_edges ~n:3 [ (0, 1) ] in
  let idom = Dominator.idoms g ~root:0 in
  check int_t "unreachable marked" (-1) idom.(2);
  check (Alcotest.list int_t) "no dominators" [] (Dominator.dominators g ~root:0 2)

let test_dot_export () =
  let g = diamond () in
  let dot =
    Dot.to_dot ~name:"d" ~vertex_label:(Printf.sprintf "v%d")
      ~highlight_edges:[ (0, 3) ] g
  in
  check bool_t "digraph header" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  check bool_t "contains edge" true
    (try ignore (Str.search_forward (Str.regexp_string "n0 -> n1") dot 0); true
     with Not_found -> false)

(* Property: the Menger-based single points of failure on the root side
   equal the proper dominators (minus the endpoints) — two independent
   computations of the same §III-C notion. *)
let prop_spof_equals_dominators =
  QCheck.Test.make ~name:"SPOFs = proper dominators" ~count:60
    QCheck.(pair (int_range 3 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Digraph.create ~size_hint:n () in
      Digraph.add_vertices g n;
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Random.State.int st 100 < 40 then Digraph.add_edge g i j
        done
      done;
      for v = 1 to n - 1 do
        if Digraph.pred g v = [] then Digraph.add_edge g 0 v
      done;
      let ok = ref true in
      for v = 1 to n - 1 do
        let doms =
          Dominator.dominators g ~root:0 v
          |> List.filter (fun d -> d <> 0 && d <> v)
          |> List.sort compare
        in
        let spofs =
          Menger.single_points_of_failure g ~root:0 ~sink:v v
          |> List.filter (fun d -> d <> 0 && d <> v)
          |> List.sort compare
        in
        if doms <> spofs then ok := false
      done;
      !ok)

(* Property: for random DAGs, Menger count from root to every vertex is at
   most its in-degree and at least 1 for reachable vertices. *)
let prop_menger_bounds =
  QCheck.Test.make ~name:"menger bounded by degree and reachability" ~count:60
    QCheck.(pair (int_range 3 14) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Digraph.create ~size_hint:(n + 2) () in
      Digraph.add_vertices g (n + 2);
      let root = 0 and sink = n + 1 in
      (* Random layered DAG: edge (i, j) only if i < j. *)
      for i = 0 to n do
        for j = i + 1 to n + 1 do
          if Random.State.int st 100 < 35 then Digraph.add_edge g i j
        done
      done;
      (* Ensure connectivity of interior vertices. *)
      for v = 1 to n do
        if Digraph.pred g v = [] then Digraph.add_edge g root v;
        if Digraph.succ g v = [] then Digraph.add_edge g v sink
      done;
      if Digraph.succ g root = [] then Digraph.add_edge g root sink;
      let ok = ref true in
      for v = 1 to n do
        let k = Menger.vertex_disjoint_paths g ~src:root ~dst:v in
        if k < 1 then ok := false;
        if k > Digraph.in_degree g v then ok := false;
        (* Menger duality: removing any single interior vertex leaves a
           path iff k >= 2. *)
        if k >= 2 then begin
          let spofs =
            Menger.single_points_of_failure g ~root ~sink:v v
            |> List.filter (fun u -> u <> v)
          in
          (* Only count spofs on the root side. *)
          let root_side =
            List.filter
              (fun u ->
                Bitset.mem (Order.reachable g ~from:root) u
                && Bitset.mem (Order.co_reachable g ~to_:v) u)
              spofs
          in
          if root_side <> [] then ok := false
        end
      done;
      !ok)

(* Property: the dominator two-path test equals Menger's count >= 2 on
   random DAGs, on the root side and (on the transpose) the sink side.
   Direct root -> v and v -> sink edges are drawn on purpose: they are
   the case where the dominator tree alone does not decide. *)
let prop_dominator_two_paths =
  QCheck.Test.make ~name:"dominator two paths = menger >= 2" ~count:100
    QCheck.(pair (int_range 3 14) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Digraph.create ~size_hint:n () in
      Digraph.add_vertices g n;
      let root = 0 and sink = n - 1 in
      let density = 10 + Random.State.int st 40 in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Random.State.int st 100 < density then Digraph.add_edge g i j
        done
      done;
      for v = 1 to n - 2 do
        if Random.State.bool st then Digraph.add_edge g root v;
        if Random.State.bool st then Digraph.add_edge g v sink
      done;
      let from_root = Dominator.idoms g ~root in
      let gt = Digraph.transpose g in
      let to_sink = Dominator.idoms gt ~root:sink in
      let ok = ref true in
      for v = 0 to n - 1 do
        if v <> root then
          if
            Dominator.two_paths g from_root ~root v
            <> (Menger.vertex_disjoint_paths g ~src:root ~dst:v >= 2)
          then ok := false;
        if v <> sink then
          if
            Dominator.two_paths gt to_sink ~root:sink v
            <> (Menger.vertex_disjoint_paths g ~src:v ~dst:sink >= 2)
          then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "succ/pred/sources/sinks" `Quick test_digraph_succ_pred;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "toposort respects edges" `Quick test_toposort;
    Alcotest.test_case "toposort detects cycles" `Quick test_toposort_cyclic;
    Alcotest.test_case "topological levels" `Quick test_levels;
    Alcotest.test_case "reachability" `Quick test_reachable;
    Alcotest.test_case "strongly connected components" `Quick test_scc;
    Alcotest.test_case "find cycle" `Quick test_find_cycle;
    Alcotest.test_case "menger: diamond" `Quick test_menger_diamond;
    Alcotest.test_case "menger: chain" `Quick test_menger_chain;
    Alcotest.test_case "menger: direct edge counts" `Quick test_menger_direct_edge;
    Alcotest.test_case "menger: bottleneck" `Quick test_menger_bottleneck;
    Alcotest.test_case "single points of failure" `Quick test_spof;
    Alcotest.test_case "two-connected predicate" `Quick test_two_connected;
    Alcotest.test_case "bitset operations" `Quick test_bitset;
    Alcotest.test_case "bitset andn / word boundaries" `Quick test_bitset_andn;
    Alcotest.test_case "lane vectors" `Quick test_lanes;
    Alcotest.test_case "dominators: diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "dominators: chain" `Quick test_dominators_chain;
    Alcotest.test_case "dominators: unreachable" `Quick
      test_dominators_unreachable;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Testseed.to_alcotest prop_spof_equals_dominators;
    Testseed.to_alcotest prop_menger_bounds;
    Testseed.to_alcotest prop_dominator_two_paths;
  ]
