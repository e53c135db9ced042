(* Quickstart: the worked example behind figs. 2, 4 and 5 of the paper.

   Builds a small RSN with segments A, B, C, D (A, B, D on the initial
   active path, C on a reconfigurable branch), extracts its dataflow graph,
   runs the connectivity augmentation (min-cost flow), synthesizes the
   fault-tolerant RSN and compares the fault-tolerance metric of the two.

   Run with: dune exec examples/quickstart.exe *)

module Netlist = Ftrsn_rsn.Netlist
module Builder = Ftrsn_rsn.Builder
module Config = Ftrsn_rsn.Config
module Digraph = Ftrsn_topo.Digraph
module Augment = Ftrsn_core.Augment
module Pipeline = Ftrsn_core.Pipeline
module Metric = Ftrsn_core.Metric
module Area = Ftrsn_core.Area

let vertex_name net v =
  if v = 0 then "PI" else if v = 1 then "PO" else Netlist.segment_name net (v - 2)

let () =
  (* 1. The RSN of fig. 2: scan-in -> A -> B -> {C | bypass} -> D ->
     scan-out, with mux m1 addressed from A's shadow register. *)
  let b = Builder.create "fig2" in
  let a =
    Builder.add_segment b ~shadow:2 ~name:"A" ~len:2 ~input:Netlist.Scan_in ()
  in
  let sb = Builder.add_segment b ~name:"B" ~len:3 ~input:(Netlist.Seg a) () in
  let c = Builder.add_segment b ~name:"C" ~len:4 ~input:(Netlist.Seg sb) () in
  let m1 =
    Builder.add_mux b ~name:"m1"
      ~inputs:[ Netlist.Seg sb; Netlist.Seg c ]
      ~addr:[ Netlist.Ctrl_shadow { cseg = a; cbit = 0 } ]
      ()
  in
  let d = Builder.add_segment b ~name:"D" ~len:2 ~input:(Netlist.Mux m1) () in
  ignore m1;
  let net = Builder.finish b ~out:(Netlist.Seg d) () in
  Format.printf "%a@.@." Netlist.pp_summary net;

  (* The initial active path (fig. 2: light blue). *)
  (match Config.active_path net (Config.reset net) with
  | Some path ->
      Printf.printf "initial active path: %s\n"
        (String.concat " -> " (List.map (Netlist.segment_name net) path))
  | None -> assert false);

  (* Reconfigure: include C. *)
  let cfg = Config.reset net in
  Config.set_shadow cfg ~seg:a ~bit:0 true;
  (match Config.active_path net cfg with
  | Some path ->
      Printf.printf "after writing A[0]=1:   %s\n\n"
        (String.concat " -> " (List.map (Netlist.segment_name net) path))
  | None -> assert false);

  (* 2. Dataflow graph (SIII-B) and connectivity requirements (SIII-C). *)
  let p = Augment.of_netlist net in
  Printf.printf "dataflow edges (levels in parentheses):\n";
  Digraph.iter_edges
    (fun u v ->
      Printf.printf "  %s(%d) -> %s(%d)\n" (vertex_name net u)
        p.Augment.levels.(u) (vertex_name net v) p.Augment.levels.(v))
    p.Augment.graph;
  let d_in, d_out = Augment.demands p in
  Printf.printf "\ndegree demands (new in-edges / out-edges per vertex):\n";
  for v = 0 to Digraph.vertex_count p.Augment.graph - 1 do
    if d_in.(v) > 0 || d_out.(v) > 0 then
      Printf.printf "  %-3s in+%d out+%d\n" (vertex_name net v) d_in.(v)
        d_out.(v)
  done;

  (* 3. The minimal augmenting edge set (fig. 4). *)
  let sol = Augment.solve p in
  Printf.printf "\nminimal augmenting edge set E_A \\ E (cost %d):\n"
    sol.Augment.cost;
  List.iter
    (fun (u, v) ->
      Printf.printf "  %s -> %s  (cost %d)\n" (vertex_name net u)
        (vertex_name net v)
        (Augment.edge_cost p (u, v)))
    sol.Augment.new_edges;
  (match Augment.verify p sol.Augment.new_edges with
  | Ok () -> Printf.printf "verified: two vertex-independent paths everywhere\n"
  | Error e -> Printf.printf "verification FAILED: %s\n" e);

  (* 4. Final synthesis (SIII-E) and evaluation. *)
  let r = Pipeline.synthesize net in
  Printf.printf "\nfault-tolerant RSN: %s\n"
    (Format.asprintf "%a" Netlist.pp_summary r.Pipeline.ft);
  Printf.printf "  inserted muxes: %d, port muxes: %d, control bits: %d\n"
    r.Pipeline.syn_stats.Ftrsn_core.Synthesis.added_muxes
    r.Pipeline.syn_stats.Ftrsn_core.Synthesis.port_muxes
    r.Pipeline.syn_stats.Ftrsn_core.Synthesis.added_ctrl_bits;
  Printf.printf "  area ratios: %s\n"
    (Format.asprintf "%a" Area.pp_ratios r.Pipeline.area_ratios);

  let mo = Metric.evaluate net and mf = Metric.evaluate r.Pipeline.ft in
  Printf.printf "\nfault tolerance metric (SIII-A):\n";
  Printf.printf "  original:       %s\n" (Format.asprintf "%a" Metric.pp mo);
  Printf.printf "  fault-tolerant: %s\n" (Format.asprintf "%a" Metric.pp mf)
