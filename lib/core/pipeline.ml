module Netlist = Ftrsn_rsn.Netlist
module Config = Ftrsn_rsn.Config

type result = {
  original : Netlist.t;
  ft : Netlist.t;
  augmentation : Augment.solution;
  syn_stats : Synthesis.stats;
  orig_area : Area.report;
  ft_area : Area.report;
  area_ratios : Area.ratios;
}

let synthesize ?options net =
  let problem = Augment.of_netlist net in
  let augmentation = Augment.solve problem in
  (match Augment.verify problem augmentation.Augment.new_edges with
  | Ok () -> ()
  | Error e -> failwith ("Pipeline.synthesize: augmentation unsound: " ^ e));
  let ft, syn_stats =
    Synthesis.run ?options net ~new_edges:augmentation.Augment.new_edges
  in
  (* All original scan paths must remain configurable: in the reset state
     the fault-tolerant RSN exposes exactly the original reset path. *)
  (match
     ( Config.active_path net (Config.reset net),
       Config.active_path ft (Config.reset ft) )
   with
  | Some p0, Some p1 when p0 = p1 -> ()
  | _ -> failwith "Pipeline.synthesize: reset path not preserved");
  let orig_area = Area.of_netlist net in
  let ft_area = Area.of_netlist ~port_muxes:syn_stats.Synthesis.port_muxes ft in
  {
    original = net;
    ft;
    augmentation;
    syn_stats;
    orig_area;
    ft_area;
    area_ratios = Area.ratios ~orig:orig_area ~ft:ft_area;
  }
