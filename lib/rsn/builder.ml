type b = {
  name : string;
  mutable segs_rev : Netlist.segment list;
  mutable nsegs : int;
  mutable muxes_rev : Netlist.mux list;
  mutable nmuxes : int;
}

let create name =
  { name; segs_rev = []; nsegs = 0; muxes_rev = []; nmuxes = 0 }

let add_segment b ?(shadow = 0) ?reset ?(hier = 1) ~name ~len ~input () =
  let reset =
    match reset with Some r -> Array.copy r | None -> Array.make shadow false
  in
  if Array.length reset <> shadow then
    invalid_arg "Builder.add_segment: reset length mismatch";
  let seg =
    {
      Netlist.seg_name = name;
      seg_len = len;
      seg_shadow = shadow;
      seg_input = input;
      seg_reset = reset;
      seg_hier = hier;
    }
  in
  b.segs_rev <- seg :: b.segs_rev;
  b.nsegs <- b.nsegs + 1;
  b.nsegs - 1

let add_mux b ?(tmr = false) ?rescue_from ~name ~inputs ~addr () =
  let mux =
    {
      Netlist.mux_name = name;
      mux_inputs = Array.of_list inputs;
      mux_addr = Array.of_list addr;
      mux_tmr = tmr;
      mux_rescue_from =
        Option.value ~default:(List.length inputs) rescue_from;
    }
  in
  b.muxes_rev <- mux :: b.muxes_rev;
  b.nmuxes <- b.nmuxes + 1;
  b.nmuxes - 1

let seg_count b = b.nsegs

let finish b ?(select_hardened = false) ?(dual_ports = false) ~out () =
  let net =
    {
      Netlist.net_name = b.name;
      segs = Array.of_list (List.rev b.segs_rev);
      muxes = Array.of_list (List.rev b.muxes_rev);
      out_src = out;
      select_hardened;
      dual_ports;
    }
  in
  match Netlist.validate net with
  | Ok () -> net
  | Error msg -> invalid_arg ("Builder.finish: invalid netlist: " ^ msg)
