type t = {
  segments : int;
  muxes : int;
  scan_bits : int;
  shadow_bits : int;
  control_bits : int;
  primary_controls : int;
  levels : int;
  min_seg_len : int;
  max_seg_len : int;
  mean_seg_len : float;
  reset_path_segments : int;
  reset_path_bits : int;
  full_path_bits : int;
}

let compute (net : Netlist.t) =
  let segments = Netlist.num_segments net in
  let scan_bits = Netlist.total_bits net in
  let shadow_bits =
    Array.fold_left (fun acc s -> acc + s.Netlist.seg_shadow) 0 net.segs
  in
  let controls = Hashtbl.create 32 in
  let primaries = Hashtbl.create 8 in
  Array.iter
    (fun (m : Netlist.mux) ->
      Array.iter
        (function
          | Netlist.Ctrl_shadow { cseg; cbit } ->
              Hashtbl.replace controls (cseg, cbit) ()
          | Netlist.Ctrl_primary p -> Hashtbl.replace primaries p ()
          | Netlist.Ctrl_const _ -> ())
        m.mux_addr)
    net.muxes;
  let lens = Array.map (fun s -> s.Netlist.seg_len) net.segs in
  let min_seg_len = Array.fold_left min max_int lens in
  let max_seg_len = Array.fold_left max 0 lens in
  let reset_path_segments, reset_path_bits =
    match Config.active_path net (Config.reset net) with
    | Some p -> (List.length p, Config.path_length net p)
    | None -> (0, 0)
  in
  (* Steer every mux to its last sensitizable selection: in SIB-style
     networks this splices every hosted chain in, giving the longest
     access path. *)
  let full_cfg = Config.reset net in
  Array.iteri
    (fun m (mx : Netlist.mux) ->
      let want = Array.length mx.mux_inputs - 1 in
      Array.iteri
        (fun b ctrl ->
          let v = want land (1 lsl b) <> 0 in
          match ctrl with
          | Netlist.Ctrl_shadow { cseg; cbit } ->
              Config.set_shadow full_cfg ~seg:cseg ~bit:cbit v
          | Netlist.Ctrl_const _ | Netlist.Ctrl_primary _ -> ())
        mx.mux_addr;
      ignore m)
    net.muxes;
  let full_path_bits =
    match Config.active_path net full_cfg with
    | Some p -> Config.path_length net p
    | None -> 0
  in
  {
    segments;
    muxes = Netlist.num_muxes net;
    scan_bits;
    shadow_bits;
    control_bits = Hashtbl.length controls;
    primary_controls = Hashtbl.length primaries;
    levels = Netlist.max_hier net;
    min_seg_len;
    max_seg_len;
    mean_seg_len = float_of_int scan_bits /. float_of_int (max 1 segments);
    reset_path_segments;
    reset_path_bits;
    full_path_bits;
  }
