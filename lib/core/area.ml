module Netlist = Ftrsn_rsn.Netlist

type report = {
  muxes : int;
  bits : int;
  nets : int;
  area : float;
}

type technology = {
  ge_scan_ff : float;
  ge_plain_ff : float;
  ge_mux2 : float;
  ge_voter : float;
  ge_select_plain : float;
  ge_select_hardened : float;
}

let default_technology =
  {
    ge_scan_ff = 5.0;
    ge_plain_ff = 4.0;
    ge_mux2 = 2.0;
    ge_voter = 1.5;
    ge_select_plain = 1.5;
    ge_select_hardened = 4.0;
  }

let compact_technology =
  {
    ge_scan_ff = 4.0;
    ge_plain_ff = 3.0;
    ge_mux2 = 1.5;
    ge_voter = 1.0;
    ge_select_plain = 1.0;
    ge_select_hardened = 2.5;
  }

let of_netlist ?(technology = default_technology) ?(port_muxes = 0)
    (net : Netlist.t) =
  let { ge_scan_ff; ge_plain_ff; ge_mux2; ge_voter; ge_select_plain;
        ge_select_hardened } =
    technology
  in
  let shift_ffs = Netlist.total_bits net in
  let shadow_ffs =
    Array.fold_left (fun acc s -> acc + s.Netlist.seg_shadow) 0 net.segs
  in
  (* TMR'd address bits: two replica flip-flops and a voter each. *)
  let tmr_bits = ref 0 in
  let addr_nets = ref 0 in
  let mux_ge = ref 0.0 in
  Array.iter
    (fun (m : Netlist.mux) ->
      mux_ge :=
        !mux_ge +. (ge_mux2 *. float_of_int (Array.length m.mux_inputs - 1));
      Array.iter
        (fun ctrl ->
          match ctrl with
          | Netlist.Ctrl_const _ -> ()
          | Netlist.Ctrl_shadow _ | Netlist.Ctrl_primary _ ->
              incr addr_nets;
              if m.mux_tmr then incr tmr_bits)
        m.mux_addr)
    net.muxes;
  (* Port-switch muxes are 2:1 with one TMR'd primary-controlled address. *)
  tmr_bits := !tmr_bits + port_muxes;
  addr_nets := !addr_nets + port_muxes;
  mux_ge := !mux_ge +. (ge_mux2 *. float_of_int port_muxes);
  let replica_ffs = 2 * !tmr_bits in
  let voters = !tmr_bits in
  let nsegs = Netlist.num_segments net in
  let nmux = Netlist.num_muxes net + port_muxes in
  let select_nets = nsegs * if net.select_hardened then 2 else 1 in
  let select_ge =
    float_of_int nsegs
    *. (if net.select_hardened then ge_select_hardened else ge_select_plain)
  in
  let bits = shift_ffs + shadow_ffs + replica_ffs in
  let nets = bits + nmux + !addr_nets + voters + select_nets in
  let area =
    (float_of_int shift_ffs *. ge_scan_ff)
    +. (float_of_int (shadow_ffs + replica_ffs) *. ge_plain_ff)
    +. (float_of_int voters *. ge_voter)
    +. !mux_ge +. select_ge
  in
  { muxes = nmux; bits; nets; area }

type ratios = {
  r_mux : float;
  r_bits : float;
  r_nets : float;
  r_area : float;
}

let ratios ~orig ~ft =
  {
    r_mux = float_of_int ft.muxes /. float_of_int orig.muxes;
    r_bits = float_of_int ft.bits /. float_of_int orig.bits;
    r_nets = float_of_int ft.nets /. float_of_int orig.nets;
    r_area = ft.area /. orig.area;
  }

let pp_ratios fmt r =
  Format.fprintf fmt "mux %.2f, bits %.2f, nets %.2f, area %.2f" r.r_mux
    r.r_bits r.r_nets r.r_area
