(* Using the library on your own network: parse an RSN from the flat text
   format, harden it, verify it with the BMC engine, and emit the
   fault-tolerant netlist back as text.

   Run with: dune exec examples/custom_network.exe *)

module Netlist = Ftrsn_rsn.Netlist
module Text = Ftrsn_rsn.Text
module Bmc = Ftrsn_bmc.Bmc
module Fault = Ftrsn_fault.Fault
module Pipeline = Ftrsn_core.Pipeline

let source = {|
# A tiny instrument network: a status register, then a SIB-gated
# configuration block with two registers.
rsn custom
seg status len=8 shadow=0 reset=- hier=1 input=pi
seg cfg_sib len=1 shadow=1 reset=0 hier=1 input=seg:status
seg cfg_lo len=6 shadow=0 reset=- hier=2 input=seg:cfg_sib
seg cfg_hi len=6 shadow=0 reset=- hier=2 input=seg:cfg_lo
mux cfg_mux inputs=seg:cfg_sib,seg:cfg_hi addr=shadow:cfg_sib.0
out mux:cfg_mux
|}

let () =
  let net =
    match Text.parse source with
    | Ok n -> n
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 1
  in
  Format.printf "parsed: %a@.@." Netlist.pp_summary net;

  let r = Pipeline.synthesize net in
  let ft = r.Pipeline.ft in

  (* Verify with the formal (BMC) engine: every segment must stay
     accessible under a representative fault at the SIB register. *)
  let sess = Bmc.Session.create (Bmc.create ft) in
  let fault = { Fault.site = Fault.Seg_shadow_reg (1, 0); stuck = false } in
  Printf.printf "access under %s (BMC over the paper's formal model):\n"
    (Fault.to_string ft fault);
  for s = 0 to Netlist.num_segments ft - 1 do
    let verdict =
      match Bmc.Session.check_access sess ~fault ~target:s () with
      | Bmc.Accessible n -> Printf.sprintf "accessible in %d CSU steps" n
      | Bmc.Inaccessible -> "INACCESSIBLE"
    in
    Printf.printf "  %-8s %s\n" (Netlist.segment_name ft s) verdict
  done;

  Printf.printf "\nfault-tolerant netlist:\n%s" (Text.to_string ft);

  (* Export a tester program (SVF-flavoured) for writing the cfg_hi
     register through the hardened network. *)
  let ctx = Ftrsn_access.Engine.make_ctx ft in
  let target = 3 (* cfg_hi *) in
  match Ftrsn_access.Retarget.plan_write ctx ~target () with
  | None -> print_endline "no plan (unexpected)"
  | Some plan -> (
      let pattern =
        List.init (Netlist.seg_len ft target) (fun i -> i mod 2 = 1)
      in
      match Ftrsn_access.Vectors.of_plan ft plan ~pattern with
      | Error e -> print_endline ("vector export failed: " ^ e)
      | Ok svf -> Printf.printf "\ntester vectors:\n%s" svf)
