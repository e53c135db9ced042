(* Post-silicon debug with a faulty scan network — the scenario motivating
   the paper's introduction.

   A health-monitor SoC has three modules of instruments behind a SIB-based
   RSN.  A manufacturing defect leaves one module's SIB register stuck.
   In the original network the whole module is unreachable; in the
   fault-tolerant network the synthesis' redundant routing restores access
   to every instrument except the faulty register itself.  The example
   computes an access plan around the fault and executes it on the
   cycle-accurate simulator to prove that the pattern really lands.

   Run with: dune exec examples/debug_under_fault.exe *)

module Netlist = Ftrsn_rsn.Netlist
module Sib = Ftrsn_rsn.Sib
module Sim = Ftrsn_rsn.Sim
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget
module Pipeline = Ftrsn_core.Pipeline

let seg_id net name =
  let found = ref (-1) in
  for i = 0 to Netlist.num_segments net - 1 do
    if Netlist.segment_name net i = name then found := i
  done;
  assert (!found >= 0);
  !found

let show_accessibility title net fault =
  let ctx = Engine.make_ctx net in
  let v = Engine.analyze ctx (Some fault) in
  let dead =
    List.filter_map
      (fun s -> if v.Engine.accessible.(s) then None else Some (Netlist.segment_name net s))
      (List.init (Netlist.num_segments net) Fun.id)
  in
  Printf.printf "%s: %d/%d instruments accessible%s\n" title
    (Engine.accessible_count v)
    (Netlist.num_segments net)
    (if dead = [] then "" else " (lost: " ^ String.concat ", " dead ^ ")")

let () =
  (* Three monitoring domains: thermal sensors, voltage droop detectors and
     a trace buffer with its own sub-hierarchy. *)
  let net =
    Sib.build ~name:"monitor_soc"
      [
        Sib
          {
            name = "thermal";
            inner =
              [
                Sib.leaf ~name:"tsense0" ~len:12;
                Sib.leaf ~name:"tsense1" ~len:12;
                Sib.leaf ~name:"tcal" ~len:8;
              ];
          };
        Sib
          {
            name = "vdroop";
            inner =
              [ Sib.leaf ~name:"vmon0" ~len:10; Sib.leaf ~name:"vmon1" ~len:10 ];
          };
        Sib
          {
            name = "trace";
            inner =
              [
                Sib
                  {
                    name = "trace_cfg";
                    inner =
                      [
                        Sib.leaf ~name:"trig" ~len:16;
                        Sib.leaf ~name:"mask" ~len:16;
                      ];
                  };
                Sib.leaf ~name:"tbuf" ~len:64;
              ];
          };
      ]
  in
  Format.printf "%a@.@." Netlist.pp_summary net;

  (* The defect: the thermal module's SIB register is stuck at 0 — the
     module can never be opened. *)
  let fault =
    { Fault.site = Fault.Seg_shadow_reg (seg_id net "thermal", 0); stuck = false }
  in
  Printf.printf "defect: %s\n\n" (Fault.to_string net fault);

  (* Step 0: locate the defect.  Apply the diagnostic stimulus to the
     (simulated) faulty device and compare signatures against every
     candidate fault. *)
  let observed =
    Ftrsn_access.Diagnose.apply net ~fault (Ftrsn_access.Diagnose.stimulus net)
  in
  let candidates = Ftrsn_access.Diagnose.diagnose net ~observed in
  Printf.printf "diagnosis from scan-out signatures: %d candidate fault(s)\n"
    (List.length candidates);
  List.iter
    (fun f -> Printf.printf "  candidate: %s\n" (Fault.to_string net f))
    candidates;
  Printf.printf "  injected defect among candidates: %b\n\n"
    (List.mem fault candidates);

  show_accessibility "original RSN " net fault;

  let r = Pipeline.synthesize net in
  let ft = r.Pipeline.ft in
  show_accessibility "fault-tolerant" ft fault;

  (* Debug task: read/write the thermal calibration register despite the
     defect.  Plan an access in the FT network and execute it. *)
  let target = seg_id ft "tcal" in
  let ctx = Engine.make_ctx ft in
  (match Retarget.plan_write ctx ~fault ~target () with
  | None -> Printf.printf "\nno plan found (unexpected)\n"
  | Some plan ->
      Printf.printf "\naccess plan for tcal around the defect:\n";
      List.iteri
        (fun i step ->
          Printf.printf "  CSU %d: configure via path [%s], writes %s\n" i
            (String.concat "; "
               (List.map (Netlist.segment_name ft) step.Retarget.path))
            (String.concat ", "
               (List.map
                  (fun (s, b, v) ->
                    Printf.sprintf "%s[%d]:=%b" (Netlist.segment_name ft s) b v)
                  step.Retarget.writes)))
        plan.Retarget.steps;
      Printf.printf "  CSU %d: access via path [%s] (%d cycles total)\n"
        (List.length plan.Retarget.steps)
        (String.concat "; "
           (List.map (Netlist.segment_name ft) plan.Retarget.access_path))
        plan.Retarget.cycles;
      let pattern = List.init (Netlist.seg_len ft target) (fun i -> i mod 3 = 0) in
      (match
         Retarget.execute ft ~fault plan ~patterns:[ (target, pattern) ]
       with
      | Error e -> Printf.printf "  simulator execution FAILED: %s\n" e
      | Ok state ->
          let got = Array.to_list state.Sim.shift.(target) in
          Printf.printf "  simulator: pattern %s => register holds %s (%s)\n"
            (String.concat ""
               (List.map (fun b -> if b then "1" else "0") pattern))
            (String.concat ""
               (List.map (fun b -> if b then "1" else "0") got))
            (if got = pattern then "MATCH" else "MISMATCH")));
      (* And read the sensor back out: capture the instrument data and
         shift it to the (secondary) scan-out around the defect. *)
      (match Retarget.plan_read ctx ~fault ~target () with
      | None -> Printf.printf "  no read plan (unexpected)\n"
      | Some rplan -> (
          let instrument =
            List.init (Netlist.seg_len ft target) (fun i -> i mod 2 = 0)
          in
          match Retarget.execute_read ft ~fault rplan ~instrument with
          | Error e -> Printf.printf "  read-back FAILED: %s\n" e
          | Ok bits ->
              Printf.printf "  read-back: captured %s, observed %s (%s)\n"
                (String.concat ""
                   (List.map (fun b -> if b then "1" else "0") instrument))
                (String.concat ""
                   (List.map (fun b -> if b then "1" else "0") bits))
                (if bits = instrument then "MATCH" else "MISMATCH")))
