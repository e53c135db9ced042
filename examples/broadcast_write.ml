(* Merged multi-target access: programming many instruments at once.

   In-field calibration often writes dozens of instrument registers.
   Accessing them one by one re-pays the configuration overhead per
   target; merging compatible targets into shared CSU schedules (in the
   spirit of scan pattern merging, Baranowski et al., ETS'13) amortizes
   it.  This example programs every instrument of an ITC'02 SoC both ways
   and reports the cycle savings, then proves the merged schedule on the
   cycle-accurate simulator.

   Run with: dune exec examples/broadcast_write.exe [-- SoC] *)

module Itc02 = Ftrsn_itc02.Itc02
module Netlist = Ftrsn_rsn.Netlist
module Sim = Ftrsn_rsn.Sim
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "x1331" in
  let soc =
    match Itc02.find name with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown SoC %s\n" name;
        exit 1
  in
  let net = Itc02.rsn soc in
  Format.printf "%a@.@." Netlist.pp_summary net;

  (* Targets: every instrument segment (shadow-less leaves). *)
  let targets =
    List.filter
      (fun s -> net.Netlist.segs.(s).Netlist.seg_shadow = 0)
      (List.init (Netlist.num_segments net) Fun.id)
  in
  Printf.printf "programming %d instrument registers\n" (List.length targets);

  let ctx = Engine.make_ctx net in
  match Retarget.plan_write_merged ctx ~targets () with
  | None -> print_endline "merged planning failed (unexpected)"
  | Some mp ->
      Printf.printf "merged schedule: %d group(s), %d cycles\n"
        (List.length mp.Retarget.groups)
        mp.Retarget.merged_cycles;
      Printf.printf "sequential accesses: %d cycles\n"
        mp.Retarget.sequential_cycles;
      Printf.printf "saving: %.1f%%\n\n"
        (100.
        *. (1.
           -. float_of_int mp.Retarget.merged_cycles
              /. float_of_int mp.Retarget.sequential_cycles));
      (* Prove the first group on the simulator. *)
      let plan, ts = List.hd mp.Retarget.groups in
      let patterns =
        List.map
          (fun t ->
            (t, List.init (Netlist.seg_len net t) (fun i -> (i + t) mod 2 = 0)))
          ts
      in
      (match Retarget.execute net plan ~patterns with
      | Error e -> Printf.printf "simulation failed: %s\n" e
      | Ok state ->
          let ok =
            List.for_all
              (fun (t, bits) ->
                List.mapi (fun j v -> state.Sim.shift.(t).(j) = v) bits
                |> List.for_all Fun.id)
              patterns
          in
          Printf.printf
            "simulator check of group 1 (%d targets, one access CSU): %s\n"
            (List.length ts)
            (if ok then "ALL PATTERNS MATCH" else "MISMATCH"))
