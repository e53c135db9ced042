(* Tests for the accessibility engine and pattern retargeting: fault-free
   behaviour, per-fault-class expectations on a small SIB network, and an
   end-to-end cross-validation of engine verdicts against the CSU
   simulator. *)

module Netlist = Ftrsn_rsn.Netlist
module Config = Ftrsn_rsn.Config
module Sib = Ftrsn_rsn.Sib
module Sim = Ftrsn_rsn.Sim
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let small_sib () =
  Sib.build ~name:"small"
    [
      Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]

let seg_id net name =
  let found = ref (-1) in
  for i = 0 to Netlist.num_segments net - 1 do
    if Netlist.segment_name net i = name then found := i
  done;
  if !found < 0 then Alcotest.fail ("no segment named " ^ name);
  !found

let test_fault_free_all_accessible () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let v = Engine.analyze ctx None in
  check int_t "all segments accessible" (Netlist.num_segments net)
    (Engine.accessible_count v);
  check int_t "all bits accessible" (Netlist.total_bits net)
    (Engine.accessible_bits ctx v)

let test_fault_universe_size () =
  let net = small_sib () in
  let faults = Fault.universe net in
  (* Every site appears with both polarities. *)
  check bool_t "even count" true (List.length faults mod 2 = 0);
  check bool_t "non-trivial universe" true (List.length faults > 50)

let test_pi_stuck_kills_everything () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Primary_in; stuck = true })
  in
  check int_t "nothing writable" 0 (Engine.accessible_count v)

let test_po_stuck_kills_everything () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Primary_out; stuck = false })
  in
  check int_t "nothing readable" 0 (Engine.accessible_count v)

let test_module_sib_shadow_stuck_closed () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shadow_reg (mod1, 0); stuck = false })
  in
  (* mod1 cannot open: its subtree (c1.sib, c1, c2.sib, c2) is gone and
     mod1 itself loses its write interface; mod2's subtree unaffected. *)
  check bool_t "c1 inaccessible" false (v.Engine.accessible.(seg_id net "c1"));
  check bool_t "c2.sib inaccessible" false
    (v.Engine.accessible.(seg_id net "c2.sib"));
  check bool_t "mod1 write lost" false (v.Engine.writable.(mod1));
  check bool_t "c3 still accessible" true
    (v.Engine.accessible.(seg_id net "c3"));
  check bool_t "mod2 still accessible" true
    (v.Engine.accessible.(seg_id net "mod2"))

let test_module_sib_shadow_stuck_open () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shadow_reg (mod1, 0); stuck = true })
  in
  (* Forced open: everything except mod1's own write interface works. *)
  check bool_t "c1 accessible" true (v.Engine.accessible.(seg_id net "c1"));
  check bool_t "c3 accessible" true (v.Engine.accessible.(seg_id net "c3"));
  check bool_t "mod1 write lost" false (v.Engine.writable.(mod1))

let test_trunk_select_stuck0 () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod2 = seg_id net "mod2" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_select mod2; stuck = false })
  in
  (* mod2 is on the only trunk: nothing shifts through it. *)
  check int_t "complete outage" 0 (Engine.accessible_count v)

let test_leaf_select_stuck0 () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Seg_select c1; stuck = false })
  in
  (* Only c1 is lost: its SIB stays closed, everything else works. *)
  check bool_t "c1 lost" false (v.Engine.accessible.(c1));
  check int_t "everything else fine" (Netlist.num_segments net - 1)
    (Engine.accessible_count v)

let test_select_stuck1_benign () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx (Some { Fault.site = Fault.Seg_select mod1; stuck = true })
  in
  check int_t "stuck-1 select is recoverable" (Netlist.num_segments net)
    (Engine.accessible_count v)

let test_mux_addr_stuck_closed () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  (* mux 0 is mod1's bypass mux (built right after mod1's subtree). *)
  let mod1 = seg_id net "mod1" in
  let the_mux =
    match Netlist.mux_on_edge net ~src:(2 + mod1) ~dst:(2 + seg_id net "mod2") with
    | Some m -> m
    | None -> Alcotest.fail "expected a mux on the bypass edge"
  in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Mux_addr (the_mux, 0); stuck = false })
  in
  (* Locked to bypass: mod1's subtree gone; mod1 itself still read/write. *)
  check bool_t "c1 lost" false (v.Engine.accessible.(seg_id net "c1"));
  check bool_t "mod1 keeps access" true (v.Engine.accessible.(mod1));
  check bool_t "mod2 side fine" true (v.Engine.accessible.(seg_id net "c3"))

let test_shift_reg_fault_on_leaf () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c2 = seg_id net "c2" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shift_reg c2; stuck = true })
  in
  check bool_t "c2 lost" false (v.Engine.accessible.(c2));
  check int_t "only c2 lost" (Netlist.num_segments net - 1)
    (Engine.accessible_count v)

let test_shift_reg_fault_on_trunk () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let mod1 = seg_id net "mod1" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_shift_reg mod1; stuck = true })
  in
  (* The trunk passes through mod1's register: every path is corrupted. *)
  check int_t "complete outage" 0 (Engine.accessible_count v)

let test_capture_en_kills_read_only () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c3 = seg_id net "c3" in
  let v =
    Engine.analyze ctx
      (Some { Fault.site = Fault.Seg_capture_en c3; stuck = false })
  in
  check bool_t "write still fine" true v.Engine.writable.(c3);
  check bool_t "read lost" false v.Engine.readable.(c3);
  check bool_t "not accessible" false v.Engine.accessible.(c3)

let test_plan_write_fault_free () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  match Retarget.plan_write ctx ~target:c1 () with
  | None -> Alcotest.fail "plan must exist"
  | Some plan ->
      (* SIB depth 2: two configuration CSUs then the access CSU. *)
      check int_t "csu steps" 2 (List.length plan.Retarget.steps);
      check bool_t "target on final path" true
        (List.mem c1 plan.Retarget.access_path);
      (* Latency: reset path (2 bits) + mod1 open (4 bits) + full (7 bits),
         plus 2 cycles per CSU. *)
      check int_t "latency" (2 + 2 + (2 + 4) + (2 + 7)) plan.Retarget.cycles

let test_plan_execute_fault_free () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c3 = seg_id net "c3" in
  match Retarget.plan_write ctx ~target:c3 () with
  | None -> Alcotest.fail "plan must exist"
  | Some plan -> (
      let pattern = [ true; false; true; true ] in
      match Retarget.execute net plan ~patterns:[ (c3, pattern) ] with
      | Error e -> Alcotest.fail e
      | Ok state ->
          List.iteri
            (fun j v ->
              check bool_t
                (Printf.sprintf "pattern bit %d written" j)
                v
                state.Sim.shift.(c3).(j))
            pattern)

let test_plan_respects_fault () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  (* c2's shift register is stuck: c1 must still be writable (it sits
     before c2's SIB on the module chain or can bypass c2). *)
  let fault = { Fault.site = Fault.Seg_shift_reg (seg_id net "c2"); stuck = true } in
  match Retarget.plan_write ctx ~fault ~target:c1 () with
  | None -> Alcotest.fail "plan must exist under this fault"
  | Some plan -> (
      let pattern = [ true; true; false ] in
      match Retarget.execute net ~fault plan ~patterns:[ (c1, pattern) ] with
      | Error e -> Alcotest.fail e
      | Ok state ->
          List.iteri
            (fun j v -> check bool_t "bit ok" v state.Sim.shift.(c1).(j))
            pattern)

(* End-to-end cross-validation: for every fault in the universe of the
   network and every segment the engine deems writable, plan and execute a
   write through the simulator with the fault injected, then check the
   pattern landed.  This ties the structural engine to the cycle-accurate
   semantics. *)
let engine_vs_simulator_on net =
  let ctx = Engine.make_ctx net in
  let faults = Fault.universe net in
  let tried = ref 0 in
  List.iter
    (fun fault ->
      let v = Engine.analyze ctx (Some fault) in
      for s = 0 to Netlist.num_segments net - 1 do
        if v.Engine.writable.(s) then begin
          match Retarget.plan_write ctx ~fault ~target:s () with
          | None ->
              Alcotest.fail
                (Printf.sprintf "writable %s but no plan under %s"
                   (Netlist.segment_name net s)
                   (Fault.to_string net fault))
          | Some plan -> (
              incr tried;
              let len = Netlist.seg_len net s in
              let pattern = List.init len (fun i -> i mod 2 = 0) in
              match
                Retarget.execute net ~fault plan ~patterns:[ (s, pattern) ]
              with
              | Error e ->
                  Alcotest.fail
                    (Printf.sprintf "execution failed for %s under %s: %s"
                       (Netlist.segment_name net s)
                       (Fault.to_string net fault)
                       e)
              | Ok state ->
                  List.iteri
                    (fun j expected ->
                      if state.Sim.shift.(s).(j) <> expected then
                        Alcotest.fail
                          (Printf.sprintf
                             "pattern mismatch at %s[%d] under %s"
                             (Netlist.segment_name net s)
                             j
                             (Fault.to_string net fault)))
                    pattern)
        end
      done)
    faults;
  check bool_t "exercised many write plans" true (!tried > 100)

(* Same cross-validation for READ access: every engine-readable segment
   must yield a read plan whose simulator execution returns the planted
   instrument data. *)
let engine_vs_simulator_read_on net =
  let ctx = Engine.make_ctx net in
  let faults = Fault.universe net in
  let tried = ref 0 in
  List.iter
    (fun fault ->
      let v = Engine.analyze ctx (Some fault) in
      for s = 0 to Netlist.num_segments net - 1 do
        if v.Engine.readable.(s) then begin
          match Retarget.plan_read ctx ~fault ~target:s () with
          | None ->
              Alcotest.fail
                (Printf.sprintf "readable %s but no read plan under %s"
                   (Netlist.segment_name net s)
                   (Fault.to_string net fault))
          | Some plan -> (
              incr tried;
              let len = Netlist.seg_len net s in
              let instrument = List.init len (fun i -> i mod 3 <> 1) in
              match Retarget.execute_read net ~fault plan ~instrument with
              | Error e ->
                  Alcotest.fail
                    (Printf.sprintf "read failed for %s under %s: %s"
                       (Netlist.segment_name net s)
                       (Fault.to_string net fault)
                       e)
              | Ok bits ->
                  if bits <> instrument then
                    Alcotest.fail
                      (Printf.sprintf "read mismatch at %s under %s"
                         (Netlist.segment_name net s)
                         (Fault.to_string net fault)))
        end
      done)
    faults;
  check bool_t "exercised many read plans" true (!tried > 100)

let test_engine_vs_simulator () = engine_vs_simulator_on (small_sib ())

let test_engine_vs_simulator_ft () =
  let r = Ftrsn_core.Pipeline.synthesize (small_sib ()) in
  engine_vs_simulator_on r.Ftrsn_core.Pipeline.ft

let test_engine_vs_simulator_read () =
  engine_vs_simulator_read_on (small_sib ())

let test_engine_vs_simulator_read_ft () =
  let r = Ftrsn_core.Pipeline.synthesize (small_sib ()) in
  engine_vs_simulator_read_on r.Ftrsn_core.Pipeline.ft

(* --- diagnosis --- *)

module Diagnose = Ftrsn_access.Diagnose

let test_diagnose_localizes () =
  (* For a sample of injected faults, the diagnosis candidates include the
     injected fault, and every candidate is behaviourally equivalent. *)
  let net = small_sib () in
  let universe = Fault.universe net in
  let sample = List.filteri (fun i _ -> i mod 7 = 0) universe in
  List.iter
    (fun f ->
      let observed = Diagnose.apply net ~fault:f (Diagnose.stimulus net) in
      let candidates = Diagnose.diagnose net ~observed in
      if not (List.mem f candidates) then
        Alcotest.fail
          ("injected fault not among candidates: " ^ Fault.to_string net f))
    sample

let test_diagnose_healthy () =
  (* A healthy observation matches the fault-free signature; any faults it
     also matches are behaviourally benign (metric-accessible). *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let healthy = Diagnose.healthy net in
  let candidates = Diagnose.diagnose net ~observed:healthy in
  List.iter
    (fun f ->
      let v = Engine.analyze ctx (Some f) in
      check int_t
        ("healthy-matching fault is benign: " ^ Fault.to_string net f)
        (Netlist.num_segments net)
        (Engine.accessible_count v))
    candidates

let test_diagnose_resolution () =
  let net = small_sib () in
  let classes = Diagnose.distinguishable_classes net in
  (* The stimulus distinguishes a significant share of the universe. *)
  check bool_t "non-trivial resolution" true (classes > 20)

let test_diagnose_trunk_break_differs () =
  (* A catastrophic trunk fault produces a signature different from a
     leaf-only fault. *)
  let net = small_sib () in
  let stim = Diagnose.stimulus net in
  let trunk =
    Diagnose.apply net
      ~fault:{ Fault.site = Fault.Seg_shift_reg 0; stuck = true }
      stim
  in
  let leaf =
    Diagnose.apply net
      ~fault:{ Fault.site = Fault.Seg_scan_in 2; stuck = true }
      stim
  in
  check bool_t "signatures differ" true (trunk <> leaf)

(* --- multi-fault analysis --- *)

let test_multi_fault_monotone () =
  (* Adding a second fault can only shrink the accessible set. *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let universe = Array.of_list (Fault.universe net) in
  let n = Array.length universe in
  for i = 0 to min 40 (n - 1) do
    let f1 = universe.(i) and f2 = universe.((i * 7) mod n) in
    let v1 = Engine.analyze ctx (Some f1) in
    let v12 = Engine.analyze_multi ctx [ f1; f2 ] in
    for s = 0 to Netlist.num_segments net - 1 do
      if v12.Engine.accessible.(s) && not v1.Engine.accessible.(s) then
        Alcotest.fail
          (Printf.sprintf "pair (%s, %s) resurrects %s"
             (Fault.to_string net f1) (Fault.to_string net f2)
             (Netlist.segment_name net s))
    done
  done

let test_multi_fault_singleton_equals_single () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  List.iter
    (fun f ->
      let a = Engine.analyze ctx (Some f) in
      let b = Engine.analyze_multi ctx [ f ] in
      check bool_t "singleton = single" true
        (a.Engine.accessible = b.Engine.accessible))
    (Fault.universe net)

let test_double_fault_ft_degrades_gracefully () =
  let net = small_sib () in
  let r = Ftrsn_core.Pipeline.synthesize net in
  let mo = Ftrsn_core.Metric.evaluate_pairs ~sample:5 net in
  let mf = Ftrsn_core.Metric.evaluate_pairs ~sample:5 r.Ftrsn_core.Pipeline.ft in
  check bool_t "ft much better on average under double faults" true
    (mf.Ftrsn_core.Metric.avg_segments
     > mo.Ftrsn_core.Metric.avg_segments +. 0.05)

let test_diagnose_coverage_bounds () =
  let net = small_sib () in
  let c = Diagnose.coverage net in
  check bool_t "coverage in (0.5, 1]" true (c > 0.5 && c <= 1.0)

(* --- merged retargeting --- *)

let test_merged_all_leaves () =
  (* Writing all three instruments of the small SoC merges into ONE group
     (open everything once) and beats sequential access. *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let targets = [ seg_id net "c1"; seg_id net "c2"; seg_id net "c3" ] in
  match Retarget.plan_write_merged ctx ~targets () with
  | None -> Alcotest.fail "merged plan must exist"
  | Some mp ->
      check int_t "one group" 1 (List.length mp.Retarget.groups);
      check bool_t "merged strictly cheaper" true
        (mp.Retarget.merged_cycles < mp.Retarget.sequential_cycles);
      let plan, ts = List.hd mp.Retarget.groups in
      check int_t "all targets in the group" 3 (List.length ts);
      (* Execute the merged access on the simulator. *)
      let patterns =
        List.map
          (fun t -> (t, List.init (Netlist.seg_len net t) (fun i -> i mod 2 = 0)))
          ts
      in
      (match Retarget.execute net plan ~patterns with
      | Error e -> Alcotest.fail e
      | Ok state ->
          List.iter
            (fun (t, bits) ->
              List.iteri
                (fun j v ->
                  if state.Sim.shift.(t).(j) <> v then
                    Alcotest.fail
                      (Printf.sprintf "merged write mismatch at %s[%d]"
                         (Netlist.segment_name net t) j))
                bits)
            patterns)

let test_merged_single_target_consistent () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c1 = seg_id net "c1" in
  match
    ( Retarget.plan_write ctx ~target:c1 (),
      Retarget.plan_write_merged ctx ~targets:[ c1 ] () )
  with
  | Some single, Some mp ->
      check int_t "one group" 1 (List.length mp.Retarget.groups);
      check int_t "same cost as single" single.Retarget.cycles
        mp.Retarget.merged_cycles
  | _ -> Alcotest.fail "plans must exist"

let test_merged_under_fault () =
  (* Merging still works around a defect. *)
  let net = small_sib () in
  let r = Ftrsn_core.Pipeline.synthesize net in
  let ft = r.Ftrsn_core.Pipeline.ft in
  let ctx = Engine.make_ctx ft in
  let fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  let targets = [ seg_id ft "c1"; seg_id ft "c3" ] in
  match Retarget.plan_write_merged ctx ~fault ~targets () with
  | None -> Alcotest.fail "merged plan under fault"
  | Some mp ->
      List.iter
        (fun (plan, ts) ->
          let patterns =
            List.map
              (fun t ->
                (t, List.init (Netlist.seg_len ft t) (fun i -> i mod 3 = 0)))
              ts
          in
          match Retarget.execute ft ~fault plan ~patterns with
          | Error e -> Alcotest.fail e
          | Ok state ->
              List.iter
                (fun (t, bits) ->
                  List.iteri
                    (fun j v ->
                      if state.Sim.shift.(t).(j) <> v then
                        Alcotest.fail "merged-under-fault mismatch")
                    bits)
                patterns)
        mp.Retarget.groups

let itc02 name =
  Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find name))

let test_merged_unplannable_target () =
  (* On the FT rework of x1331 under aug_10_0.in[0]/sa0, the planner finds
     no write plan for x1331_m0_c0: merging a target list that holds it
     answers None rather than raising. *)
  let ft =
    (Ftrsn_core.Pipeline.synthesize (itc02 "x1331")).Ftrsn_core.Pipeline.ft
  in
  let ctx = Engine.make_ctx ft in
  let fault =
    List.find
      (fun f -> Fault.to_string ft f = "aug_10_0.in[0]/sa0")
      (Fault.universe ft)
  in
  let c0 = seg_id ft "x1331_m0_c0" in
  check bool_t "no single plan" true
    (Retarget.plan_write ctx ~fault ~target:c0 () = None);
  check bool_t "no merged plan" true
    (Retarget.plan_write_merged ctx ~fault
       ~targets:[ seg_id ft "x1331_m0"; c0 ] ()
     = None)

let test_merged_groups_replay () =
  (* Every group of a merged plan replays on the simulator and lands every
     target's pattern: fault-free and under every 7th fault of u226, with
     the first six writable segments as targets. *)
  let net = itc02 "u226" in
  let ctx = Engine.make_ctx net in
  let groups = ref 0 in
  List.iteri
    (fun i fault ->
      if i mod 7 = 0 then begin
        let v = Engine.analyze ctx fault in
        let targets =
          List.filteri
            (fun i _ -> i < 6)
            (List.filter
               (fun s -> v.Engine.writable.(s))
               (List.init (Netlist.num_segments net) Fun.id))
        in
        let name =
          Option.fold ~none:"fault-free" ~some:(Fault.to_string net) fault
        in
        match Retarget.plan_write_merged ctx ?fault ~targets () with
        | None -> Alcotest.fail ("no merged plan under " ^ name)
        | Some mp ->
            List.iter
              (fun (plan, ts) ->
                incr groups;
                let patterns =
                  List.map
                    (fun t ->
                      ( t,
                        List.init (Netlist.seg_len net t) (fun j ->
                            (j + t) mod 2 = 0) ))
                    ts
                in
                match Retarget.execute net ?fault plan ~patterns with
                | Error e -> Alcotest.fail (name ^ ": " ^ e)
                | Ok state ->
                    List.iter
                      (fun (t, bits) ->
                        if Array.to_list state.Sim.shift.(t) <> bits then
                          Alcotest.fail
                            (Printf.sprintf "%s: pattern lost at %s" name
                               (Netlist.segment_name net t)))
                      patterns)
              mp.Retarget.groups
      end)
    (None :: List.map Option.some (Fault.universe net));
  check bool_t "exercised many groups" true (!groups > 100)

(* --- vector export --- *)

module Vectors = Ftrsn_access.Vectors

let test_hex_of_bits () =
  (* first-shifted-first [1;0;0;1] = msb-last -> binary 1001 = 9 *)
  check Alcotest.string "nibble" "9" (Vectors.hex_of_bits [ true; false; false; true ]);
  check Alcotest.string "empty" "0" (Vectors.hex_of_bits []);
  check Alcotest.string "five bits" "01"
    (Vectors.hex_of_bits [ true; false; false; false; false ]);
  check Alcotest.string "all ones byte" "FF"
    (Vectors.hex_of_bits (List.init 8 (fun _ -> true)))

let test_vectors_of_plan () =
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  let c3 = seg_id net "c3" in
  match Retarget.plan_write ctx ~target:c3 () with
  | None -> Alcotest.fail "plan"
  | Some plan -> (
      let pattern = [ true; false; true; true ] in
      match Vectors.of_plan net plan ~pattern with
      | Error e -> Alcotest.fail e
      | Ok svf ->
          check bool_t "has SDR statements" true
            (try ignore (Str.search_forward (Str.regexp_string "SDR") svf 0); true
             with Not_found -> false);
          check bool_t "mentions target" true
            (try ignore (Str.search_forward (Str.regexp_string "c3") svf 0); true
             with Not_found -> false);
          (* One SDR per CSU. *)
          let count = ref 0 and pos = ref 0 in
          (try
             while true do
               pos := Str.search_forward (Str.regexp_string "SDR ") svf !pos + 1;
               incr count
             done
           with Not_found -> ());
          check int_t "SDR count" (List.length plan.Retarget.steps + 1) !count)

let test_vectors_roundtrip_consistent () =
  (* The recorded streams are the plan's CSUs: one (scan-in, scan-out)
     pair of equal length per CSU, and their lengths plus one capture and
     one update cycle each add up to the plan's latency. *)
  let net = small_sib () in
  let ctx = Engine.make_ctx net in
  List.iter
    (fun name ->
      match Retarget.plan_write ctx ~target:(seg_id net name) () with
      | None -> Alcotest.fail "plan"
      | Some plan -> (
          let pattern =
            List.init (Netlist.seg_len net (seg_id net name)) (fun i ->
                i mod 3 = 0)
          in
          match Retarget.trace_execution net plan ~pattern with
          | Error e -> Alcotest.fail e
          | Ok streams ->
              check int_t (name ^ ": one stream pair per CSU")
                (List.length plan.Retarget.steps + 1)
                (List.length streams);
              List.iter
                (fun (tdi, tdo) ->
                  check int_t (name ^ ": scan-out as long as scan-in")
                    (List.length tdi) (List.length tdo))
                streams;
              check int_t (name ^ ": cycles")
                plan.Retarget.cycles
                (List.fold_left
                   (fun acc (tdi, _) -> acc + 2 + List.length tdi)
                   0 streams)))
    [ "c1"; "c2"; "c3"; "mod1"; "mod2" ]

(* The SVF bytes of every fault-free write plan of the FT rework of
   [small_sib], pinned.  Its plans assert primary control lines, so the
   pin covers the PIO statements as well as every SDR. *)
let test_vectors_pinned () =
  let ft =
    (Ftrsn_core.Pipeline.synthesize (small_sib ())).Ftrsn_core.Pipeline.ft
  in
  let ctx = Engine.make_ctx ft in
  let buf = Buffer.create 4096 in
  for s = 0 to Netlist.num_segments ft - 1 do
    match Retarget.plan_write ctx ~target:s () with
    | None -> Alcotest.fail "fault-free plan must exist"
    | Some plan -> (
        let pattern = List.init (Netlist.seg_len ft s) (fun i -> i mod 2 = 0) in
        match Vectors.of_plan ft plan ~pattern with
        | Error e -> Alcotest.fail e
        | Ok svf -> Buffer.add_string buf svf)
  done;
  let all = Buffer.contents buf in
  check bool_t "PIO statements" true
    (try ignore (Str.search_forward (Str.regexp_string "PIO (") all 0); true
     with Not_found -> false);
  check Alcotest.string "SVF digest" "77d47cb85f1e014d9d643b99d72a6bb7"
    (Digest.to_hex (Digest.string all))

(* Property: the lane-parallel batch sweep returns, class for class, the
   verdict of the scalar engine — on random nets, which exercise partial
   batches, mixed shapes and the fast paths together. *)
let prop_lanes_equal_scalar =
  QCheck.Test.make
    ~name:"lane verdicts = per-class Engine.analyze (random nets)" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(5 + (seed mod 6)) ()
      in
      let ctx = Engine.make_ctx net in
      let classes =
        Array.of_list (Fault.collapse net (Fault.universe net))
      in
      let vs, st = Engine.analyze_lanes_stats ctx classes in
      Array.length vs = Array.length classes
      && st.Engine.ls_fast + st.Engine.ls_lanes = Array.length classes
      && Array.for_all2
           (fun v c -> v = Engine.analyze ctx (Some c.Fault.cls_rep))
           vs classes)

(* Class pairs as the exhaustive pair sweep runs them: one lane per pair,
   every lane rooted at the fault-free baseline, batches packing pairs
   of many rows.  Each lane must give the brute verdict under both
   faults, and the count view must count that verdict.  The pairs are
   drawn at random, so every batch mixes primaries, and every
   dead-port and fast-path class takes part in some pairs. *)
let prop_pair_lanes_exact =
  QCheck.Test.make
    ~name:"cross-row pair lanes = Engine.analyze_multi (random nets)"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 5)) ()
      in
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let classes =
        Array.of_list (Fault.collapse net (Fault.universe net))
      in
      let n = Array.length classes in
      let sm i = classes.(i).Fault.cls_summary in
      let lanes = Array.init n (fun i -> Engine.lane ctx base (sm i)) in
      let st = Random.State.make [| seed |] in
      let partner () = Random.State.int st n in
      let special =
        List.filter
          (fun i ->
            Engine.lane_fast base (sm i) <> None
            || (sm i).Fault.sm_pi_dead
            || (sm i).Fault.sm_po_dead)
          (List.init n Fun.id)
      in
      let pairs =
        Array.of_list
          (List.init (2 * n) (fun k -> (k mod n, partner ()))
          @ List.concat_map
              (fun i -> List.init 4 (fun _ -> (partner (), i)))
              special)
      in
      (* scramble the row-major order so batches mix primaries *)
      for k = Array.length pairs - 1 downto 1 do
        let r = Random.State.int st (k + 1) in
        let t = pairs.(k) in
        pairs.(k) <- pairs.(r);
        pairs.(r) <- t
      done;
      let ok = ref true in
      let k = ref 0 in
      while !ok && !k < Array.length pairs do
        let b = min Engine.lane_width (Array.length pairs - !k) in
        let batch = Array.sub pairs !k b in
        let ls =
          Array.map (fun (i, j) -> Engine.lane_union lanes.(i) lanes.(j)) batch
        in
        let vs, st = Engine.analyze_batch ctx base ls in
        let cs, st' = Engine.count_batch ctx base ls in
        ok :=
          st = st'
          && st.Engine.ls_lanes = b
          && Array.for_all2
               (fun (v, _) (i, j) ->
                 v
                 = Engine.analyze_multi ctx
                     [ classes.(i).Fault.cls_rep; classes.(j).Fault.cls_rep ])
               vs batch
          && Array.for_all2
               (fun (v, cone) c ->
                 c.Engine.lc_segs = Engine.accessible_count v
                 && c.Engine.lc_bits = Engine.accessible_bits ctx v
                 && c.Engine.lc_cone = cone)
               vs cs;
        k := !k + b
      done;
      !ok)

(* The pair sweep answers an interacting pair with an
   [Engine.lane_fast] class by arithmetic: the partner's accessible set
   minus the fast class's killed segments.  Checked against the brute
   verdict for every fast class and every partner, dead ports
   included. *)
let prop_fast_pairs_arithmetic =
  QCheck.Test.make
    ~name:"fast-path pairs = partner minus kills (random nets)" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 6)) ()
      in
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let classes =
        Array.of_list (Fault.collapse net (Fault.universe net))
      in
      let rep i = classes.(i).Fault.cls_rep in
      let sm i = classes.(i).Fault.cls_summary in
      let single =
        Array.init (Array.length classes) (fun i ->
            (Engine.analyze ctx (Some (rep i))).Engine.accessible)
      in
      let ok = ref true in
      Array.iteri
        (fun f _ ->
          match Engine.lane_fast base (sm f) with
          | None -> ()
          | Some kills ->
              Array.iteri
                (fun j acc ->
                  let expect =
                    Array.mapi (fun s a -> a && not (Array.mem s kills)) acc
                  in
                  if
                    (Engine.analyze_multi ctx [ rep f; rep j ]).Engine.accessible
                    <> expect
                  then ok := false)
                single)
        classes;
      !ok)

(* The pair sweep forms a lane's cone as the union of its classes'
   cones, computed once per class; that is exact because the coarse
   cone fires per damaged site. *)
let prop_union_cone =
  QCheck.Test.make
    ~name:"coarse cone of a union summary = union of the cones (random nets)"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 6)) ()
      in
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let sms =
        Array.of_list
          (List.concat_map
             (fun model ->
               List.map
                 (fun c -> c.Fault.cls_summary)
                 (Fault.collapse net (Fault.universe ~model net)))
             [ Fault.Stuck; Fault.Bridge ])
      in
      let n = Array.length sms in
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          let a = sms.(Random.State.int st n)
          and b = sms.(Random.State.int st n) in
          let u = Ftrsn_topo.Bitset.copy (Engine.coarse_cone ctx base a) in
          Ftrsn_topo.Bitset.union_into u (Engine.coarse_cone ctx base b);
          Ftrsn_topo.Bitset.equal u
            (Engine.coarse_cone ctx base (Fault.summary_union a b)))
        (List.init 60 Fun.id))

let same_probe (a : Engine.probe) (b : Engine.probe) =
  let eq f = Ftrsn_topo.Bitset.equal (f a.Engine.pr_gate) (f b.Engine.pr_gate) in
  a.Engine.pr_verdict = b.Engine.pr_verdict
  && Ftrsn_topo.Bitset.equal a.Engine.pr_cone b.Engine.pr_cone
  && a.Engine.pr_coarse = b.Engine.pr_coarse
  && eq (fun g -> g.Engine.g_region)
  && eq (fun g -> g.Engine.g_fragile)
  && eq (fun g -> g.Engine.g_supp)
  && eq (fun g -> g.Engine.g_supp_edges)
  && eq (fun g -> g.Engine.g_rhosts)
  && eq (fun g -> g.Engine.g_dead_edges)
  && eq (fun g -> g.Engine.g_dmg)
  && eq (fun g -> g.Engine.g_wlost)

(* [Engine.probes] hands over every index once, each probe equal to the
   one-lane [Engine.probe] of the same summary; [None] when so, else
   the first index that differs (-1: an index missed or repeated). *)
let probes_mismatch ctx base sms =
  let seen = Array.make (Array.length sms) 0 in
  let bad = ref None in
  Engine.probes ctx base sms (fun i p ->
      seen.(i) <- seen.(i) + 1;
      if !bad = None && not (same_probe p (Engine.probe ctx base sms.(i)))
      then bad := Some i);
  match !bad with
  | Some _ -> !bad
  | None -> if Array.for_all (( = ) 1) seen then None else Some (-1)

let prop_probes_equal_probe =
  QCheck.Test.make ~name:"batched probes = single probes (random nets)"
    ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(5 + (seed mod 6)) ()
      in
      let ctx = Engine.make_ctx net in
      let sms =
        Array.of_list
          (List.map
             (fun c -> c.Fault.cls_summary)
             (Fault.collapse net (Fault.universe net)))
      in
      probes_mismatch ctx (Engine.baseline ctx) sms = None)

(* The same on whole ITC'02 universes, where a batch fills all 63
   lanes: u226 and its fault-tolerant rework in full, d695 thinned to
   every 12th fault. *)
let test_probes_equal_probe () =
  let soc name =
    Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find name))
  in
  let u226 = soc "u226" in
  let u226_ft = (Ftrsn_core.Pipeline.synthesize u226).Ftrsn_core.Pipeline.ft in
  let d695 = soc "d695" in
  List.iter
    (fun (name, net, faults) ->
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let classes = Array.of_list (Fault.collapse net faults) in
      let sms = Array.map (fun c -> c.Fault.cls_summary) classes in
      match probes_mismatch ctx base sms with
      | None -> ()
      | Some i when i < 0 ->
          Alcotest.failf "%s: an index was missed or repeated" name
      | Some i ->
          Alcotest.failf "%s: batched probe of %s differs" name
            (Fault.to_string net classes.(i).Fault.cls_rep))
    [
      ("u226", u226, Fault.universe u226);
      ("u226-ft", u226_ft, Fault.universe u226_ft);
      ( "d695/12",
        d695,
        List.filteri (fun i _ -> i mod 12 = 0) (Fault.universe d695) );
    ]

(* [Engine.cones] derives the class cones without the probe's interaction
   region; each must still be the probe's cone, on every path the probe
   takes (exact diff from a lane batch, coarse refusal, glitch, local
   kills).  One call per whole universe, so lane batches and fast paths
   are mixed in one call.  The fault-tolerant rework has the hosted
   steering requirements the coarse cone's cascade closure is about. *)
let test_cones_are_probe_cones () =
  let soc name =
    Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find name))
  in
  let u226_ft =
    (Ftrsn_core.Pipeline.synthesize (soc "u226")).Ftrsn_core.Pipeline.ft
  in
  List.iter
    (fun (name, net, model) ->
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let classes =
        Array.of_list (Fault.collapse net (Fault.universe ~model net))
      in
      let sms = Array.map (fun c -> c.Fault.cls_summary) classes in
      (* Glitch summaries never occupy a lane: the transient universe is
         all fast classes, answered by full fixpoints. *)
      let fast, batches = Engine.lane_plan base sms in
      if fast = [] || (model = Fault.Stuck && batches = []) then
        Alcotest.failf "%s: the universe misses lane batches or fast classes"
          name;
      Array.iteri
        (fun i cone ->
          let p = (Engine.probe ctx base sms.(i)).Engine.pr_cone in
          let same =
            match cone with
            | None -> Ftrsn_topo.Bitset.is_empty p
            | Some cs -> Ftrsn_topo.Bitset.equal cs p
          in
          if not same then
            Alcotest.failf "%s: %s: cone differs from the probe's" name
              (Fault.to_string net classes.(i).Fault.cls_rep))
        (Engine.cones ctx base sms))
    [
      ("u226-ft stuck-at", u226_ft, Fault.Stuck);
      ("u226-ft transient", u226_ft, Fault.Transient);
      ("d695 stuck-at", soc "d695", Fault.Stuck);
    ]

(* The probe's footprints and the delta verdicts, summed over every
   stuck-at class of two networks.  The pair sweep consumes these
   footprints only through its dispatch totals; pinning them directly
   catches a probe that changes a footprint yet lands on the same
   totals. *)
let test_probe_stack_pinned () =
  let soc name =
    Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find name))
  in
  let nets =
    [
      ( "u226-ft",
        (Ftrsn_core.Pipeline.synthesize (soc "u226")).Ftrsn_core.Pipeline.ft );
      ("d281", soc "d281");
    ]
  in
  let sums (name, net) =
    let ctx = Engine.make_ctx net in
    let base = Engine.baseline ctx in
    let sms =
      List.map
        (fun c -> c.Fault.cls_summary)
        (Fault.collapse net (Fault.universe net))
    in
    let probes = List.map (Engine.probe ctx base) sms in
    let card f =
      List.fold_left (fun n p -> n + Ftrsn_topo.Bitset.cardinal (f p)) 0 probes
    in
    let delta =
      List.fold_left
        (fun n sm ->
          if Fault.summary_benign sm then n
          else
            n
            + Engine.accessible_count (fst (Engine.analyze_delta ctx base sm)))
        0 sms
    in
    List.map
      (fun (what, n) -> (name ^ " " ^ what, n))
      [
        ("cone", card (fun p -> p.Engine.pr_cone));
        ("region", card (fun p -> p.Engine.pr_gate.Engine.g_region));
        ("fragile", card (fun p -> p.Engine.pr_gate.Engine.g_fragile));
        ("supp", card (fun p -> p.Engine.pr_gate.Engine.g_supp));
        ("supp_edges", card (fun p -> p.Engine.pr_gate.Engine.g_supp_edges));
        ("rhosts", card (fun p -> p.Engine.pr_gate.Engine.g_rhosts));
        ("dead_edges", card (fun p -> p.Engine.pr_gate.Engine.g_dead_edges));
        ("dmg", card (fun p -> p.Engine.pr_gate.Engine.g_dmg));
        ( "coarse",
          List.length (List.filter (fun p -> p.Engine.pr_coarse) probes) );
        ("delta accessible", delta);
      ]
  in
  check
    Alcotest.(list (pair string int))
    "probe and stack sums"
    [
      ("u226-ft cone", 581); ("u226-ft region", 5119);
      ("u226-ft fragile", 14097); ("u226-ft supp", 35311);
      ("u226-ft supp_edges", 45015); ("u226-ft rhosts", 10163);
      ("u226-ft dead_edges", 6783); ("u226-ft dmg", 138);
      ("u226-ft coarse", 0); ("u226-ft delta accessible", 127490);
      ("d281 cone", 11198); ("d281 region", 7159);
      ("d281 fragile", 4570); ("d281 supp", 6763);
      ("d281 supp_edges", 9300); ("d281 rhosts", 2650);
      ("d281 dead_edges", 3502); ("d281 dmg", 386);
      ("d281 coarse", 2); ("d281 delta accessible", 92050);
    ]
    (List.concat_map sums nets)

(* The count view of the lane sweep against the verdict view, over the
   same dispatch: per class the accessible segments and bits of the
   verdict, the cone size, and the lane statistics — for every stuck-at
   class of two fault-tolerant networks on the fault-free root, and for
   u226-ft's interacting class pairs (about 40 rows of the exhaustive
   pair sweep, spread over the class order) packed row-major into
   pair-lane batches as the sweep packs them.  The
   verdict view itself is held against the scalar engine, class by class,
   on the full stuck-at universes of two SIB networks. *)
let test_lane_counts_equal_verdicts () =
  let soc name =
    Ftrsn_itc02.Itc02.rsn (Option.get (Ftrsn_itc02.Itc02.find name))
  in
  let ft name =
    (Ftrsn_core.Pipeline.synthesize (soc name)).Ftrsn_core.Pipeline.ft
  in
  let same label net (vs, st) (cs, st') =
    if st <> st' then Alcotest.failf "%s: lane statistics differ" label;
    Array.iteri
      (fun j (v, cone) ->
        let segs = ref 0 and bits = ref 0 in
        Array.iteri
          (fun i ok ->
            if ok then begin
              incr segs;
              bits := !bits + Netlist.seg_len net i
            end)
          v.Engine.accessible;
        let c = cs.(j) in
        if
          (c.Engine.lc_segs, c.Engine.lc_bits, c.Engine.lc_cone)
          <> (!segs, !bits, cone)
        then Alcotest.failf "%s: counts of summary %d differ" label j)
      vs
  in
  List.iter
    (fun name ->
      let net = ft name in
      let ctx = Engine.make_ctx net in
      let base = Engine.baseline ctx in
      let sms =
        Array.of_list
          (List.map
             (fun c -> c.Fault.cls_summary)
             (Fault.collapse net (Fault.universe net)))
      in
      same (name ^ "-ft") net
        (Engine.analyze_lanes ctx base sms)
        (Engine.count_lanes ctx base sms);
      if name = "u226" then begin
        let gates =
          Array.map (fun sm -> (Engine.probe ctx base sm).Engine.pr_gate) sms
        in
        let lanes = Array.map (Engine.lane ctx base) sms in
        (* every [rows]-th row, so all summary shapes take part *)
        let rows = max 1 (Array.length sms / 40) in
        let pairs =
          List.concat
            (List.init (Array.length sms) (fun i ->
                 if i mod rows <> 0 then []
                 else
                   List.filter_map
                     (fun j ->
                       if Engine.composes gates.(i) gates.(j) then None
                       else Some (Engine.lane_union lanes.(i) lanes.(j)))
                     (List.init (Array.length sms - i - 1) (fun k -> i + 1 + k))))
        in
        let pairs = Array.of_list pairs in
        let k = ref 0 in
        while !k < Array.length pairs do
          let b = min Engine.lane_width (Array.length pairs - !k) in
          let batch = Array.sub pairs !k b in
          same
            (Printf.sprintf "u226-ft pair batch at %d" !k)
            net
            (Engine.analyze_batch ctx base batch)
            (Engine.count_batch ctx base batch);
          k := !k + b
        done
      end)
    [ "u226"; "d281" ];
  List.iter
    (fun name ->
      let net = soc name in
      let ctx = Engine.make_ctx net in
      let classes =
        Array.of_list (Fault.collapse net (Fault.universe net))
      in
      let vs, _ = Engine.analyze_lanes_stats ctx classes in
      Array.iteri
        (fun i c ->
          if vs.(i) <> Engine.analyze ctx (Some c.Fault.cls_rep) then
            Alcotest.failf "%s: lane verdict of %s differs from Engine.analyze"
              name
              (Fault.to_string net c.Fault.cls_rep))
        classes)
    [ "d695"; "u226" ]

let suite =
  [
    Alcotest.test_case "fault-free: all accessible" `Quick
      test_fault_free_all_accessible;
    Alcotest.test_case "fault universe" `Quick test_fault_universe_size;
    Alcotest.test_case "PI stuck kills everything" `Quick
      test_pi_stuck_kills_everything;
    Alcotest.test_case "PO stuck kills everything" `Quick
      test_po_stuck_kills_everything;
    Alcotest.test_case "module SIB stuck closed" `Quick
      test_module_sib_shadow_stuck_closed;
    Alcotest.test_case "module SIB stuck open" `Quick
      test_module_sib_shadow_stuck_open;
    Alcotest.test_case "trunk select stuck-0" `Quick test_trunk_select_stuck0;
    Alcotest.test_case "leaf select stuck-0" `Quick test_leaf_select_stuck0;
    Alcotest.test_case "select stuck-1 benign" `Quick test_select_stuck1_benign;
    Alcotest.test_case "mux address stuck (bypass)" `Quick
      test_mux_addr_stuck_closed;
    Alcotest.test_case "leaf shift-register fault" `Quick
      test_shift_reg_fault_on_leaf;
    Alcotest.test_case "trunk shift-register fault" `Quick
      test_shift_reg_fault_on_trunk;
    Alcotest.test_case "capture-enable fault" `Quick
      test_capture_en_kills_read_only;
    Alcotest.test_case "retarget: plan structure" `Quick
      test_plan_write_fault_free;
    Alcotest.test_case "retarget: execute on simulator" `Quick
      test_plan_execute_fault_free;
    Alcotest.test_case "retarget: plan around fault" `Quick
      test_plan_respects_fault;
    Alcotest.test_case "engine vs simulator (all faults)" `Slow
      test_engine_vs_simulator;
    Alcotest.test_case "engine vs simulator (all faults, FT)" `Slow
      test_engine_vs_simulator_ft;
    Alcotest.test_case "engine vs simulator, reads" `Slow
      test_engine_vs_simulator_read;
    Alcotest.test_case "engine vs simulator, reads (FT)" `Slow
      test_engine_vs_simulator_read_ft;
    Alcotest.test_case "diagnose: localizes injected faults" `Slow
      test_diagnose_localizes;
    Alcotest.test_case "diagnose: healthy matches benign only" `Slow
      test_diagnose_healthy;
    Alcotest.test_case "diagnose: resolution" `Quick test_diagnose_resolution;
    Alcotest.test_case "diagnose: trunk vs leaf signatures" `Quick
      test_diagnose_trunk_break_differs;
    Alcotest.test_case "multi-fault: monotone" `Quick test_multi_fault_monotone;
    Alcotest.test_case "multi-fault: singleton consistency" `Quick
      test_multi_fault_singleton_equals_single;
    Alcotest.test_case "double faults: FT degrades gracefully" `Slow
      test_double_fault_ft_degrades_gracefully;
    Alcotest.test_case "diagnose: coverage bounds" `Quick
      test_diagnose_coverage_bounds;
    Alcotest.test_case "merged: all leaves one group" `Quick
      test_merged_all_leaves;
    Alcotest.test_case "merged: single target consistent" `Quick
      test_merged_single_target_consistent;
    Alcotest.test_case "merged: under fault" `Quick test_merged_under_fault;
    Alcotest.test_case "merged: unplannable target gives None (x1331-ft)"
      `Quick test_merged_unplannable_target;
    Alcotest.test_case "merged: every group replays (u226, sampled faults)"
      `Quick test_merged_groups_replay;
    Alcotest.test_case "vectors: hex encoding" `Quick test_hex_of_bits;
    Alcotest.test_case "vectors: SVF of plan" `Quick test_vectors_of_plan;
    Alcotest.test_case "vectors: stream lengths = plan cycles" `Quick
      test_vectors_roundtrip_consistent;
    Alcotest.test_case "vectors: SVF bytes pinned (small FT)" `Quick
      test_vectors_pinned;
    Testseed.to_alcotest prop_lanes_equal_scalar;
    Testseed.to_alcotest prop_pair_lanes_exact;
    Testseed.to_alcotest prop_union_cone;
    Testseed.to_alcotest prop_fast_pairs_arithmetic;
    Testseed.to_alcotest prop_probes_equal_probe;
    Alcotest.test_case "batched probes = single probes (u226, u226-ft, d695/12)"
      `Quick test_probes_equal_probe;
    Alcotest.test_case
      "lane counts = verdict counts (u226-ft, d281-ft), lanes = analyze (d695, u226)"
      `Quick
      test_lane_counts_equal_verdicts;
    Alcotest.test_case "cones = probe cones (u226 FT, d695)" `Quick
      test_cones_are_probe_cones;
    Alcotest.test_case "probe and stack outputs pinned (u226-ft, d281)" `Quick
      test_probe_stack_pinned;
  ]
