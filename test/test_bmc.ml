(* Tests for the BMC accessibility engine (the paper's formal model), and
   its agreement with the structural graph engine across entire fault
   universes of small networks — the two compute the same verdicts by
   completely different means. *)

module Netlist = Ftrsn_rsn.Netlist
module Builder = Ftrsn_rsn.Builder
module Sib = Ftrsn_rsn.Sib
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Bmc = Ftrsn_bmc.Bmc
module Pipeline = Ftrsn_core.Pipeline
module Itc02 = Ftrsn_itc02.Itc02

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

let fig2 () =
  let b = Builder.create "fig2" in
  let a = Builder.add_segment b ~shadow:2 ~name:"A" ~len:2 ~input:Netlist.Scan_in () in
  let s = Builder.add_segment b ~name:"B" ~len:3 ~input:(Netlist.Seg a) () in
  let c = Builder.add_segment b ~name:"C" ~len:4 ~input:(Netlist.Seg s) () in
  let m1 =
    Builder.add_mux b ~name:"m1"
      ~inputs:[ Netlist.Seg s; Netlist.Seg c ]
      ~addr:[ Netlist.Ctrl_shadow { cseg = a; cbit = 0 } ]
      ()
  in
  let d = Builder.add_segment b ~name:"D" ~len:2 ~input:(Netlist.Mux m1) () in
  Builder.finish b ~out:(Netlist.Seg d) ()

(* A network with a genuine 4:1 mux (four distinct inputs, 2 address
   bits hosted in a configuration segment) — exercises multi-bit address
   decoding in the simulator, the structural engine and the BMC model. *)
let wide_mux () =
  let b = Builder.create "wide" in
  let cfgseg =
    Builder.add_segment b ~shadow:2 ~name:"cfg" ~len:2 ~input:Netlist.Scan_in ()
  in
  let w = Builder.add_segment b ~name:"w" ~len:2 ~input:(Netlist.Seg cfgseg) () in
  let x = Builder.add_segment b ~name:"x" ~len:3 ~input:(Netlist.Seg w) () in
  let y = Builder.add_segment b ~name:"y" ~len:4 ~input:(Netlist.Seg x) () in
  let m =
    Builder.add_mux b ~name:"sel4"
      ~inputs:[ Netlist.Seg w; Netlist.Seg x; Netlist.Seg y; Netlist.Seg cfgseg ]
      ~addr:
        [
          Netlist.Ctrl_shadow { cseg = cfgseg; cbit = 0 };
          Netlist.Ctrl_shadow { cseg = cfgseg; cbit = 1 };
        ]
      ()
  in
  let z = Builder.add_segment b ~name:"z" ~len:2 ~input:(Netlist.Mux m) () in
  Builder.finish b ~out:(Netlist.Seg z) ()

let accessible = function Bmc.Accessible _ -> true | Bmc.Inaccessible -> false

let test_fault_free_depths () =
  let net = small_sib () in
  let t = Bmc.Session.create (Bmc.create net) in
  (* Module SIBs are on the reset path: 0 configuration CSUs. *)
  let mod1 = 0 in
  (match Bmc.Session.check_write t ~target:mod1 () with
  | Bmc.Accessible n -> check int_t "mod1 at depth 0" 0 n
  | Bmc.Inaccessible -> Alcotest.fail "mod1 accessible");
  (* Leaf instruments need two configuration steps (module + leaf SIB). *)
  let c1 = 2 in
  (match Bmc.Session.check_write t ~target:c1 () with
  | Bmc.Accessible n -> check int_t "c1 at depth 2" 2 n
  | Bmc.Inaccessible -> Alcotest.fail "c1 accessible");
  check bool_t "read too" true
    (accessible (Bmc.Session.check_read t ~target:c1 ()))

let test_fault_free_all_accessible () =
  List.iter
    (fun net ->
      let t = Bmc.Session.create (Bmc.create net) in
      for s = 0 to Netlist.num_segments net - 1 do
        check bool_t
          (net.Netlist.net_name ^ ": " ^ Netlist.segment_name net s)
          true
          (accessible (Bmc.Session.check_access t ~target:s ()))
      done)
    [ small_sib (); fig2 () ]

let test_pi_stuck () =
  let net = small_sib () in
  let t = Bmc.Session.create (Bmc.create net) in
  let fault = { Fault.site = Fault.Primary_in; stuck = true } in
  for s = 0 to Netlist.num_segments net - 1 do
    check bool_t "nothing writable" false
      (accessible (Bmc.Session.check_write t ~fault ~target:s ()))
  done

let test_sib_stuck_closed () =
  let net = small_sib () in
  let t = Bmc.Session.create (Bmc.create net) in
  (* mod1's SIB bit stuck at 0: its subtree is sealed. *)
  let fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  check bool_t "c1 sealed" false
    (accessible (Bmc.Session.check_access t ~fault ~target:2 ()));
  check bool_t "c3 fine" true
    (accessible (Bmc.Session.check_access t ~fault ~target:7 ()))

let test_more_steps_needed_under_fault () =
  (* With mod1's mux address stuck open, access to c1 still works (the
     subtree is always spliced in). *)
  let net = small_sib () in
  let t = Bmc.Session.create (Bmc.create net) in
  let the_mux =
    match Netlist.mux_on_edge net ~src:2 ~dst:(2 + 5) with
    | Some m -> m
    | None -> Alcotest.fail "bypass mux expected"
  in
  let fault = { Fault.site = Fault.Mux_addr (the_mux, 0); stuck = true } in
  check bool_t "c1 accessible with forced-open module" true
    (accessible (Bmc.Session.check_access t ~fault ~target:2 ()))

(* The headline validation: the BMC model and the structural engine agree
   on every fault of the universe, for every segment, on both the original
   and the fault-tolerant network. *)
let agree_on net =
  let t = Bmc.Session.create (Bmc.create net) in
  let ctx = Engine.make_ctx net in
  let faults = Fault.universe net in
  List.iter
    (fun fault ->
      let v = Engine.analyze ctx (Some fault) in
      for s = 0 to Netlist.num_segments net - 1 do
        let bw = accessible (Bmc.Session.check_write t ~fault ~target:s ()) in
        if bw <> v.Engine.writable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s: writable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Netlist.segment_name net s)
               v.Engine.writable.(s) bw
               (Fault.to_string net fault));
        let br = accessible (Bmc.Session.check_read t ~fault ~target:s ()) in
        if br <> v.Engine.readable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s: readable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Netlist.segment_name net s)
               v.Engine.readable.(s) br
               (Fault.to_string net fault))
      done)
    faults

let test_agree_small_sib () = agree_on (small_sib ())
let test_agree_fig2 () = agree_on (fig2 ())

let test_agree_small_sib_ft () =
  let r = Pipeline.synthesize (small_sib ()) in
  agree_on r.Pipeline.ft

let test_agree_fig2_ft () =
  let r = Pipeline.synthesize (fig2 ()) in
  agree_on r.Pipeline.ft

let test_agree_wide_mux () = agree_on (wide_mux ())

let test_agree_wide_mux_ft () =
  let r = Pipeline.synthesize (wide_mux ()) in
  agree_on r.Pipeline.ft

module Config = Ftrsn_rsn.Config
module Sim = Ftrsn_rsn.Sim

let test_write_witness () =
  (* The decoded SAT witness is a valid configuration sequence: it starts
     at reset, each step only changes shadow bits of segments that were on
     the previous active path, and the final configuration exposes the
     target. *)
  let net = small_sib () in
  let t = Bmc.Session.create (Bmc.create net) in
  let target = 2 (* c1 *) in
  match Bmc.Session.write_witness t ~target () with
  | None -> Alcotest.fail "c1 accessible"
  | Some (steps, configs) ->
      check int_t "two configuration steps" 2 steps;
      check int_t "steps + 1 configurations" (steps + 1) (List.length configs);
      let reset = Config.reset net in
      check bool_t "starts at reset" true (Config.equal (List.hd configs) reset);
      let rec walk = function
        | c1 :: (c2 :: _ as tl) ->
            (match Sim.active_path net Sim.no_injection c1 with
            | None -> Alcotest.fail "intermediate config invalid"
            | Some path ->
                for s = 0 to Netlist.num_segments net - 1 do
                  if c1.Config.shadows.(s) <> c2.Config.shadows.(s) then
                    check bool_t "changed segment was on the path" true
                      (List.mem s path)
                done);
            walk tl
        | _ -> ()
      in
      walk configs;
      let final = List.nth configs steps in
      (match Sim.active_path net Sim.no_injection final with
      | Some path -> check bool_t "target exposed" true (List.mem target path)
      | None -> Alcotest.fail "final config invalid")

let test_write_witness_under_fault () =
  (* Under a fault sealing mod1, the witness for c3 avoids it. *)
  let net = small_sib () in
  let t = Bmc.Session.create (Bmc.create net) in
  let fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  match Bmc.Session.write_witness t ~fault ~target:7 (* c3 *) () with
  | None -> Alcotest.fail "c3 accessible under mod1 seal"
  | Some (_, configs) ->
      let final = List.nth configs (List.length configs - 1) in
      (* mod1 stays closed (pinned at 0) in the final configuration. *)
      check bool_t "mod1 bit stays 0" false final.Config.shadows.(0).(0)

(* Adversarial cross-validation on random non-SIB branchy networks: the
   generator guarantees dedicated address drivers, so both engines must
   agree exactly. *)
let agree_sampled net max_steps =
  let t = Bmc.Session.create (Bmc.create net) in
  let ctx = Engine.make_ctx net in
  let faults =
    List.filteri (fun i _ -> i mod 3 = 0) (Fault.universe net)
  in
  List.iter
    (fun fault ->
      let v = Engine.analyze ctx (Some fault) in
      for s = 0 to Netlist.num_segments net - 1 do
        let bw =
          accessible (Bmc.Session.check_write t ~fault ~max_steps ~target:s ())
        in
        if bw <> v.Engine.writable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s: writable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Netlist.segment_name net s)
               v.Engine.writable.(s) bw
               (Ftrsn_fault.Fault.to_string net fault));
        let br =
          accessible (Bmc.Session.check_read t ~fault ~max_steps ~target:s ())
        in
        if br <> v.Engine.readable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s: readable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Netlist.segment_name net s)
               v.Engine.readable.(s) br
               (Ftrsn_fault.Fault.to_string net fault))
      done)
    faults

let test_agree_random_nets () =
  for seed = 0 to 7 do
    let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:8 () in
    agree_sampled net 8
  done

let test_agree_random_nets_ft () =
  for seed = 0 to 3 do
    let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:6 () in
    let r = Pipeline.synthesize net in
    agree_sampled r.Pipeline.ft 8
  done

(* A fault's circuits return the fault-free skeleton's node for every
   element outside its taint, without traversing it.  That is exact only
   if the taint covers every node the fault changes: each demand-built
   node at steps 0-2 must be the very node the same builder gives
   without reuse.  Step 0 is where a transient upset lives; step 2 reads
   only shared variables, like every later step.  A rebuild without
   reuse costs about 12 ms per class at three steps on the FT networks,
   so their universes are strided: every 10th class, 318 of 3,180. *)
let test_taint_covers_fault_nodes () =
  let reps ?(stride = 1) net model =
    List.filteri
      (fun i _ -> i mod stride = 0)
      (List.map
         (fun c -> [ c.Fault.cls_rep ])
         (Fault.collapse net (Fault.universe ~model net)))
  in
  let check_sets name net sets =
    let sess = Bmc.Session.create (Bmc.create net) in
    List.iter
      (fun faults ->
        match Bmc.Session.reuse_mismatches sess faults ~steps:2 with
        | [] -> ()
        | (step, family, i) :: _ ->
            Alcotest.failf "%s under %s: %s node %d at step %d is not reused \
                            exactly"
              name
              (String.concat " + " (List.map (Fault.to_string net) faults))
              family i step)
      sets
  in
  let soc name = Itc02.rsn (Option.get (Itc02.find name)) in
  let u226 = soc "u226" in
  let u226_ft = (Pipeline.synthesize u226).Pipeline.ft in
  let d281_ft = (Pipeline.synthesize (soc "d281")).Pipeline.ft in
  check_sets "u226" u226 (reps u226 Fault.Stuck);
  check_sets "u226-ft" u226_ft (reps ~stride:10 u226_ft Fault.Stuck);
  check_sets "d281-ft" d281_ft (reps ~stride:10 d281_ft Fault.Stuck);
  check_sets "u226 transient" u226 (reps u226 Fault.Transient);
  for seed = 0 to 9 do
    let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:8 () in
    let singles = Array.of_list (List.concat (reps net Fault.Stuck)) in
    let pairs = ref [] in
    Array.iteri
      (fun i f ->
        for j = i + 1 to Array.length singles - 1 do
          pairs := [ f; singles.(j) ] :: !pairs
        done)
      singles;
    check_sets (Printf.sprintf "random net %d" seed) net !pairs
  done

let test_bmc_depth_equals_plan_steps () =
  (* Two independent notions of configuration effort coincide fault-free:
     the BMC unrolling depth and the retargeting plan's CSU-step count. *)
  let net = small_sib () in
  let t = Bmc.Session.create (Bmc.create net) in
  let ctx = Engine.make_ctx net in
  for s = 0 to Netlist.num_segments net - 1 do
    match
      ( Bmc.Session.check_write t ~target:s (),
        Ftrsn_access.Retarget.plan_write ctx ~target:s () )
    with
    | Bmc.Accessible depth, Some plan ->
        check int_t
          (Printf.sprintf "depth = steps for %s" (Netlist.segment_name net s))
          depth
          (List.length plan.Ftrsn_access.Retarget.steps)
    | _ -> Alcotest.fail "both must succeed fault-free"
  done

(* A k-level SIB nesting: k - 1 SIBs around one leaf instrument, which
   is the last segment. *)
let sib_nest k =
  let rec nest d =
    if d = 0 then Sib.leaf ~name:(Printf.sprintf "leaf%d" k) ~len:2
    else Sib.Sib { name = Printf.sprintf "g%d_%d" k d; inner = [ nest (d - 1) ] }
  in
  Sib.build ~name:"deep" [ nest (k - 1) ]

let test_depth_grows_with_nesting () =
  (* A k-level SIB nesting needs exactly k configuration CSUs to reach the
     innermost instrument: the unrolling depth reported by the BMC. *)
  for k = 1 to 4 do
    let net = sib_nest k in
    let t = Bmc.Session.create (Bmc.create net) in
    (* innermost instrument = last segment *)
    let target = Netlist.num_segments net - 1 in
    match Bmc.Session.check_write t ~max_steps:(k + 2) ~target () with
    | Bmc.Accessible n ->
        check int_t (Printf.sprintf "depth for %d levels" k) k n
    | Bmc.Inaccessible -> Alcotest.fail "accessible"
  done

(* --- incremental session --- *)

let verdict_str = function
  | Bmc.Accessible n -> Printf.sprintf "accessible@%d" n
  | Bmc.Inaccessible -> "inaccessible"

(* A session's verdicts AND depths do not depend on the order of its
   queries: sweeping the entire fault universe per target (faults
   encoded and retired in turn, Tseitin cones shared) agrees with a
   second session that sweeps the targets per fault. *)
let session_agrees_on net =
  let sess = Bmc.Session.create (Bmc.create net) in
  let reference = Bmc.Session.create (Bmc.create net) in
  let faults = Fault.universe net in
  let nsegs = Netlist.num_segments net in
  let one_shot =
    List.map
      (fun fault ->
        Array.init nsegs (fun target ->
            Bmc.Session.check_access reference ~fault ~target ()))
      faults
  in
  for target = 0 to nsegs - 1 do
    List.iter2
      (fun fault one_shot ->
        let batched_v = Bmc.Session.check_access sess ~fault ~target () in
        if batched_v <> one_shot.(target) then
          Alcotest.fail
            (Printf.sprintf "%s: %s under %s: batched=%s one-shot=%s"
               net.Netlist.net_name
               (Netlist.segment_name net target)
               (Fault.to_string net fault)
               (verdict_str batched_v) (verdict_str one_shot.(target))))
      faults one_shot
  done

let test_session_faults_small_sib () = session_agrees_on (small_sib ())
let test_session_faults_fig2 () = session_agrees_on (fig2 ())
let test_session_faults_wide_mux () = session_agrees_on (wide_mux ())

let test_session_check_targets () =
  let net = fig2 () in
  let sess = Bmc.Session.create (Bmc.create net) in
  let reference = Bmc.Session.create (Bmc.create net) in
  let targets = List.init (Netlist.num_segments net) Fun.id in
  let fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  let no_fault_vs = Bmc.Session.check_targets_multi sess ~faults:[] targets in
  let fault_vs =
    Bmc.Session.check_targets_multi sess ~faults:[ fault ] targets
  in
  List.iteri
    (fun i target ->
      check bool_t
        (Printf.sprintf "fault-free target %d" target)
        (accessible (Bmc.Session.check_access reference ~target ()))
        no_fault_vs.(i);
      check bool_t
        (Printf.sprintf "faulty target %d" target)
        (accessible (Bmc.Session.check_access reference ~fault ~target ()))
        fault_vs.(i))
    targets

(* A decoded write witness replays on the simulator: [steps + 1]
   configurations from reset, each step changing only shadow bits of
   segments on the previous active path, the last one exposing the
   target.  [inj] replays under a stuck-at fault; [start] is the state a
   transient fault's unrolling really starts from (reset with the upset
   bit), which stands in for the decoded reset configuration. *)
let validate_witness ?(inj = Sim.no_injection) ?start net target
    (steps, configs) =
  let fail = Alcotest.failf in
  if List.length configs <> steps + 1 then
    fail "%d configurations for %d steps" (List.length configs) steps;
  if not (Config.equal (List.hd configs) (Config.reset net)) then
    fail "witness does not start at reset";
  let configs =
    match start with Some c -> c :: List.tl configs | None -> configs
  in
  let path c =
    match Sim.active_path net inj c with
    | Some p -> p
    | None -> fail "invalid configuration in the witness"
  in
  let rec walk = function
    | c1 :: (c2 :: _ as tl) ->
        let p = path c1 in
        for s = 0 to Netlist.num_segments net - 1 do
          if
            c1.Config.shadows.(s) <> c2.Config.shadows.(s)
            && not (List.mem s p)
          then
            fail "%s changed off the active path" (Netlist.segment_name net s)
        done;
        walk tl
    | _ -> ()
  in
  walk configs;
  if not (List.mem target (path (List.nth configs steps))) then
    fail "target %s not exposed" (Netlist.segment_name net target)

let test_witness_through_reused_solver () =
  (* Regression: model decoding stays correct after the solver has served
     many queries — including a fault encode/retire cycle in between. *)
  let net = small_sib () in
  let sess = Bmc.Session.create (Bmc.create net) in
  (match Bmc.Session.write_witness sess ~target:2 (* c1 *) () with
  | None -> Alcotest.fail "c1 accessible"
  | Some w -> validate_witness net 2 w);
  let fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  (match Bmc.Session.write_witness sess ~fault ~target:7 (* c3 *) () with
  | None -> Alcotest.fail "c3 accessible under mod1 seal"
  | Some (_, configs) ->
      let final = List.nth configs (List.length configs - 1) in
      check bool_t "mod1 bit stays 0" false final.Config.shadows.(0).(0));
  (* Back to fault-free: the retired no-fault group is re-encoded and the
     decoded model must still be a valid sequence. *)
  match Bmc.Session.write_witness sess ~target:7 () with
  | None -> Alcotest.fail "c3 accessible fault-free"
  | Some w -> validate_witness net 7 w

let test_emissions_decrease () =
  (* The clause-reuse property the session exists for.  Transitions are
     emitted on demand, one goal's cone of influence at a time, so no
     single query pays for the whole skeleton; instead every query emits
     no more than the same query on a fresh session, cones shared with
     earlier queries make some strictly cheaper, and repeating a query
     emits nothing at all.  Each query's emissions are the
     [clauses_emitted] delta around its call. *)
  let net = small_sib () in
  let model = Bmc.create net in
  let sess = Bmc.Session.create model in
  let target = 2 (* c1, the deepest kind of segment *) in
  let seal = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  let faults =
    seal :: List.filter (fun f -> f <> seal) (Fault.universe net)
  in
  let emitted sess query =
    let before = (Bmc.Session.stats sess).Bmc.Session.clauses_emitted in
    ignore (query sess);
    (Bmc.Session.stats sess).Bmc.Session.clauses_emitted - before
  in
  let queries =
    List.concat_map
      (fun fault ->
        [
          ( "write",
            fault,
            fun s -> Bmc.Session.check_write s ~fault ~target () );
          ("read", fault, fun s -> Bmc.Session.check_read s ~fault ~target ());
        ])
      faults
  in
  let deltas =
    List.map
      (fun (what, fault, q) ->
        (what, fault, emitted sess q, emitted (Bmc.Session.create model) q))
      queries
  in
  let st = Bmc.Session.stats sess in
  check bool_t "several queries ran" true (st.Bmc.Session.queries > 2);
  (match deltas with
  | [] -> Alcotest.fail "no queries ran"
  | (_, _, first, _) :: _ -> check bool_t "first query emits" true (first > 0));
  List.iter
    (fun (what, fault, got, fresh) ->
      if got > fresh then
        Alcotest.failf "%s under %s emitted %d clauses, %d on a fresh session"
          what (Fault.to_string net fault) got fresh)
    deltas;
  check bool_t "some query emits less than on a fresh session" true
    (List.exists (fun (_, _, got, fresh) -> got < fresh) deltas);
  check bool_t "cones were reused" true (st.Bmc.Session.nodes_reused > 0);
  (* Repeating the exact same query: everything is memoized. *)
  ignore (Bmc.Session.check_write sess ~target ());
  check int_t "repeated query emits nothing" 0
    (emitted sess (fun s -> Bmc.Session.check_write s ~target ()));
  (* The sealed SIB pins c1's faulty goal to false: its cone of influence
     is empty, so the inaccessible query emits no transition clause at
     any bound — only the goal cones, whose size does not depend on the
     bound. *)
  let sealed k =
    emitted (Bmc.Session.create model) (fun s ->
        Bmc.Session.check_write s ~fault:seal ~max_steps:k ~target ())
  in
  check bool_t "sealed c1 is inaccessible" true
    (Bmc.Session.check_write (Bmc.Session.create model) ~fault:seal ~target ()
    = Bmc.Inaccessible);
  List.iter
    (fun k ->
      check int_t (Printf.sprintf "sealed query at bound %d" k) (sealed 1)
        (sealed k))
    [ 4; 12 ]

(* --- minimal depth ---

   The payload of [Accessible d] is the minimal unrolling depth within
   [max_steps].  Test-only reference: the first bound [k] in [0 .. max]
   at which the bounded query is not Inaccessible.  It reads verdicts
   only, so it checks the goal search's descent, and the stutter property
   the descent rests on, independently of how the search got there. *)
let first_bound ~max query =
  let rec go k =
    if k > max then Bmc.Inaccessible
    else
      match query k with
      | Bmc.Inaccessible -> go (k + 1)
      | Bmc.Accessible _ -> Bmc.Accessible k
  in
  go 0

(* How a fault replays on the simulator: its injection, and for a
   transient fault the glitched state the unrolling starts from. *)
let replay_of net fault =
  let start =
    match fault.Fault.site with
    | Fault.Glitch_shadow (seg, bit) ->
        let c = Config.reset net in
        Config.set_shadow c ~seg ~bit fault.Fault.stuck;
        Some c
    | _ -> None
  in
  (Fault.to_injection net fault, start)

let minimal_depth_on ~model ~every net =
  let sess = Bmc.Session.create (Bmc.create net) in
  let max = Netlist.max_hier net + 2 in
  let faults =
    List.filteri (fun i _ -> i mod every = 0) (Fault.universe ~model net)
  in
  List.iter
    (fun fault ->
      let inj, start = replay_of net fault in
      for target = 0 to Netlist.num_segments net - 1 do
        let agree what query =
          let got = query max and want = first_bound ~max query in
          if got <> want then
            Alcotest.failf "%s: %s(%s) under %s: search %s, first bound %s"
              net.Netlist.net_name what
              (Netlist.segment_name net target)
              (Fault.to_string net fault) (verdict_str got) (verdict_str want);
          got
        in
        let w =
          agree "write" (fun k ->
              Bmc.Session.check_write sess ~fault ~max_steps:k ~target ())
        in
        ignore
          (agree "read" (fun k ->
               Bmc.Session.check_read sess ~fault ~max_steps:k ~target ()));
        match
          (Bmc.Session.write_witness sess ~fault ~max_steps:max ~target (), w)
        with
        | None, Bmc.Inaccessible -> ()
        | Some (d, configs), Bmc.Accessible d' when d = d' ->
            validate_witness ~inj ?start net target (d, configs)
        | _ ->
            Alcotest.failf "%s: witness of %s under %s disagrees with %s"
              net.Netlist.net_name
              (Netlist.segment_name net target)
              (Fault.to_string net fault) (verdict_str w)
      done)
    faults

let test_minimal_depth_random_nets () =
  for seed = 0 to 11 do
    let net =
      Ftrsn_rsn.Random_net.generate ~seed ~segments:(5 + (seed mod 4)) ()
    in
    minimal_depth_on ~model:Fault.Stuck ~every:2 net;
    minimal_depth_on ~model:Fault.Transient ~every:1 net
  done

(* Consecutive pairs of a fault list: [a; b], [b; c], ... *)
let rec pairs = function
  | a :: (b :: _ as tl) -> [ a; b ] :: pairs tl
  | _ -> []

let u226 () = Itc02.rsn (Option.get (Itc02.find "u226"))

let test_minimal_depth_u226_multi () =
  (* A sampled u226 universe, singles and pairs, through the batched
     multi-fault entry point the metric uses.  It reports no depth, so at
     every bound [k] its decision must be the first bound's: accessible
     exactly when [k] reaches the first bound at which it says so.  For
     the fault-free set and the singles, the access payload of the
     single-goal API (the larger of the write and read depths) must be
     that first bound. *)
  let net = u226 () in
  let sess = Bmc.Session.create (Bmc.create net) in
  let max = Netlist.max_hier net + 2 in
  let targets =
    List.filter (fun s -> s mod 3 = 0)
      (List.init (Netlist.num_segments net) Fun.id)
  in
  let sample = List.filteri (fun i _ -> i mod 150 = 0) (Fault.universe net) in
  List.iter
    (fun faults ->
      let bounded =
        Array.init (max + 1) (fun k ->
            Bmc.Session.check_targets_multi sess ~max_steps:k ~faults targets)
      in
      let name = String.concat "; " (List.map (Fault.to_string net) faults) in
      List.iteri
        (fun i target ->
          let want =
            first_bound ~max (fun k ->
                if bounded.(k).(i) then Bmc.Accessible k else Bmc.Inaccessible)
          in
          for k = 0 to max do
            let first =
              match want with Bmc.Accessible d -> d <= k | _ -> false
            in
            if bounded.(k).(i) <> first then
              Alcotest.failf "u226: %s under [%s] at bound %d: batched %b, \
                              first bound %s"
                (Netlist.segment_name net target) name k bounded.(k).(i)
                (verdict_str want)
          done;
          match faults with
          | [] | [ _ ] ->
              let got =
                Bmc.Session.check_access sess ?fault:(List.nth_opt faults 0)
                  ~max_steps:max ~target ()
              in
              if got <> want then
                Alcotest.failf "u226: %s under [%s]: search %s, first bound %s"
                  (Netlist.segment_name net target) name (verdict_str got)
                  (verdict_str want)
          | _ -> ())
        targets)
    (([] :: List.map (fun f -> [ f ]) sample) @ pairs sample)

(* --- witness fidelity ---

   Transitions outside a goal's cone of influence are never emitted, so
   the decoded witness must fill those bits in by stuttering.  Every
   accessible (fault, target) of a universe gets its write witness
   replayed on the simulator.  Stuck shadow bits are always included:
   the fault pins the bit to a constant wherever it is read, so the bit
   itself lies outside every cone. *)
let is_pinned f =
  match f.Fault.site with Fault.Seg_shadow_reg _ -> true | _ -> false

(* The number of write witnesses replayed, and how many of them were
   under a stuck shadow bit.  One session serves every query, or with
   [~fresh] each query gets its own: a shared session's cones accumulate
   across the targets of one fault, which can pull a bit into a later
   query's emitted transitions that its own cone would leave out. *)
let witnesses_replay ?(fresh = false) net faults =
  let model = Bmc.create net in
  let shared = Bmc.Session.create model in
  let sess () = if fresh then Bmc.Session.create model else shared in
  List.fold_left
    (fun (replayed, pinned) fault ->
      let inj, start = replay_of net fault in
      let n = ref 0 in
      for target = 0 to Netlist.num_segments net - 1 do
        match Bmc.Session.write_witness (sess ()) ~fault ~target () with
        | None -> ()
        | Some w ->
            incr n;
            validate_witness ~inj ?start net target w
      done;
      (replayed + !n, if is_pinned fault then pinned + !n else pinned))
    (0, 0) faults

let test_witness_fidelity () =
  let every k l = List.filteri (fun i _ -> i mod k = 0) l in
  let universe ~stuck ~pinned ~transient net =
    let u = Fault.universe net in
    every stuck (List.filter (fun f -> not (is_pinned f)) u)
    @ every pinned (List.filter is_pinned u)
    @ every transient (Fault.universe ~model:Fault.Transient net)
  in
  let check_replayed what (replayed, pinned) =
    check bool_t (what ^ ": witnesses replayed") true (replayed > 0);
    check bool_t (what ^ ": pinned-shadow witnesses replayed") true (pinned > 0)
  in
  let u226 = Itc02.rsn (Option.get (Itc02.find "u226")) in
  check_replayed "u226"
    (witnesses_replay u226 (universe ~stuck:80 ~pinned:5 ~transient:5 u226));
  for seed = 0 to 7 do
    let net =
      Ftrsn_rsn.Random_net.generate ~seed ~segments:(5 + (seed mod 4)) ()
    in
    let faults = universe ~stuck:3 ~pinned:1 ~transient:1 net in
    check_replayed (Printf.sprintf "random net %d" seed)
      (witnesses_replay net faults);
    check_replayed (Printf.sprintf "random net %d, fresh sessions" seed)
      (witnesses_replay ~fresh:true net faults)
  done;
  (* Each control segment sits on a side branch that the previous one's
     bit switches in: [t]'s goal reads only [c]'s bit, and [d]'s and [e]'s
     bits reach it only through the writability of [c] and [d].  The cone
     must follow that closure: [t] takes three CSUs, and a witness that
     skipped [d] or [e] would change [c] off the active path. *)
  let net, t =
    let b = Builder.create "control-chain" in
    let seg ?(shadow = 1) name input =
      Builder.add_segment b ~shadow ~name ~len:2 ~input ()
    in
    let mux name inputs (cseg, cbit) =
      Builder.add_mux b ~name ~inputs
        ~addr:[ Netlist.Ctrl_shadow { cseg; cbit } ] ()
    in
    let e = seg "e" Netlist.Scan_in in
    let d = seg "d" (Netlist.Seg e) in
    let me = mux "me" [ Netlist.Seg e; Netlist.Seg d ] (e, 0) in
    let c = seg "c" (Netlist.Mux me) in
    let md = mux "md" [ Netlist.Mux me; Netlist.Seg c ] (d, 0) in
    let t = seg ~shadow:0 "t" (Netlist.Mux md) in
    let mc = mux "mc" [ Netlist.Mux md; Netlist.Seg t ] (c, 0) in
    (Builder.finish b ~out:(Netlist.Mux mc) (), t)
  in
  check bool_t "t takes three CSUs" true
    (Bmc.Session.check_write (Bmc.Session.create (Bmc.create net)) ~target:t ()
     = Bmc.Accessible 3);
  check_replayed "control chain"
    (witnesses_replay ~fresh:true net
       (universe ~stuck:1 ~pinned:1 ~transient:1 net));
  (* An upset of the nested SIB bit lies off the path at reset and
     outside the cone of every target in the second branch, downstream of
     it: its decoded value must stutter from the glitched start. *)
  let net =
    Sib.build ~name:"branches"
      [
        Sib
          {
            name = "a";
            inner = [ Sib { name = "a1"; inner = [ Sib.leaf ~name:"ia" ~len:2 ] } ];
          };
        Sib { name = "b"; inner = [ Sib.leaf ~name:"ib" ~len:2 ] };
      ]
  in
  check_replayed "nested SIB branches"
    (witnesses_replay ~fresh:true net
       (universe ~stuck:1 ~pinned:1 ~transient:1 net))

(* --- certified sessions ---

   [~certify:true] feeds the solver's DRUP proof stream to the
   independent RUP checker and verifies every UNSAT verdict's
   failed-assumptions clause inline; any gap in the proof (including in
   PR 1's activation-group retirement bookkeeping) raises
   [Certification_failed].  So these tests assert three things at once:
   no exception (every lemma and every final clause is RUP-derivable),
   verdict equality with an uncertified session, and non-trivial
   certification counts. *)

let pi_stuck = { Fault.site = Fault.Primary_in; stuck = true }

let cert_stats_of sess =
  match (Bmc.Session.stats sess).Bmc.Session.cert with
  | Some c -> c
  | None -> Alcotest.fail "certified session must report cert stats"

let certified_agrees_on ?(every = 1) ?targets ?learnt_limit net =
  let sess = Bmc.Session.create ~certify:true (Bmc.create net) in
  let plain = Bmc.Session.create (Bmc.create net) in
  (* A forced-small learnt limit makes the sessions go through LBD-tiered
     reduce_db passes (deletions included in the certified trace). *)
  (match learnt_limit with
  | None -> ()
  | Some _ ->
      Ftrsn_sat.Solver.set_learnt_limit (Bmc.Session.solver sess) learnt_limit;
      Ftrsn_sat.Solver.set_learnt_limit (Bmc.Session.solver plain) learnt_limit);
  (* PI stuck-at seals everything: guarantees UNSAT verdicts to certify. *)
  let faults =
    pi_stuck
    :: List.filteri (fun i _ -> i mod every = 0) (Fault.universe net)
  in
  let targets =
    match targets with
    | Some ts -> ts
    | None -> List.init (Netlist.num_segments net) Fun.id
  in
  List.iter
    (fun target ->
      let verdicts sess =
        List.map
          (fun fault -> Bmc.Session.check_access sess ~fault ~target ())
          faults
      in
      let cv = verdicts sess and pv = verdicts plain in
      List.iteri
        (fun i (c, p) ->
          if c <> p then
            Alcotest.fail
              (Printf.sprintf "%s: target %d fault %d: certified=%s plain=%s"
                 net.Netlist.net_name target i (verdict_str c)
                 (verdict_str p)))
        (List.combine cv pv))
    targets;
  let c = cert_stats_of sess in
  check bool_t "UNSAT verdicts were certified" true
    (c.Bmc.Session.cert_unsat > 0);
  check bool_t "proof lemmas were verified" true
    (c.Bmc.Session.cert_lemmas > 0);
  check bool_t "input clauses were mirrored" true
    (c.Bmc.Session.cert_inputs > 0);
  let search = (Bmc.Session.stats sess).Bmc.Session.search in
  if learnt_limit <> None then begin
    check bool_t "lemmas were learnt" true
      (search.Ftrsn_sat.Solver.st_learnt_lits > 0);
    check bool_t "the learnt limit forced DB reductions" true
      (search.Ftrsn_sat.Solver.st_reductions > 0)
  end

let test_certified_small_sib () = certified_agrees_on (small_sib ())

let test_certified_fig2 () = certified_agrees_on (fig2 ())
let test_certified_wide_mux () = certified_agrees_on (wide_mux ())

let prop_certified_random_nets =
  QCheck.Test.make
    ~name:"certified session = plain session on random nets (all proofs RUP)"
    ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:6 () in
      certified_agrees_on ~every:4
        ~targets:(List.init (min 4 (Netlist.num_segments net)) Fun.id)
        net;
      true)

let test_certified_u226 () =
  (* The paper's smallest SoC, certified: a thinned fault slice plus the
     sealing PI fault, against first / middle / last segments.  The
     learnt limit of 0 forces a clause-database reduction after every
     query, so the trace certifies minimized lemmas AND their LBD-tier
     deletions on a real SoC. *)
  let soc = Option.get (Itc02.find "u226") in
  let net = Itc02.rsn soc in
  let n = Netlist.num_segments net in
  certified_agrees_on ~every:40 ~targets:[ 0; n / 2; n - 1 ] ~learnt_limit:0
    net

let test_certificates_per_verdict () =
  (* The goal search certifies at most two Unsat answers per goal,
     whatever the bound: none for a goal met at reset, one (depth 0) for a
     goal met after one CSU, two (depth 0 and d - 1) for a deeper one, and
     two (depth 0 and the bound) for an inaccessible one.  An ascending
     search would certify d, or max_steps + 1.  The one exception is
     decided before any solve: a stuck shadow bit kills writes to its own
     segment outright. *)
  let seen = Hashtbl.create 4 in
  for k = 1 to 4 do
    let net = sib_nest k in
    let sess = Bmc.Session.create ~certify:true (Bmc.create net) in
    let cert_unsat () = (cert_stats_of sess).Bmc.Session.cert_unsat in
    let seals =
      List.filter_map
        (fun s ->
          if net.Netlist.segs.(s).Netlist.seg_shadow = 0 then None
          else Some { Fault.site = Fault.Seg_shadow_reg (s, 0); stuck = false })
        (List.init (Netlist.num_segments net) Fun.id)
    in
    List.iter
      (fun fault ->
        List.iter
          (fun max_steps ->
            for target = 0 to Netlist.num_segments net - 1 do
              List.iter
                (fun (what, query) ->
                  let before = cert_unsat () in
                  let v = query () in
                  let spent = cert_unsat () - before in
                  let killed =
                    what = "write"
                    &&
                    match fault with
                    | Some { Fault.site = Fault.Seg_shadow_reg (s, _); _ } ->
                        s = target
                    | _ -> false
                  in
                  let cls, expected =
                    match v with
                    | Bmc.Inaccessible when killed -> ("killed", 0)
                    | Bmc.Accessible 0 -> ("accessible@0", 0)
                    | Bmc.Accessible 1 -> ("accessible@1", 1)
                    | Bmc.Accessible _ -> ("accessible@d>=2", 2)
                    | Bmc.Inaccessible -> ("inaccessible", 2)
                  in
                  Hashtbl.replace seen cls ();
                  if spent <> expected then
                    Alcotest.failf
                      "%d levels, %s(%s), max_steps %d, %s: %d certified \
                       Unsat answers, expected %d"
                      k what
                      (Netlist.segment_name net target)
                      max_steps cls spent expected)
                [
                  ("write", fun () ->
                      Bmc.Session.check_write sess ?fault ~max_steps ~target ());
                  ("read", fun () ->
                      Bmc.Session.check_read sess ?fault ~max_steps ~target ());
                ]
            done)
          [ k; k + 3 ])
      (None :: List.map Option.some seals)
  done;
  List.iter
    (fun cls -> check bool_t (cls ^ " covered") true (Hashtbl.mem seen cls))
    [ "accessible@0"; "accessible@1"; "accessible@d>=2"; "inaccessible" ]

(* --- batched decisions ---

   [check_targets_multi] decides a whole target list with a few
   disjunctive solves.  Its answers must be the single-goal API's
   [check_access <> Inaccessible], on a certified and on a plain
   session.  The single-goal API takes at most one fault, so a pair's
   batch is checked against one singleton batch per target on a fresh
   session, where no two targets ever share a solve.  Returns the
   certified session's count of certified Unsat answers. *)
let batched_agree ~what net fault_sets =
  let model = Bmc.create net in
  let reference = Bmc.Session.create model in
  let singletons = Bmc.Session.create model in
  let certified = Bmc.Session.create ~certify:true model in
  let plain = Bmc.Session.create model in
  let targets = List.init (Netlist.num_segments net) Fun.id in
  List.iter
    (fun faults ->
      let want =
        Array.of_list
          (List.map
             (fun target ->
               match faults with
               | [] | [ _ ] ->
                   accessible
                     (Bmc.Session.check_access reference
                        ?fault:(List.nth_opt faults 0) ~target ())
               | _ ->
                   (Bmc.Session.check_targets_multi singletons ~faults
                      [ target ]).(0))
             targets)
      in
      List.iter
        (fun (mode, sess) ->
          let got = Bmc.Session.check_targets_multi sess ~faults targets in
          Array.iteri
            (fun t w ->
              if got.(t) <> w then
                Alcotest.failf "%s (%s): %s under [%s]: batched %b, single %b"
                  what mode (Netlist.segment_name net t)
                  (String.concat "; " (List.map (Fault.to_string net) faults))
                  got.(t) w)
            want)
        [ ("certified", certified); ("plain", plain) ])
    fault_sets;
  (cert_stats_of certified).Bmc.Session.cert_unsat

let test_batched_u226 () =
  let net = u226 () in
  let sample = List.filteri (fun i _ -> i mod 60 = 0) (Fault.universe net) in
  check bool_t "u226: Unsat answers certified" true
    (batched_agree ~what:"u226" net
       (([] :: List.map (fun f -> [ f ]) sample) @ pairs sample)
    > 0)

let prop_batched_random_nets =
  QCheck.Test.make
    ~name:"batched decisions = check_access (random nets, stuck-at, transient)"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net =
        Ftrsn_rsn.Random_net.generate ~seed ~segments:(5 + (seed mod 4)) ()
      in
      List.iter
        (fun model ->
          let faults = Fault.universe ~model net in
          ignore @@ batched_agree
            ~what:
              (Printf.sprintf "%s/%s" net.Netlist.net_name
                 (Fault.model_to_string model))
            net
            ([] :: List.map (fun f -> [ f ]) faults))
        [ Fault.Stuck; Fault.Transient ];
      true)

let test_batched_certificates () =
  (* One batched call certifies at most four Unsat answers — write and
     read, each at depth 0 and at the bound — however many targets it
     decides.  Under a seal of an outer SIB every segment behind it is
     cut off, and the per-target search this replaced certified two
     Unsat answers for each of them. *)
  let wide = ref false in
  for k = 1 to 4 do
    let net = sib_nest k in
    let sess = Bmc.Session.create ~certify:true (Bmc.create net) in
    let targets = List.init (Netlist.num_segments net) Fun.id in
    let seals =
      List.filter_map
        (fun s ->
          if net.Netlist.segs.(s).Netlist.seg_shadow = 0 then None
          else Some { Fault.site = Fault.Seg_shadow_reg (s, 0); stuck = false })
        targets
    in
    List.iter
      (fun fault ->
        List.iter
          (fun max_steps ->
            let before = (cert_stats_of sess).Bmc.Session.cert_unsat in
            let got =
              Bmc.Session.check_targets_multi sess
                ~faults:(Option.to_list fault) ~max_steps targets
            in
            let spent = (cert_stats_of sess).Bmc.Session.cert_unsat - before in
            let lost =
              Array.fold_left (fun n ok -> if ok then n else n + 1) 0 got
            in
            if lost > 2 then wide := true;
            if spent > 4 then
              Alcotest.failf
                "%d levels, max_steps %d, %d of %d targets lost: %d certified \
                 Unsat answers, at most 4 expected"
                k max_steps lost (List.length targets) spent)
          [ k; k + 3 ])
      (None :: List.map Option.some seals)
  done;
  check bool_t "some call lost more than two targets" true !wide

(* A session keeps one fault set live: querying another retires it and
   coming back re-encodes it under a fresh activation.  Alternating
   sets on one session must answer every call as a fresh session
   does. *)
let test_live_alternation () =
  let net = small_sib () in
  let model = Bmc.create net in
  let sess = Bmc.Session.create model in
  let targets = List.init (Netlist.num_segments net) Fun.id in
  let seal = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false } in
  let cut = { Fault.site = Fault.Seg_scan_in 2; stuck = true } in
  let a = [ seal ] and b = [ cut; seal ] in
  List.iteri
    (fun k faults ->
      let got = Bmc.Session.check_targets_multi sess ~faults targets in
      let want =
        Bmc.Session.check_targets_multi (Bmc.Session.create model) ~faults
          targets
      in
      if got <> want then
        Alcotest.failf "call %d under [%s]: differs from a fresh session" k
          (String.concat "; " (List.map (Fault.to_string net) faults)))
    [ a; b; a; []; a; b; b; a ]

let suite =
  [
    Alcotest.test_case "fault-free depths" `Quick test_fault_free_depths;
    Alcotest.test_case "fault-free: all accessible" `Quick
      test_fault_free_all_accessible;
    Alcotest.test_case "PI stuck" `Quick test_pi_stuck;
    Alcotest.test_case "SIB stuck closed" `Quick test_sib_stuck_closed;
    Alcotest.test_case "forced-open module" `Quick
      test_more_steps_needed_under_fault;
    Alcotest.test_case "BMC = engine (small SIB)" `Slow test_agree_small_sib;
    Alcotest.test_case "BMC = engine (fig2)" `Slow test_agree_fig2;
    Alcotest.test_case "BMC = engine (small SIB, FT)" `Slow
      test_agree_small_sib_ft;
    Alcotest.test_case "BMC = engine (fig2, FT)" `Slow test_agree_fig2_ft;
    Alcotest.test_case "BMC = engine (4:1 mux)" `Slow test_agree_wide_mux;
    Alcotest.test_case "BMC = engine (4:1 mux, FT)" `Slow
      test_agree_wide_mux_ft;
    Alcotest.test_case "BMC = engine (random branchy nets)" `Slow
      test_agree_random_nets;
    Alcotest.test_case "BMC = engine (random branchy nets, FT)" `Slow
      test_agree_random_nets_ft;
    Alcotest.test_case "BMC write witness" `Quick test_write_witness;
    Alcotest.test_case "BMC write witness under fault" `Quick
      test_write_witness_under_fault;
    Alcotest.test_case "BMC depth = nesting" `Quick
      test_depth_grows_with_nesting;
    Alcotest.test_case "BMC depth = plan steps" `Quick
      test_bmc_depth_equals_plan_steps;
    Alcotest.test_case "session batch = one-shot (small SIB)" `Slow
      test_session_faults_small_sib;
    Alcotest.test_case "session batch = one-shot (fig2)" `Slow
      test_session_faults_fig2;
    Alcotest.test_case "session batch = one-shot (4:1 mux)" `Slow
      test_session_faults_wide_mux;
    Alcotest.test_case "fault circuits reuse the skeleton exactly" `Slow
      test_taint_covers_fault_nodes;
    Alcotest.test_case "session check_targets" `Quick
      test_session_check_targets;
    Alcotest.test_case "witness through reused solver" `Quick
      test_witness_through_reused_solver;
    Alcotest.test_case "emissions decrease across queries" `Quick
      test_emissions_decrease;
    Alcotest.test_case "witness replay (u226 sample, random nets)" `Slow
      test_witness_fidelity;
    Alcotest.test_case "minimal depth = first bound (random nets)" `Slow
      test_minimal_depth_random_nets;
    Alcotest.test_case "minimal depth = first bound (u226 singles, pairs)"
      `Slow test_minimal_depth_u226_multi;
    Alcotest.test_case "certified = plain (small SIB)" `Quick
      test_certified_small_sib;
    Alcotest.test_case "certified = plain (fig2)" `Slow test_certified_fig2;
    Alcotest.test_case "certified = plain (4:1 mux)" `Slow
      test_certified_wide_mux;
    Testseed.to_alcotest prop_certified_random_nets;
    Alcotest.test_case "certified u226 slice" `Slow test_certified_u226;
    Alcotest.test_case "certified Unsat answers per verdict (SIB nests)"
      `Quick test_certificates_per_verdict;
    Alcotest.test_case "batched decisions = check_access (u226 singles, pairs)"
      `Slow test_batched_u226;
    Testseed.to_alcotest prop_batched_random_nets;
    Alcotest.test_case "certified Unsat answers per batched call (SIB nests)"
      `Quick test_batched_certificates;
    Alcotest.test_case "live encoding: A, B, A = fresh sessions" `Quick
      test_live_alternation;
  ]
