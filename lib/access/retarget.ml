module Netlist = Ftrsn_rsn.Netlist
module Config = Ftrsn_rsn.Config
module Sim = Ftrsn_rsn.Sim
module Fault = Ftrsn_fault.Fault

type csu_step = {
  writes : (int * int * bool) list;
  path : int list;
  step_primaries : (string * bool) list;
      (* primary control lines asserted while this CSU runs *)
}

type plan = {
  steps : csu_step list;
  access_path : int list;
  target : int;
  cycles : int;
  requirements : (int * int * bool) list;
  primaries : (string * bool) list;
  helpers : (string * bool) list;
}

(* All shadow bits that drive some multiplexer address: the control state
   that determines the scan topology. *)
let control_bits (net : Netlist.t) =
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun (m : Netlist.mux) ->
      Array.iter
        (function
          | Netlist.Ctrl_shadow { cseg; cbit } ->
              Hashtbl.replace seen (cseg, cbit) ()
          | Netlist.Ctrl_const _ | Netlist.Ctrl_primary _ -> ())
        m.mux_addr)
    net.muxes;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* All primary control input names of a netlist (rescue and port-switch
   lines added by the fault-tolerant synthesis). *)
let primary_names (net : Netlist.t) =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (m : Netlist.mux) ->
      Array.iter
        (function
          | Netlist.Ctrl_primary p -> Hashtbl.replace seen p ()
          | Netlist.Ctrl_const _ | Netlist.Ctrl_shadow _ -> ())
        m.mux_addr)
    net.muxes;
  Hashtbl.fold (fun p () acc -> p :: acc) seen []

let injection net = function
  | Some f -> Fault.to_injection net f
  | None -> Sim.no_injection

let cycles_of_paths net paths =
  List.fold_left
    (fun acc p -> acc + 2 + Config.path_length net p)
    0 paths

(* Address assignments needed to sensitize the witness path: for every
   (mux, input) pair of the chosen routes, the required value of each
   shadow-driven address bit.  Returns None on conflicting requirements or
   on requirements contradicting the fault pins. *)
let assignments_of_witness (net : Netlist.t) fault (w : Engine.witness) =
  let needed = Hashtbl.create 16 in
  let needed_prim = Hashtbl.create 8 in
  let conflict = ref false in
  let require seg bit v =
    match Hashtbl.find_opt needed (seg, bit) with
    | Some v' when v' <> v -> conflict := true
    | Some _ -> ()
    | None -> Hashtbl.add needed (seg, bit) v
  in
  let require_prim p v =
    match Hashtbl.find_opt needed_prim p with
    | Some v' when v' <> v -> conflict := true
    | Some _ -> ()
    | None -> Hashtbl.add needed_prim p v
  in
  List.iter
    (fun route ->
      List.iter
        (fun (m, k) ->
          let mx = net.Netlist.muxes.(m) in
          Array.iteri
            (fun b ctrl ->
              let required = k land (1 lsl b) <> 0 in
              let addr_locked =
                match fault with
                | Some { Fault.site = Fault.Mux_addr (m', b'); stuck }
                  when m' = m && b' = b && not (Fault.port_masked_mux net m)
                  ->
                    Some stuck
                | _ -> None
              in
              match addr_locked with
              | Some v -> if v <> required then conflict := true
              | None -> (
                  match ctrl with
                  | Netlist.Ctrl_const c ->
                      if c <> required then conflict := true
                  | Netlist.Ctrl_primary p -> require_prim p required
                  | Netlist.Ctrl_shadow { cseg; cbit } -> (
                      let pinned =
                        match fault with
                        | Some
                            { Fault.site = Fault.Seg_shadow_reg (s, b'); stuck }
                          when s = cseg && b' = cbit
                               && not (Fault.tmr_protected_shadow net s b') ->
                            Some stuck
                        | _ -> None
                      in
                      match pinned with
                      | Some v -> if v <> required then conflict := true
                      | None -> require cseg cbit required)))
            mx.mux_addr)
        route)
    w.Engine.w_routes;
  if !conflict then None
  else
    Some
      ( Hashtbl.fold (fun (s, b) v acc -> (s, b, v) :: acc) needed [],
        Hashtbl.fold (fun p v acc -> (p, v) :: acc) needed_prim [] )

(* Which segments of an element-level trace receive uncorrupted write data
   under the fault: walks the trace from scan-in, flagging the stream as
   corrupt once it passes the fault site. *)
let writable_on_trace (net : Netlist.t) fault trace =
  let corrupt = ref false in
  (match fault with
  | Some { Fault.site = Fault.Primary_in; _ } when not net.Netlist.dual_ports ->
      corrupt := true
  | _ -> ());
  List.filter_map
    (fun item ->
      match item with
      | Sim.T_mux (m, k) ->
          (match fault with
          | Some { Fault.site = Fault.Mux_out m'; _ }
            when m' = m && not (Fault.port_masked_mux net m) ->
              corrupt := true
          | Some { Fault.site = Fault.Mux_data_in (m', k'); _ }
            when m' = m
                 && Netlist.mux_input_class net m k
                    = Netlist.mux_input_class net m' k'
                 && not (Fault.port_masked_mux net m) ->
              corrupt := true
          | _ -> ());
          None
      | Sim.T_seg s ->
          (match fault with
          | Some { Fault.site = Fault.Seg_scan_in s'; _ } when s' = s ->
              corrupt := true
          | _ -> ());
          let ok =
            (not !corrupt)
            &&
            match fault with
            | Some { Fault.site = Fault.Seg_shift_reg s'; _ } when s' = s ->
                false
            | Some { Fault.site = Fault.Seg_update_en s'; stuck = false }
              when s' = s ->
                false
            | Some { Fault.site = Fault.Seg_select s'; stuck = false }
              when s' = s ->
                false
            | _ -> true
          in
          (match fault with
          | Some { Fault.site = Fault.Seg_shift_reg s'; _ } when s' = s ->
              corrupt := true
          | Some { Fault.site = Fault.Seg_scan_out s'; _ } when s' = s ->
              corrupt := true
          | Some { Fault.site = Fault.Seg_select s'; stuck = false }
            when s' = s ->
              (* A non-shifting segment freezes the stream behind it. *)
              corrupt := true
          | _ -> ());
          Some (s, ok))
    trace

(* Whether segment [s] is on the path [ok_list] (from [writable_on_trace] or
   [readable_on_trace]) and clean there. *)
let clean_on ok_list s = List.exists (fun (s', ok) -> s' = s && ok) ok_list

let plan_with ~witness ctx ?fault ~target () =
  let net = Engine.netlist ctx in
  match witness ctx fault target with
  | None -> None
  | Some w -> (
      match assignments_of_witness net fault w with
      | None -> None
      | Some (assignments, primaries) ->
          let inj = injection net fault in
          let config =
            ref
              (List.fold_left
                 (fun c (p, v) -> Config.set_primary c p v)
                 (Config.reset net) primaries)
          in
          let steps = ref [] in
          let helpers = ref [] in
          (* Only route-ENABLING bits (required 1) are commitments to
             write; required-0 bits are "keep closed" preferences that hold
             at reset and, if overridden by a subgoal or by fault-induced
             junk, merely lengthen the active path — the semantic check on
             the final configuration decides. *)
          let enabling =
            List.filter
              (fun (s, b, v) ->
                v
                && Config.get_shadow !config ~seg:s ~bit:b <> v
                ||
                (* a non-reset required-0 bit still needs an explicit
                   write (does not arise with all-zero resets) *)
                ((not v) && Config.get_shadow !config ~seg:s ~bit:b))
              assignments
          in
          let committed = Hashtbl.create 16 in
          List.iter (fun (s, b, v) -> Hashtbl.replace committed (s, b) v)
            enabling;
          let remaining = ref enabling in
          (* Rescue/port primaries not demanded by the witness can still be
             needed transiently: force-opening a subtree makes a pending
             control bit reachable.  When the greedy write loop stalls, try
             asserting one more helper line. *)
          let helper_candidates =
            ref
              (List.filter
                 (fun p -> not (List.mem_assoc p primaries))
                 (primary_names net))
          in
          let writable_now cfg =
            match Sim.active_trace net inj cfg with
            | None -> []
            | Some trace -> writable_on_trace net fault trace
          in
          let stuck = ref false in
          while !remaining <> [] && not !stuck do
            let ok_list = writable_now !config in
            let now, later =
              List.partition (fun (s, _, _) -> clean_on ok_list s) !remaining
            in
            if now = [] then begin
              (* Stalled: first look for a helper primary that unlocks a
                 pending segment. *)
              let helps p =
                let cfg = Config.set_primary !config p true in
                let ok' = writable_now cfg in
                List.exists (fun (s, _, _) -> clean_on ok' s) !remaining
              in
              match List.find_opt helps !helper_candidates with
              | Some p ->
                  helpers := (p, true) :: !helpers;
                  helper_candidates :=
                    List.filter (fun q -> q <> p) !helper_candidates;
                  config := Config.set_primary !config p true
              | None ->
                  (* Expand a pending goal: to write a host segment it may
                     first need its own access path configured, which can
                     demand further (lower-rank) control bits.  Merge one
                     pending segment's own witness requirements into the
                     goal set, unless they conflict. *)
                  let expanded = ref false in
                  List.iter
                    (fun (s, _, _) ->
                      if not !expanded then
                        match Engine.access_witness ctx fault s with
                        | None -> ()
                        | Some w' -> (
                            match assignments_of_witness net fault w' with
                            | None -> ()
                            | Some (assigns', prims') ->
                                (* Merge the subgoal's route-enabling bits;
                                   keep-closed preferences and
                                   primary-false requirements are not
                                   commitments. *)
                                List.iter
                                  (fun (s', b', v') ->
                                    if
                                      v'
                                      && (not (Hashtbl.mem committed (s', b')))
                                      && Config.get_shadow !config ~seg:s'
                                           ~bit:b'
                                         <> v'
                                    then begin
                                      Hashtbl.add committed (s', b') v';
                                      remaining := (s', b', v') :: !remaining;
                                      expanded := true
                                    end)
                                  assigns';
                                List.iter
                                  (fun (p, v) ->
                                    (* Helper lines are transient: even a
                                       primary the final configuration
                                       needs de-asserted may be asserted
                                       during configuration. *)
                                    if v && not (List.mem_assoc p !helpers)
                                    then begin
                                      helpers := (p, true) :: !helpers;
                                      helper_candidates :=
                                        List.filter (fun q -> q <> p)
                                          !helper_candidates;
                                      config :=
                                        Config.set_primary !config p true;
                                      expanded := true
                                    end)
                                  prims'))
                    !remaining;
                  if not !expanded then stuck := true
            end
            else begin
              List.iter
                (fun (s, b, v) -> Config.set_shadow !config ~seg:s ~bit:b v)
                now;
              let path = List.map fst ok_list in
              steps :=
                { writes = now; path;
                  step_primaries = primaries @ List.rev !helpers }
                :: !steps;
              remaining := later
            end
          done;
          if !stuck then None
          else
            (* The final (access) configuration drops the helper lines and
               keeps exactly the witness primaries. *)
            let final_cfg =
              { !config with Config.primaries = primaries }
            in
            match Sim.active_path net inj final_cfg with
            | Some path when List.mem target path ->
                let steps = List.rev !steps in
                let all_paths = List.map (fun s -> s.path) steps @ [ path ] in
                (* The requirements are exactly the assigned bits: control
                   bits disturbed as a side effect of a control fault (e.g.
                   a select stuck-at-1 segment latching passing data) can
                   only splice subtrees in or out of the path, which the
                   adaptive executor tolerates as long as the final path
                   still delivers clean data to the target. *)
                Some
                  {
                    steps;
                    access_path = path;
                    target;
                    cycles = cycles_of_paths net all_paths;
                    requirements =
                      Hashtbl.fold
                        (fun (s, b) v acc -> (s, b, v) :: acc)
                        committed [];
                    primaries;
                    helpers = !helpers;
                  }
            | _ -> None)

let plan_write ctx ?fault ~target () =
  plan_with ~witness:Engine.access_witness ctx ?fault ~target ()

let plan_read ctx ?fault ~target () =
  plan_with ~witness:Engine.read_witness ctx ?fault ~target ()

(* Dual of [writable_on_trace]: which segments of a trace can be READ
   unscathed — no corrupting or non-shifting element between the segment
   (inclusive) and the scan-out.  Walks the trace from the scan-out side. *)
let readable_on_trace (net : Netlist.t) fault trace =
  let corrupt = ref false in
  (match fault with
  | Some { Fault.site = Fault.Primary_out; _ } when not net.Netlist.dual_ports
    ->
      corrupt := true
  | _ -> ());
  let out =
    List.rev_map
      (fun item ->
        match item with
        | Sim.T_mux (m, k) ->
            (match fault with
            | Some { Fault.site = Fault.Mux_out m'; _ }
              when m' = m && not (Fault.port_masked_mux net m) ->
                corrupt := true
            | Some { Fault.site = Fault.Mux_data_in (m', k'); _ }
              when m' = m
                   && Netlist.mux_input_class net m k
                      = Netlist.mux_input_class net m' k'
                   && not (Fault.port_masked_mux net m) ->
                corrupt := true
            | _ -> ());
            None
        | Sim.T_seg s ->
            (* Damage at the segment's output side is seen first when
               walking backwards. *)
            (match fault with
            | Some { Fault.site = Fault.Seg_scan_out s'; _ } when s' = s ->
                corrupt := true
            | _ -> ());
            let ok =
              (not !corrupt)
              &&
              match fault with
              | Some { Fault.site = Fault.Seg_shift_reg s'; _ } when s' = s ->
                  false
              | Some { Fault.site = Fault.Seg_capture_en s'; stuck = false }
                when s' = s ->
                  false
              | Some { Fault.site = Fault.Seg_select s'; stuck = false }
                when s' = s ->
                  false
              | _ -> true
            in
            (match fault with
            | Some { Fault.site = Fault.Seg_shift_reg s'; _ } when s' = s ->
                corrupt := true
            | Some { Fault.site = Fault.Seg_scan_in s'; _ } when s' = s ->
                corrupt := true
            | Some { Fault.site = Fault.Seg_select s'; stuck = false }
              when s' = s ->
                corrupt := true
            | _ -> ());
            Some (s, ok))
      (List.rev trace)
  in
  (* rev_map over rev preserves original order but wraps options. *)
  List.filter_map Fun.id out

(* Build the scan-in stream that leaves each path segment's shift register
   holding the desired contents after [path length] shift cycles.  Bits are
   listed first-in first: the bit fed at cycle t lands at global flop
   position (L - 1 - t). *)
let stream_for (net : Netlist.t) (state : Sim.state) path ~writes
    ~(patterns : (int * bool list) list) =
  let desired =
    List.map
      (fun s ->
        let seg = net.Netlist.segs.(s) in
        let d = Array.make seg.Netlist.seg_len false in
        (* Preserve current shadow contents by default (the update at the
           end of the CSU rewrites every selected shadow).  Shadow bit j
           mirrors shift stage [len - shadow + j]. *)
        let off = seg.Netlist.seg_len - seg.Netlist.seg_shadow in
        for j = 0 to seg.Netlist.seg_shadow - 1 do
          d.(off + j) <- state.Sim.config.Config.shadows.(s).(j)
        done;
        List.iter (fun (s', b, v) -> if s' = s then d.(off + b) <- v) writes;
        (match List.assoc_opt s patterns with
        | Some bits ->
            List.iteri
              (fun j v -> if j < Array.length d then d.(j) <- v)
              bits
        | None -> ());
        d)
      path
  in
  let flat = Array.concat desired in
  let len = Array.length flat in
  List.init len (fun t -> flat.(len - 1 - t))

(* ---- replay ----

   Every execution of a plan is one replay on the CSU simulator, with the
   fault injected if given: [configure] brings the network into the plan's
   access configuration, then one access CSU writes the targets' patterns
   or reads the target's captured bits.  Control faults can disturb
   shadow bits as a side effect of shifting (a select stuck-at-1 segment
   latches passing data), so the replay adapts to the simulator's actual
   state rather than trusting the plan; the access CSU's checks decide
   success. *)

type replay = {
  net : Netlist.t;
  fault : Fault.t option;
  inj : Sim.injection;
  mutable state : Sim.state;
  mutable streams : (bool list * bool list) list;
      (* (scan-in, scan-out) of every CSU so far, newest first *)
}

let replay net fault =
  { net; fault; inj = injection net fault; state = Sim.initial net;
    streams = [] }

let set_primaries r prims =
  r.state <-
    {
      r.state with
      Sim.config =
        List.fold_left
          (fun c (p, v) -> Config.set_primary c p v)
          { r.state.Sim.config with Config.primaries = [] }
          prims;
    }

let active_trace r = Sim.active_trace r.net r.inj r.state.Sim.config

(* The one CSU of every replay: shifts in the stream that leaves [writes]
   and [patterns] in the segments of the active path [ok_list] (from
   [writable_on_trace]) and records the (scan-in, scan-out) pair.  Segments
   receiving corrupted data must not latch it: their update is disabled
   (the Updis control of the paper's model, eq. 1). *)
let csu r ok_list ~writes ~patterns =
  let updis =
    List.filter_map (fun (s, ok) -> if ok then None else Some s) ok_list
  in
  let stream =
    stream_for r.net r.state (List.map fst ok_list) ~writes ~patterns
  in
  let out = Sim.csu r.net ~inj:r.inj ~updis r.state ~scan_in:stream in
  r.streams <- (stream, out) :: r.streams;
  out

(* One configuration CSU writing those of [bits] that the shadows do not
   hold yet and that are cleanly writable on the active path.  [false] if
   it wrote nothing: nothing pending, nothing reachable, or an invalid
   configuration. *)
let write_pending r bits =
  match
    List.filter
      (fun (s, b, v) -> Config.get_shadow r.state.Sim.config ~seg:s ~bit:b <> v)
      bits
  with
  | [] -> false
  | pending -> (
      match active_trace r with
      | None -> false
      | Some trace -> (
          let ok_list = writable_on_trace r.net r.fault trace in
          match List.filter (fun (s, _, _) -> clean_on ok_list s) pending with
          | [] -> false
          | writes ->
              ignore (csu r ok_list ~writes ~patterns:[] : bool list);
              true))

(* Phase 1 replays the planned CSUs under the primary lines each was
   planned with (helper lines activate progressively); writes that fail to
   apply are left to phase 2.  Phase 2 asserts every helper and repairs
   the requirement bits, as far as they are reachable; bits that end up
   unreachable (e.g. "keep this subtree bypassed" bits behind a corrupting
   fault site) are tolerated.  The helpers are then dropped: only the
   witness primaries stay asserted for the access CSU. *)
let configure r plan =
  List.iter
    (fun step ->
      set_primaries r step.step_primaries;
      ignore (write_pending r step.writes : bool))
    plan.steps;
  set_primaries r (plan.primaries @ plan.helpers);
  let max_iters = 4 * (Netlist.num_segments r.net + 2) in
  let rec repair iter =
    if iter <= max_iters && write_pending r plan.requirements then
      repair (iter + 1)
  in
  repair 0;
  set_primaries r plan.primaries

(* The access CSU: configures [r] for [plan], checks that every target is
   on the access configuration's path and clean there ([usable] maps the
   trace to the path's segments with their writability or readability),
   then runs [run] on the path's writability list. *)
let access_csu r plan ~targets ~usable ~unusable ~run =
  configure r plan;
  match active_trace r with
  | None -> Error "invalid final configuration"
  | Some trace -> (
      let path = usable r.net r.fault trace in
      match List.find_opt (fun t -> not (clean_on path t)) targets with
      | Some t when List.mem_assoc t path ->
          Error (unusable (Netlist.segment_name r.net t))
      | Some t ->
          Error
            (Printf.sprintf "%s not on the final active path [%s]"
               (Netlist.segment_name r.net t)
               (String.concat ";"
                  (List.map (fun (s, _) -> Netlist.segment_name r.net s) path)))
      | None -> Ok (run (writable_on_trace r.net r.fault trace)))

let write r plan ~patterns =
  access_csu r plan ~targets:(List.map fst patterns) ~usable:writable_on_trace
    ~unusable:(Printf.sprintf "final path does not deliver clean data to %s")
    ~run:(fun ok_list ->
      ignore (csu r ok_list ~writes:[] ~patterns : bool list);
      r.state)

let execute net ?fault plan ~patterns = write (replay net fault) plan ~patterns

let trace_execution net plan ~pattern =
  let r = replay net None in
  Result.map
    (fun _ -> List.rev r.streams)
    (write r plan ~patterns:[ (plan.target, pattern) ])

(* Read access: plant the instrument data the access CSU's capture picks
   up, then extract the target's bits from the scan-out stream.  Bit j of
   the target (global position off + j, off = sum of the lengths of
   preceding path segments) appears at output cycle L - 1 - (off + j). *)
let execute_read net ?fault plan ~instrument =
  let r = replay net fault in
  let len = Netlist.seg_len net plan.target in
  List.iteri
    (fun j v -> if j < len then r.state.Sim.instrument.(plan.target).(j) <- v)
    instrument;
  access_csu r plan ~targets:[ plan.target ] ~usable:readable_on_trace
    ~unusable:(Printf.sprintf "final path does not observe %s unscathed")
    ~run:(fun ok_list ->
      let out = Array.of_list (csu r ok_list ~writes:[] ~patterns:[]) in
      let rec offset acc = function
        | s :: tl when s <> plan.target ->
            offset (acc + Netlist.seg_len net s) tl
        | _ -> acc
      in
      let off = offset 0 (List.map fst ok_list) in
      List.init len (fun j -> out.(Array.length out - 1 - (off + j))))

(* ---- merged multi-target retargeting ----

   Accessing several segments with one CSU schedule (in the spirit of
   "Scan Pattern Retargeting and Merging with Reduced Access Time",
   Baranowski et al., ETS'13): targets whose steering requirements are
   compatible are grouped; each group shares its configuration CSUs and a
   single access CSU whose active path carries every target of the group. *)

type merged_plan = {
  groups : (plan * int list) list;
      (* per group: the plan (its [target] is the first of the group) and
         all the group's targets *)
  merged_cycles : int;
  sequential_cycles : int;  (* cost of accessing each target separately *)
}

let plan_write_merged ctx ?fault ~targets () =
  let net = Engine.netlist ctx in
  let inj = injection net fault in
  (* Individual plans first: unreachable targets fail the merge. *)
  let rec plan_all = function
    | [] -> Some []
    | t :: tl -> (
        match plan_write ctx ?fault ~target:t () with
        | None -> None
        | Some p -> Option.map (fun ps -> (t, p) :: ps) (plan_all tl))
  in
  match plan_all targets with
  | None -> None
  | Some [] -> Some { groups = []; merged_cycles = 0; sequential_cycles = 0 }
  | Some singles ->
      let sequential_cycles =
        List.fold_left (fun acc (_, p) -> acc + p.cycles) 0 singles
      in
      (* Greedy grouping: fold targets into the current group while their
         requirement bits stay compatible; on conflict, start a new
         group. *)
      let conflict reqs reqs' =
        List.exists
          (fun (s, b, v) ->
            List.exists (fun (s', b', v') -> s = s' && b = b' && v <> v') reqs')
          reqs
      in
      let groups = ref [] in
      let cur = ref [] in
      let cur_reqs = ref [] in
      let flush () =
        if !cur <> [] then begin
          groups := (List.rev !cur, !cur_reqs) :: !groups;
          cur := [];
          cur_reqs := []
        end
      in
      List.iter
        (fun (t, p) ->
          if conflict p.requirements !cur_reqs then flush ();
          cur := (t, p) :: !cur;
          cur_reqs :=
            !cur_reqs
            @ List.filter
                (fun (s, b, _) ->
                  not
                    (List.exists (fun (s', b', _) -> s = s' && b = b') !cur_reqs))
                p.requirements)
        singles;
      flush ();
      let groups = List.rev !groups in
      (* Build one merged plan per group: union of requirements, union of
         primaries/helpers; the access path must deliver clean data to
         every target. *)
      let build (members, reqs) =
        let ts = List.map fst members in
        let plans = List.map snd members in
        let union_assoc l =
          List.fold_left
            (fun acc kv -> if List.mem kv acc then acc else acc @ [ kv ])
            [] l
        in
        let primaries = union_assoc (List.concat_map (fun p -> p.primaries) plans) in
        let helpers = union_assoc (List.concat_map (fun p -> p.helpers) plans) in
        let config =
          ref
            (List.fold_left
               (fun c (p, v) -> Config.set_primary c p v)
               (Config.reset net) (primaries @ helpers))
        in
        let steps = ref [] in
        let remaining =
          ref
            (List.filter
               (fun (s, b, v) -> Config.get_shadow !config ~seg:s ~bit:b <> v)
               reqs)
        in
        let stuck = ref false in
        while !remaining <> [] && not !stuck do
          match Sim.active_trace net inj !config with
          | None -> stuck := true
          | Some trace ->
              let ok_list = writable_on_trace net fault trace in
              let now, later =
                List.partition (fun (s, _, _) -> clean_on ok_list s) !remaining
              in
              if now = [] then stuck := true
              else begin
                List.iter
                  (fun (s, b, v) -> Config.set_shadow !config ~seg:s ~bit:b v)
                  now;
                steps :=
                  { writes = now; path = List.map fst ok_list;
                    step_primaries = primaries @ helpers }
                  :: !steps;
                remaining := later
              end
        done;
        if !stuck then None
        else
          (* Every target must receive clean data on the shared access
             path; otherwise [build_best] splits the group. *)
          let final_cfg = { !config with Config.primaries } in
          match
            Option.map (writable_on_trace net fault)
              (Sim.active_trace net inj final_cfg)
          with
          | Some ok_list when List.for_all (clean_on ok_list) ts ->
              let path = List.map fst ok_list in
              let steps = List.rev !steps in
              let all_paths = List.map (fun s -> s.path) steps @ [ path ] in
              Some
                ( {
                    steps;
                    access_path = path;
                    target = List.hd ts;
                    cycles = cycles_of_paths net all_paths;
                    requirements = reqs;
                    primaries;
                    helpers;
                  },
                  ts )
          | _ -> None
      in
      (* Merging is not always a win: a shared access CSU shifts through
         EVERY spliced-in register, so groups dominated by long instrument
         chains can cost more than sequential access.  Recursively split a
         group in half whenever merging it costs more than the sum of its
         parts — converging on per-subtree groupings where those pay. *)
      let reqs_of members =
        List.fold_left
          (fun acc (_, p) ->
            acc
            @ List.filter
                (fun (s, b, _) ->
                  not (List.exists (fun (s', b', _) -> s = s' && b = b') acc))
                p.requirements)
          [] members
      in
      let rec build_best members =
        match members with
        | [] -> Some []
        | [ (t, p) ] -> Some [ (p, [ t ]) ]
        | _ -> (
            let solo =
              List.fold_left (fun acc (_, p) -> acc + p.cycles) 0 members
            in
            let merged = build (members, reqs_of members) in
            let split () =
              let n = List.length members in
              let left = List.filteri (fun i _ -> i < n / 2) members in
              let right = List.filteri (fun i _ -> i >= n / 2) members in
              match (build_best left, build_best right) with
              | Some a, Some b -> Some (a @ b)
              | _ -> None
            in
            match merged with
            | Some (plan, ts) when plan.cycles <= solo -> (
                (* Try splitting anyway; keep whichever is cheaper. *)
                match split () with
                | Some parts ->
                    let part_cost =
                      List.fold_left (fun acc (p, _) -> acc + p.cycles) 0 parts
                    in
                    if part_cost < plan.cycles then Some parts
                    else Some [ (plan, ts) ]
                | None -> Some [ (plan, ts) ])
            | _ -> split ())
      in
      let built = List.map (fun (members, _) -> build_best members) groups in
      if List.exists (fun g -> g = None) built then None
      else begin
        let groups = List.concat (List.filter_map Fun.id built) in
        let merged_cycles =
          List.fold_left (fun acc (p, _) -> acc + p.cycles) 0 groups
        in
        Some { groups; merged_cycles; sequential_cycles }
      end
