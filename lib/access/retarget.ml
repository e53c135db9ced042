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

(* The fault's only view in this module: the simulator injection that the
   planner plans against and the replay executes.  [Fault.to_injection]
   already applies the TMR and duplicated-port masking, and is the
   identity for sites no static override expresses (bridges, voters,
   glitches). *)
let injection net = function
  | Some f -> Fault.to_injection net f
  | None -> Sim.no_injection

let cycles_of_paths net paths =
  List.fold_left
    (fun acc p -> acc + 2 + Config.path_length net p)
    0 paths

(* The value an injection list pins at [(a, b)], if any. *)
let stuck_at l a b =
  List.find_map (fun (x, y, v) -> if x = a && y = b then Some v else None) l

(* Address assignments needed to sensitize the witness path: for every
   (mux, input) pair of the chosen routes, the required value of each
   shadow-driven address bit.  Returns None on conflicting requirements or
   on requirements contradicting the injection's locked addresses and
   pinned shadows. *)
let assignments_of_witness (net : Netlist.t) (inj : Sim.injection)
    (w : Engine.witness) =
  let needed = Hashtbl.create 16 in
  let needed_prim = Hashtbl.create 8 in
  let conflict = ref false in
  let require tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some v' when v' <> v -> conflict := true
    | Some _ -> ()
    | None -> Hashtbl.add tbl key v
  in
  let must v required = if v <> required then conflict := true in
  List.iter
    (fun route ->
      List.iter
        (fun (m, k) ->
          Array.iteri
            (fun b ctrl ->
              let required = k land (1 lsl b) <> 0 in
              match stuck_at inj.Sim.stuck_mux_addr m b with
              | Some v -> must v required
              | None -> (
                  match ctrl with
                  | Netlist.Ctrl_const c -> must c required
                  | Netlist.Ctrl_primary p -> require needed_prim p required
                  | Netlist.Ctrl_shadow { cseg; cbit } -> (
                      match stuck_at inj.Sim.stuck_shadow cseg cbit with
                      | Some v -> must v required
                      | None -> require needed (cseg, cbit) required)))
            net.Netlist.muxes.(m).mux_addr)
        route)
    w.Engine.w_routes;
  if !conflict then None
  else
    Some
      ( Hashtbl.fold (fun (s, b) v acc -> (s, b, v) :: acc) needed [],
        Hashtbl.fold (fun p v acc -> (p, v) :: acc) needed_prim [] )

(* A write needs clean data from the scan-in up to the segment and a latch
   (update); a read needs a capture and clean data from the segment on to
   the scan-out. *)
type direction = Write | Read

(* Which segments of an element-level trace are usable in direction [dir]
   under the injection, in trace order with their clean flags.  The walk
   starts at the port the data comes from (scan-in for writes, scan-out
   for reads) and flags the stream corrupt once it passes a data fault: a
   stuck port, a mux output or a stuck selected input, a segment's
   entry side (its scan-in for writes, scan-out for reads), a shift stage,
   or a non-shifting segment, which freezes the stream behind it.  A
   segment is clean if nothing corrupt reaches it and its own shift,
   select and update (write) or capture (read) work; only stuck-at-0
   enables block. *)
let usable_on_trace (inj : Sim.injection) dir trace =
  let entry, exit, latch, port, items =
    match dir with
    | Write ->
        (inj.Sim.stuck_seg_in, inj.stuck_seg_out, inj.stuck_update,
         inj.stuck_pi, trace)
    | Read ->
        (inj.stuck_seg_out, inj.stuck_seg_in, inj.stuck_capture,
         inj.stuck_po, List.rev trace)
  in
  let corrupt = ref (port <> None) in
  let flags =
    List.fold_left
      (fun acc -> function
        | Sim.T_mux (m, k) ->
            if
              List.mem_assoc m inj.stuck_mux_out
              || List.exists (fun (m', k', _) -> m' = m && k' = k) inj.stuck_mux_in
            then corrupt := true;
            acc
        | Sim.T_seg s ->
            if List.mem_assoc s entry then corrupt := true;
            let shift = List.exists (fun (s', _, _) -> s' = s) inj.stuck_shift in
            let frozen = List.mem (s, false) inj.stuck_select in
            let ok =
              not (!corrupt || shift || frozen || List.mem (s, false) latch)
            in
            if shift || frozen || List.mem_assoc s exit then corrupt := true;
            (s, ok) :: acc)
      [] items
  in
  match dir with Write -> List.rev flags | Read -> flags

(* Whether segment [s] is on the path [ok_list] (from [usable_on_trace])
   and clean there. *)
let clean_on ok_list s = List.exists (fun (s', ok) -> s' = s && ok) ok_list

(* The active path of [cfg] with its clean-write flags; empty for an
   invalid configuration. *)
let writable_under net inj cfg =
  match Sim.active_trace net inj cfg with
  | None -> []
  | Some trace -> usable_on_trace inj Write trace

(* The one greedy configuration loop of the planner: each round writes, as
   one configuration CSU, every pending bit whose segment is cleanly
   writable on the active path of [!config], until nothing is pending.
   When no pending bit is writable, [stall pending] may change [config] or
   extend the pending list, answering the list to go on with, or [None] to
   give up.  Returns the CSU steps in order. *)
let greedy_steps net inj config ~pending ~step_primaries ~stall =
  let rec go steps pending =
    if pending = [] then Some (List.rev steps)
    else
      let ok_list = writable_under net inj !config in
      match List.partition (fun (s, _, _) -> clean_on ok_list s) pending with
      | [], _ -> Option.bind (stall pending) (go steps)
      | now, later ->
          List.iter
            (fun (s, b, v) -> Config.set_shadow !config ~seg:s ~bit:b v)
            now;
          let step =
            { writes = now; path = List.map fst ok_list;
              step_primaries = step_primaries () }
          in
          go (step :: steps) later
  in
  go [] pending

let plan_of net steps ~access_path ~target ~requirements ~primaries ~helpers =
  {
    steps;
    access_path;
    target;
    cycles =
      cycles_of_paths net (List.map (fun s -> s.path) steps @ [ access_path ]);
    requirements;
    primaries;
    helpers;
  }

let plan_with ~witness ctx ?fault ~target () =
  let net = Engine.netlist ctx in
  let inj = injection net fault in
  match witness ctx fault target with
  | None -> None
  | Some w -> (
      match assignments_of_witness net inj w with
      | None -> None
      | Some (assignments, primaries) -> (
          let config =
            ref
              (List.fold_left
                 (fun c (p, v) -> Config.set_primary c p v)
                 (Config.reset net) primaries)
          in
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
          let assert_helper p =
            helpers := (p, true) :: !helpers;
            helper_candidates := List.filter (fun q -> q <> p) !helper_candidates;
            config := Config.set_primary !config p true
          in
          let stall remaining =
            (* First look for a helper primary that unlocks a pending
               segment. *)
            let helps p =
              let ok' = writable_under net inj (Config.set_primary !config p true) in
              List.exists (fun (s, _, _) -> clean_on ok' s) remaining
            in
            match List.find_opt helps !helper_candidates with
            | Some p ->
                assert_helper p;
                Some remaining
            | None ->
                (* Expand a pending goal: to write a host segment it may
                   first need its own access path configured, which can
                   demand further (lower-rank) control bits.  Merge one
                   pending segment's own witness requirements into the
                   goal set, unless they conflict. *)
                let pending = ref remaining in
                let expanded = ref false in
                List.iter
                  (fun (s, _, _) ->
                    if not !expanded then
                      match Engine.access_witness ctx fault s with
                      | None -> ()
                      | Some w' -> (
                          match assignments_of_witness net inj w' with
                          | None -> ()
                          | Some (assigns', prims') ->
                              (* Merge the subgoal's route-enabling bits;
                                 keep-closed preferences and primary-false
                                 requirements are not commitments. *)
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
                                    pending := (s', b', v') :: !pending;
                                    expanded := true
                                  end)
                                assigns';
                              (* Helper lines are transient: even a primary
                                 the final configuration needs de-asserted
                                 may be asserted during configuration. *)
                              List.iter
                                (fun (p, v) ->
                                  if v && not (List.mem_assoc p !helpers)
                                  then begin
                                    assert_helper p;
                                    expanded := true
                                  end)
                                prims'))
                  remaining;
                if !expanded then Some !pending else None
          in
          match
            greedy_steps net inj config ~pending:enabling
              ~step_primaries:(fun () -> primaries @ List.rev !helpers)
              ~stall
          with
          | None -> None
          | Some steps -> (
              (* The final (access) configuration drops the helper lines
                 and keeps exactly the witness primaries. *)
              let final_cfg = { !config with Config.primaries = primaries } in
              match Sim.active_path net inj final_cfg with
              | Some path when List.mem target path ->
                  (* The requirements are exactly the assigned bits:
                     control bits disturbed as a side effect of a control
                     fault (e.g. a select stuck-at-1 segment latching
                     passing data) can only splice subtrees in or out of
                     the path, which the adaptive executor tolerates as
                     long as the final path still delivers clean data to
                     the target. *)
                  Some
                    (plan_of net steps ~access_path:path ~target
                       ~requirements:
                         (Hashtbl.fold
                            (fun (s, b) v acc -> (s, b, v) :: acc)
                            committed [])
                       ~primaries ~helpers:!helpers)
              | _ -> None)))

let plan_write ctx ?fault ~target () =
  plan_with ~witness:Engine.access_witness ctx ?fault ~target ()

let plan_read ctx ?fault ~target () =
  plan_with ~witness:Engine.read_witness ctx ?fault ~target ()

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
  inj : Sim.injection;
  mutable state : Sim.state;
  mutable streams : (bool list * bool list) list;
      (* (scan-in, scan-out) of every CSU so far, newest first *)
}

let replay net fault =
  { net; inj = injection net fault; state = Sim.initial net; streams = [] }

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

(* The one CSU of every replay: shifts in the stream that leaves [writes]
   and [patterns] in the segments of the active path [ok_list] (with the
   write flags of [usable_on_trace]) and records the (scan-in, scan-out)
   pair.  Segments receiving corrupted data must not latch it: their
   update is disabled (the Updis control of the paper's model, eq. 1). *)
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
      let ok_list = writable_under r.net r.inj r.state.Sim.config in
      match List.filter (fun (s, _, _) -> clean_on ok_list s) pending with
      | [] -> false
      | writes ->
          ignore (csu r ok_list ~writes ~patterns:[] : bool list);
          true)

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
   on the access configuration's path and clean there in direction [dir],
   then runs [run] on the path's writability list. *)
let access_csu r plan ~targets dir ~run =
  configure r plan;
  match Sim.active_trace r.net r.inj r.state.Sim.config with
  | None -> Error "invalid final configuration"
  | Some trace -> (
      let path = usable_on_trace r.inj dir trace in
      match List.find_opt (fun t -> not (clean_on path t)) targets with
      | Some t when List.mem_assoc t path ->
          let name = Netlist.segment_name r.net t in
          Error
            (match dir with
            | Write -> "final path does not deliver clean data to " ^ name
            | Read -> "final path does not observe " ^ name ^ " unscathed")
      | Some t ->
          Error
            (Printf.sprintf "%s not on the final active path [%s]"
               (Netlist.segment_name r.net t)
               (String.concat ";"
                  (List.map (fun (s, _) -> Netlist.segment_name r.net s) path)))
      | None -> Ok (run (usable_on_trace r.inj Write trace)))

let write r plan ~patterns =
  access_csu r plan ~targets:(List.map fst patterns) Write ~run:(fun ok_list ->
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
  access_csu r plan ~targets:[ plan.target ] Read ~run:(fun ok_list ->
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
      (* The union of the members' requirement bits, the first claim on a
         bit kept. *)
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
      (* Greedy grouping: fold targets into the current group while their
         requirement bits stay compatible; on conflict, start a new
         group. *)
      let conflict reqs reqs' =
        List.exists
          (fun (s, b, v) ->
            List.exists (fun (s', b', v') -> s = s' && b = b' && v <> v') reqs')
          reqs
      in
      let groups =
        List.rev
          (List.fold_left
             (fun groups (t, p) ->
               match groups with
               | cur :: rest when not (conflict p.requirements (reqs_of cur)) ->
                   (cur @ [ (t, p) ]) :: rest
               | _ -> [ (t, p) ] :: groups)
             [] singles)
      in
      (* Build one merged plan per group: union of requirements, union of
         primaries/helpers; the access path must deliver clean data to
         every target. *)
      let build members =
        let reqs = reqs_of members in
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
        let pending =
          List.filter
            (fun (s, b, v) -> Config.get_shadow !config ~seg:s ~bit:b <> v)
            reqs
        in
        match
          greedy_steps net inj config ~pending
            ~step_primaries:(fun () -> primaries @ helpers)
            ~stall:(fun _ -> None)
        with
        | None -> None
        | Some steps ->
            (* Every target must receive clean data on the shared access
               path; otherwise [build_best] splits the group. *)
            let ok_list =
              writable_under net inj { !config with Config.primaries }
            in
            if List.for_all (clean_on ok_list) ts then
              Some
                ( plan_of net steps ~access_path:(List.map fst ok_list)
                    ~target:(List.hd ts) ~requirements:reqs ~primaries
                    ~helpers,
                  ts )
            else None
      in
      (* Merging is not always a win: a shared access CSU shifts through
         EVERY spliced-in register, so groups dominated by long instrument
         chains can cost more than sequential access.  Recursively split a
         group in half whenever merging it costs more than the sum of its
         parts — converging on per-subtree groupings where those pay. *)
      let rec build_best members =
        match members with
        | [] -> Some []
        | [ (t, p) ] -> Some [ (p, [ t ]) ]
        | _ -> (
            let solo =
              List.fold_left (fun acc (_, p) -> acc + p.cycles) 0 members
            in
            let merged = build members in
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
      let built = List.map build_best groups in
      if List.exists (fun g -> g = None) built then None
      else begin
        let groups = List.concat (List.filter_map Fun.id built) in
        let merged_cycles =
          List.fold_left (fun acc (p, _) -> acc + p.cycles) 0 groups
        in
        Some { groups; merged_cycles; sequential_cycles }
      end
