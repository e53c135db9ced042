module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Bmc = Ftrsn_bmc.Bmc
module Solver = Ftrsn_sat.Solver
module Bitset = Ftrsn_topo.Bitset

type solver_stats = {
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_learnt_lits : int;
  s_minimized_lits : int;
  s_reductions : int;
  s_learnt_db : int;
  s_clauses_emitted : int;
  s_nodes_reused : int;
  s_simp_passes : int;  (* always 0; see metric.mli *)
  (* certified-mode counters; all zero when certification was off *)
  s_cert_unsat : int;
  s_cert_lemmas : int;
  s_cert_deletes : int;
  s_cert_time : float;
}

type reduction_stats = {
  r_universe : int;
  r_classes : int;
  r_benign : int;
  r_cone_sum : int;
  r_cone_max : int;
}

type pair_stats = {
  p_classes : int;      (* fault classes in the collapsed universe *)
  p_class_pairs : int;  (* unordered class pairs examined (incl. diagonal) *)
  p_diagonal : int;     (* same-class pairs: answered by the single verdict *)
  p_disjoint : int;     (* non-interacting pairs: pointwise-AND counting *)
  p_stacked : int;      (* interacting pairs: a pair lane, arithmetic or SAT *)
  p_stacks : int;       (* always 0; see metric.mli *)
}

type result = {
  worst_segments : float;
  avg_segments : float;
  worst_bits : float;
  avg_bits : float;
  faults : int;
  total_weight : int;
  steals : int;
  solver : solver_stats option;
  reduction : reduction_stats option;
  lanes : Engine.lane_stats option;
  pairs : pair_stats option;
  pair_lanes : Engine.lane_stats option;
}

(* Typed rejection for requests outside an evaluator's semantic scope
   (transient double faults: two glitches are not a set-wise union of
   summaries; a model whose fault universe on the network is empty).
   Distinct from [Invalid_argument] — which stays reserved for caller
   bugs — so the service layer can map it to a stable error variant
   instead of an internal error. *)
exception Unsupported of string

let merge_solver a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some x, Some y ->
      Some
        {
          s_conflicts = x.s_conflicts + y.s_conflicts;
          s_decisions = x.s_decisions + y.s_decisions;
          s_propagations = x.s_propagations + y.s_propagations;
          s_restarts = x.s_restarts + y.s_restarts;
          s_learnt_lits = x.s_learnt_lits + y.s_learnt_lits;
          s_minimized_lits = x.s_minimized_lits + y.s_minimized_lits;
          s_reductions = x.s_reductions + y.s_reductions;
          s_learnt_db = x.s_learnt_db + y.s_learnt_db;
          s_clauses_emitted = x.s_clauses_emitted + y.s_clauses_emitted;
          s_nodes_reused = x.s_nodes_reused + y.s_nodes_reused;
          s_simp_passes = 0;
          s_cert_unsat = x.s_cert_unsat + y.s_cert_unsat;
          s_cert_lemmas = x.s_cert_lemmas + y.s_cert_lemmas;
          s_cert_deletes = x.s_cert_deletes + y.s_cert_deletes;
          s_cert_time = x.s_cert_time +. y.s_cert_time;
        }

let merge_lanes a b =
  match (a, b) with
  | None, l | l, None -> l
  | Some x, Some y -> Some (Engine.lane_stats_add x y)

(* ---- the per-domain accumulator ----

   One record serves every sweep: the accessible-count aggregates, the
   cone sizes of a reduced sweep, the pair dispatch counts, and the lane
   and solver statistics.  Every field is folded with commutative
   operations (min / sum), and the counts are exact integers, so the
   gathered result is bit-identical however the items are partitioned
   or interleaved across domains — the property that lets the dynamic
   scheduler reorder work freely and the collapsed classes stand in for
   their members.  The single float division happens once at the end. *)
type part = {
  mutable min_segs : int;
  mutable min_bits : int;
  mutable sum_segs : int;  (* sum over faults of accessible segments *)
  mutable sum_bits : int;  (* sum over faults of accessible bits *)
  mutable count : int;     (* faults (or fault pairs) represented *)
  mutable cone_sum : int;
  mutable cone_max : int;
  mutable diagonal : int;  (* pair dispatch, as in [pair_stats] *)
  mutable disjoint : int;
  mutable stacked : int;
  mutable lanes : Engine.lane_stats option;
  mutable solver : solver_stats option;
  mutable steals : int;
}

let part () =
  {
    min_segs = max_int;
    min_bits = max_int;
    sum_segs = 0;
    sum_bits = 0;
    count = 0;
    cone_sum = 0;
    cone_max = 0;
    diagonal = 0;
    disjoint = 0;
    stacked = 0;
    lanes = None;
    solver = None;
    steals = 0;
  }

(* [n] faults, each leaving [segs] segments and [bits] bits
   accessible. *)
let add p ~n ~segs ~bits =
  if segs < p.min_segs then p.min_segs <- segs;
  if bits < p.min_bits then p.min_bits <- bits;
  p.sum_segs <- p.sum_segs + (n * segs);
  p.sum_bits <- p.sum_bits + (n * bits);
  p.count <- p.count + n

let note_cone p cone =
  p.cone_sum <- p.cone_sum + cone;
  if cone > p.cone_max then p.cone_max <- cone

let note_lanes p st = p.lanes <- merge_lanes p.lanes (Some st)

(* Merges the [(part, steals)] partials of one or more sweeps. *)
let gather partials =
  let g = part () in
  List.iter
    (fun (p, steals) ->
      g.min_segs <- min g.min_segs p.min_segs;
      g.min_bits <- min g.min_bits p.min_bits;
      g.sum_segs <- g.sum_segs + p.sum_segs;
      g.sum_bits <- g.sum_bits + p.sum_bits;
      g.count <- g.count + p.count;
      g.cone_sum <- g.cone_sum + p.cone_sum;
      g.cone_max <- max g.cone_max p.cone_max;
      g.diagonal <- g.diagonal + p.diagonal;
      g.disjoint <- g.disjoint + p.disjoint;
      g.stacked <- g.stacked + p.stacked;
      g.lanes <- merge_lanes g.lanes p.lanes;
      g.solver <- merge_solver g.solver p.solver;
      g.steals <- g.steals + steals)
    partials;
  g

(* The result of a gathered sweep.  [reduction] is the (universe,
   classes, benign) count of a reduced single-fault sweep, [pairs] the
   class count of an exhaustive pair sweep, whose lane statistics are
   the pair lanes. *)
let result ~what ~net ?reduction ?pairs g =
  if g.count = 0 then invalid_arg (what ^ ": empty fault list");
  let fsegs = float_of_int (Netlist.num_segments net) in
  let fbits = float_of_int (Netlist.total_bits net) in
  let fcount = float_of_int g.count in
  {
    worst_segments = float_of_int g.min_segs /. fsegs;
    avg_segments = float_of_int g.sum_segs /. (fcount *. fsegs);
    worst_bits = float_of_int g.min_bits /. fbits;
    avg_bits = float_of_int g.sum_bits /. (fcount *. fbits);
    faults = g.count;
    total_weight = g.count;
    steals = g.steals;
    solver = g.solver;
    reduction =
      Option.map
        (fun (universe, classes, benign) ->
          {
            r_universe = universe;
            r_classes = classes;
            r_benign = benign;
            r_cone_sum = g.cone_sum;
            r_cone_max = g.cone_max;
          })
        reduction;
    lanes = (if pairs = None then g.lanes else None);
    pairs =
      Option.map
        (fun nc ->
          {
            p_classes = nc;
            p_class_pairs = nc * (nc + 1) / 2;
            p_diagonal = g.diagonal;
            p_disjoint = g.disjoint;
            p_stacked = g.stacked;
            p_stacks = 0;
          })
        pairs;
    pair_lanes = (if pairs = None then None else g.lanes);
  }

(* ---- dynamic work-stealing scheduler ----

   One shared atomic cursor over the item array; every domain claims the
   next unclaimed item until exhaustion, so an expensive item (a trunk
   fault, a slow SAT query) delays only the domain it runs on while the
   others drain the rest of the queue.  An item counts as stolen when it
   lands on a different domain than the static ceil-chunk split would
   have assigned.  [init] builds each domain's private worker state
   (engine context or SAT session), [step] folds one item into it and
   [finish] extracts the partial result; partials merge exactly because
   the accumulators are integers. *)
let steal_map ~domains items ~init ~step ~finish =
  let n = Array.length items in
  let next = Atomic.make 0 in
  let chunk = if domains <= 1 then max n 1 else (n + domains - 1) / domains in
  let run d () =
    let st = init d in
    let steals = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue_ := false
      else begin
        if i / chunk <> d then incr steals;
        step st items.(i)
      end
    done;
    (finish st, !steals)
  in
  if domains <= 1 then [ run 0 () ]
  else
    List.map Domain.join
      (List.init domains (fun d -> Domain.spawn (run d)))

(* One sweep over [items]: every domain opens its verdict source with
   [open_ part], which returns the step folding one item into [part]
   and the action that closes the source; the partials go to
   [gather]. *)
let sweep ~domains items open_ =
  steal_map ~domains items
    ~init:(fun _ ->
      let p = part () in
      let step, close = open_ p in
      (p, step, close))
    ~step:(fun (_, step, _) x -> step x)
    ~finish:(fun (p, _, close) ->
      close ();
      p)

(* Accessible segments and bits of an accessible-segment vector. *)
let count net acc =
  let segs = ref 0 and bits = ref 0 in
  Array.iteri
    (fun i ok ->
      if ok then begin
        incr segs;
        bits := !bits + Netlist.seg_len net i
      end)
    acc;
  (!segs, !bits)

let solver_stats_of_session (st : Bmc.Session.stats) =
  let ss = st.Bmc.Session.search in
  let cu, cl, cd, ct =
    match st.Bmc.Session.cert with
    | None -> (0, 0, 0, 0.0)
    | Some c ->
        ( c.Bmc.Session.cert_unsat, c.Bmc.Session.cert_lemmas,
          c.Bmc.Session.cert_deletes, c.Bmc.Session.cert_time )
  in
  {
    s_conflicts = ss.Solver.st_conflicts;
    s_decisions = ss.Solver.st_decisions;
    s_propagations = ss.Solver.st_propagations;
    s_restarts = ss.Solver.st_restarts;
    s_learnt_lits = ss.Solver.st_learnt_lits;
    s_minimized_lits = ss.Solver.st_minimized_lits;
    s_reductions = ss.Solver.st_reductions;
    s_learnt_db = ss.Solver.st_learnt_db;
    s_clauses_emitted = st.Bmc.Session.clauses_emitted;
    s_nodes_reused = st.Bmc.Session.nodes_reused;
    s_simp_passes = 0;
    s_cert_unsat = cu;
    s_cert_lemmas = cl;
    s_cert_deletes = cd;
    s_cert_time = ct;
  }

let solver_of_session sess =
  Some (solver_stats_of_session (Bmc.Session.stats sess))

(* One class of the exhaustive pair sweep, as phase 1 leaves it (the
   full definition is documented at the pair sweep below).  Declared
   here so the warm per-netlist state can cache it. *)
type pair_class = {
  pc_gate : Engine.gate;
  pc_members : int;
  pc_segs : int;        (* accessible segments and bits *)
  pc_bits : int;
  pc_acc : Bitset.t;    (* accessible segments *)
  pc_lost : int array;  (* baseline-accessible segments no longer accessible *)
}

(* ---- warm per-netlist state ----

   The unit of reuse behind the service pool (Ftrsn_service.Pool): the
   expensive per-netlist artifacts — structural context, fault-free
   baseline, the full-universe class collapse, the exhaustive-pair
   phase-1 class records, and idle incremental BMC sessions — built once
   and shared by every subsequent evaluation of the same netlist.  Every
   evaluation runs on one: the caller's, or a fresh one for that call
   only.  All cached artifacts are deterministic functions of the
   netlist, so results on a reused state are bit-identical to those on
   a fresh one; only solver statistics (which accumulate across the
   queries a reused session served) differ.

   Thread-safe: one mutex guards construction and the session free list,
   so concurrent evaluations of the same netlist share artifacts instead
   of racing to rebuild them.  Sessions are checked out exclusively and
   returned when the evaluation finishes. *)
type warm = {
  w_net : Netlist.t;
  w_lock : Mutex.t;
  mutable w_ctx : Engine.ctx option;
  mutable w_base : Engine.baseline option;
  mutable w_model : Bmc.t option;
  mutable w_classes : (Fault.model * Fault.clas array) list;
      (* one collapsed full universe per fault model; models never share a
         slot, so a bridge evaluation can't serve select classes *)
  mutable w_pair_classes :
    (Fault.model * (Fault.clas array * pair_class array)) list;
  mutable w_idle : (bool * Bmc.Session.t) list;  (* (certified, session) *)
}

let warm net =
  {
    w_net = net;
    w_lock = Mutex.create ();
    w_ctx = None;
    w_base = None;
    w_model = None;
    w_classes = [];
    w_pair_classes = [];
    w_idle = [];
  }

let locked w f =
  Mutex.lock w.w_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.w_lock) f

let warm_ctx w =
  locked w (fun () ->
      match w.w_ctx with
      | Some c -> c
      | None ->
          let c = Engine.make_ctx w.w_net in
          w.w_ctx <- Some c;
          c)

let warm_baseline w =
  let ctx = warm_ctx w in
  locked w (fun () ->
      match w.w_base with
      | Some b -> b
      | None ->
          let b = Engine.baseline ctx in
          w.w_base <- Some b;
          b)

(* The classes of a sweep's fault list.  A full universe's are the
   state's per-model collapse, built from [faults] on first use; a
   sampled list is collapsed afresh. *)
let classes w ~full ~model faults =
  if not full then Array.of_list (Fault.collapse w.w_net faults)
  else
    locked w (fun () ->
        match List.assoc_opt model w.w_classes with
        | Some c -> c
        | None ->
            let c = Array.of_list (Fault.collapse w.w_net faults) in
            w.w_classes <- (model, c) :: w.w_classes;
            c)

let warm_model w =
  locked w (fun () ->
      match w.w_model with
      | Some m -> m
      | None ->
          let m = Bmc.create w.w_net in
          w.w_model <- Some m;
          m)

let warm_session w ~certify =
  let model = warm_model w in
  locked w (fun () ->
      let rec take acc = function
        | [] -> (None, List.rev acc)
        | (c, s) :: rest when c = certify -> (Some s, List.rev_append acc rest)
        | x :: rest -> take (x :: acc) rest
      in
      match take [] w.w_idle with
      | Some s, rest ->
          w.w_idle <- rest;
          s
      | None, _ -> Bmc.Session.create ~certify model)

let warm_release w sess =
  locked w (fun () ->
      w.w_idle <- (Bmc.Session.certified sess, sess) :: w.w_idle)

let warm_session_stats w =
  locked w (fun () ->
      List.map (fun (cert, s) -> (cert, Bmc.Session.stats s)) w.w_idle)

(* The state an evaluation runs on: the caller's, or a fresh one that
   dies with the evaluation. *)
let state_of ~what net = function
  | None -> warm net
  | Some w when w.w_net != net ->
      invalid_arg (what ^ ": warm state built for a different netlist")
  | Some w -> w

let sample_faults sample faults =
  match sample with
  | None -> faults
  | Some k when k <= 1 -> faults
  | Some k ->
      List.filteri
        (fun i f ->
          i mod k = 0
          ||
          match f.Fault.site with
          | Fault.Primary_in | Fault.Primary_out -> true
          | _ -> false)
        faults

(* The (sampled) fault universe of a model.  A model with no fault sites
   on the network — the transient model on a network without shadow
   bits — has no metric to report: a typed rejection, not a caller bug
   (sampling keeps the first fault, so it never empties a universe). *)
let model_faults ?sample ~model net =
  match sample_faults sample (Fault.universe ~model net) with
  | [] ->
      raise
        (Unsupported
           (Printf.sprintf "the %s fault universe of this network is empty"
              (Fault.model_to_string model)))
  | faults -> faults

(* A BMC domain's session, checked out for one sweep; closing records
   its solver statistics into the domain's part and returns it. *)
let open_session ~certify w p =
  let sess = warm_session w ~certify in
  ( sess,
    fun () ->
      p.solver <- merge_solver p.solver (solver_of_session sess);
      warm_release w sess )

(* The verdict source of a reduced BMC sweep: a session whose
   fault-free verdicts are established first, and [within faults cone],
   the accessible vector under [faults]: the cone's segments, in
   ascending order, decided by one batched call, and the fault-free
   verdicts spliced in elsewhere ([None], a benign summary: the
   fault-free vector).  Also returns the fault-free accessible vector
   and the close action. *)
let open_bmc ~certify w p =
  let sess, close = open_session ~certify w p in
  let base_acc = Bmc.Session.check_targets_base sess in
  let within faults = function
    | None -> base_acc
    | Some cone ->
        let segs = Bitset.elements cone in
        let vs = Bmc.Session.check_targets_multi sess ~faults segs in
        let acc = Array.copy base_acc in
        List.iteri (fun k s -> acc.(s) <- vs.(k)) segs;
        acc
  in
  (within, base_acc, close)

(* ---- the brute sweep (the test oracle) ----

   Every item is a fault set — one fault, or a pair.  The structural
   engine answers it with a full [Engine.analyze_multi] fixpoint (the
   context is read-only during analysis, so the domains share it), the
   BMC engine with one batched decision over every segment on the
   domain's incremental session. *)
let sweep_brute ~what ~domains ~engine ~certify w items =
  let net = w.w_net in
  let verdicts =
    match engine with
    | `Structural ->
        let ctx = warm_ctx w in
        fun _ ->
          ((fun fs -> (Engine.analyze_multi ctx fs).Engine.accessible), ignore)
    | `Bmc ->
        let targets = List.init (Netlist.num_segments net) Fun.id in
        fun p ->
          let sess, close = open_session ~certify w p in
          ( (fun faults ->
              Bmc.Session.check_targets_multi sess ~faults targets),
            close )
  in
  sweep ~domains items (fun p ->
      let verdict, close = verdicts p in
      ( (fun fs ->
          let segs, bits = count net (verdict fs) in
          add p ~n:1 ~segs ~bits),
        close ))
  |> gather |> result ~what ~net

let class_counts classes =
  Array.fold_left
    (fun (total, benign) (c : Fault.clas) ->
      let members = List.length c.Fault.cls_members in
      ( total + members,
        if Fault.summary_benign c.Fault.cls_summary then benign + members
        else benign ))
    (0, 0) classes

(* ---- the reduced single-fault sweep ----

   Equivalence classes stand in for their members (each counted once
   per member) and every class verdict is a cone delta
   against the fault-free baseline.  A steal unit is an array of class
   indices.  On the structural engine the units are [Engine.lane_plan]'s
   batches — up to [Engine.lane_width] classes share one seeded
   fixpoint — then the fast-path classes in chunks; each unit is
   answered whole by [Engine.count_lanes], which re-plans a batch into
   itself, so the lane statistics are the batches', and counts each
   lane's accessible segments and bits from the fixpoint's words
   without building its verdict.  On BMC the units
   are the same, and each unit's class cones come from one
   [Engine.cones] call (one lane fixpoint per batch), then each class's
   cone's segments are decided in one batched call
   ([Bmc.Session.check_targets_multi]): per goal, one round of the solve
   kernel at depth 0 and one at the bound over all of the cone's targets,
   so a class costs at most four Unsat answers however many segments it
   cuts off.  No depth is computed.  Context and baseline are immutable
   after construction, so all domains share them. *)

(* The steal units of the reduced sweep and of pair phase 1:
   [Engine.lane_plan]'s batches, then the fast-path classes in units of
   at most [lane_width], so a unit never carries more classes than a
   lane batch. *)
let class_units base sms =
  let fast, batches = Engine.lane_plan base sms in
  let a = Array.of_list fast and n = Engine.lane_width in
  let len = Array.length a in
  Array.of_list
    (batches
    @ List.init ((len + n - 1) / n) (fun k ->
          Array.sub a (k * n) (min n (len - (k * n)))))

let sweep_reduced ~domains ~engine ~certify w ~full ~model faults =
  let net = w.w_net in
  let ctx = warm_ctx w in
  let base = warm_baseline w in
  let classes = classes w ~full ~model faults in
  let sms = Array.map (fun c -> c.Fault.cls_summary) classes in
  let tally p i ~segs ~bits ~cone =
    note_cone p cone;
    add p ~n:(List.length classes.(i).Fault.cls_members) ~segs ~bits
  in
  let verdicts =
    match engine with
    | `Structural ->
        fun p ->
          ( (fun idxs ->
              let cs, st =
                Engine.count_lanes ctx base (Array.map (Array.get sms) idxs)
              in
              note_lanes p st;
              Array.iteri
                (fun j i ->
                  let c = cs.(j) in
                  tally p i ~segs:c.Engine.lc_segs ~bits:c.Engine.lc_bits
                    ~cone:c.Engine.lc_cone)
                idxs),
            ignore )
    | `Bmc ->
        fun p ->
          let within, _, close = open_bmc ~certify w p in
          ( (fun idxs ->
              let cones =
                Engine.cones ctx base (Array.map (Array.get sms) idxs)
              in
              Array.iteri
                (fun j i ->
                  let segs, bits =
                    count net (within [ classes.(i).Fault.cls_rep ] cones.(j))
                  in
                  let cone =
                    match cones.(j) with
                    | None -> 0
                    | Some c -> Bitset.cardinal c
                  in
                  tally p i ~segs ~bits ~cone)
                idxs),
            close )
  in
  let universe, benign = class_counts classes in
  sweep ~domains (class_units base sms) verdicts
  |> gather
  |> result ~what:"Metric.evaluate" ~net
       ~reduction:(universe, Array.length classes, benign)

let evaluate ?sample ?(domains = 1) ?(engine = `Structural) ?(reduce = true)
    ?(certify = false) ?(model = Fault.Stuck) ?warm net =
  if certify && engine <> `Bmc then
    invalid_arg "Metric.evaluate: ~certify:true requires ~engine:`Bmc";
  let w = state_of ~what:"Metric.evaluate" net warm in
  let full = match sample with None -> true | Some k -> k <= 1 in
  let faults = model_faults ?sample ~model net in
  if reduce then sweep_reduced ~domains ~engine ~certify w ~full ~model faults
  else
    sweep_brute ~what:"Metric.evaluate" ~domains ~engine ~certify w
      (Array.of_list (List.map (fun f -> [ f ]) faults))

(* ---- the exhaustive pair sweep ----

   A pair verdict depends only on the two faults' canonical summaries, so
   the exhaustive sweep runs over unordered CLASS pairs, each counted
   once per member pair, instead of fault pairs.  Phase 1 probes every
   class: its {!Engine.gate} and its single-fault verdict (the probe's
   own on the structural engine, a cone-restricted SAT sweep on BMC),
   kept as a [pair_class] — member count, accessible counts, the
   accessible set and the lost list (baseline-accessible segments no
   longer accessible; every non-coarse class's accessible set is a
   subset of the baseline's, effects only remove capabilities).  Then,
   per class pair (i, j):

   - diagonal (i = j): duplicated semantic effects are idempotent in both
     engines, so every member pair of the class shares the class's own
     single-fault verdict — m*(m-1)/2 pairs answered by a lookup;
   - gates that compose ({!Engine.composes}): the pair verdict is the
     pointwise AND of the two single-fault verdicts, so the pair's
     counts follow from the single-fault results and the (small) list of
     segments the partner lost — O(min lost), no fixpoint;
   - interacting pairs: on the structural engine a pair with an
     {!Engine.lane_fast} class is the partner's accessible set minus
     the killed segments (the arithmetic of the disjoint case); every
     other pair is one lane of a batch rooted at the fault-free
     baseline ({!Engine.count_batch}), its cone the union of the two
     class cones.  On BMC each pair is SAT-checked inside the cone of
     its merged summary.

   Phase 1 steals the probes in lane batches ({!Engine.probes}).
   Phase 2a (discovery) does the diagonal, the pointwise and the
   fast-path counting once per row and defers the other interacting
   columns; phase 2b steals one pair-lane batch per unit on the
   structural engine — pairs of many rows share a batch, and a heavy
   row's pairs spread across domains — and whole rows on BMC.
   Everything is integer-exact, so the sweep is bit-identical to the
   brute pair enumeration, sequentially and across domains. *)

let pair_class net (c : Fault.clas) gate ~base_acc acc =
  let n = Array.length acc in
  let accs = Bitset.create n and lost = ref [] in
  for s = n - 1 downto 0 do
    if acc.(s) then Bitset.add accs s
    else if base_acc.(s) then lost := s :: !lost
  done;
  let segs, bits = count net acc in
  {
    pc_gate = gate;
    pc_members = List.length c.Fault.cls_members;
    pc_segs = segs;
    pc_bits = bits;
    pc_acc = accs;
    pc_lost = Array.of_list !lost;
  }

(* [n] encoded pairs at a time, in push order: the phase-2b lane
   batches of one stream. *)
let packer n =
  let buf = Array.make n 0 and len = ref 0 and out = ref [] in
  let push x =
    buf.(!len) <- x;
    incr len;
    if !len = n then begin
      out := Array.copy buf :: !out;
      len := 0
    end
  in
  let batches () =
    if !len > 0 then out := Array.sub buf 0 !len :: !out;
    len := 0;
    List.rev !out
  in
  (push, batches)

let sweep_pairs ~domains ~engine ~certify w ~full ~model faults =
  let net = w.w_net in
  let ctx = warm_ctx w in
  let base = warm_baseline w in
  (* The structural phase-1 records are a deterministic function of the
     netlist and the fault model (for the full universe), so the state
     caches them per model and repeated exhaustive sweeps skip phase 1
     entirely. *)
  let cache = engine = `Structural && full in
  let cached =
    if cache then locked w (fun () -> List.assoc_opt model w.w_pair_classes)
    else None
  in
  let classes, pcs, phase1 =
    match cached with
    | Some (classes, pcs) -> (classes, pcs, [])
    | None ->
        let classes = classes w ~full ~model faults in
        let sms = Array.map (fun c -> c.Fault.cls_summary) classes in
        (* Writes go to disjoint slots, so the domains share the array. *)
        let slots = Array.make (Array.length classes) None in
        let verdicts =
          match engine with
          | `Structural ->
              let base_acc = (Engine.baseline_verdict base).Engine.accessible in
              fun _ ->
                ( base_acc,
                  (fun _ (pr : Engine.probe) ->
                    pr.Engine.pr_verdict.Engine.accessible),
                  ignore )
          | `Bmc ->
              fun p ->
                let within, base_acc, close = open_bmc ~certify w p in
                ( base_acc,
                  (fun (c : Fault.clas) (pr : Engine.probe) ->
                    within [ c.Fault.cls_rep ] (Some pr.Engine.pr_cone)),
                  close )
        in
        (* The steal units are the single-fault sweep's: a unit's probes
           that need a fixpoint share one lane batch. *)
        let phase1 =
          sweep ~domains (class_units base sms) (fun p ->
              let base_acc, verdict, close = verdicts p in
              ( (fun idxs ->
                  Engine.probes ctx base (Array.map (Array.get sms) idxs)
                    (fun l pr ->
                      let i = idxs.(l) in
                      let c = classes.(i) in
                      slots.(i) <-
                        Some
                          (pair_class net c pr.Engine.pr_gate ~base_acc
                             (verdict c pr)))),
                close ))
        in
        let pcs = Array.map Option.get slots in
        if cache then
          locked w (fun () ->
              if not (List.mem_assoc model w.w_pair_classes) then
                w.w_pair_classes <- (model, (classes, pcs)) :: w.w_pair_classes);
        (classes, pcs, phase1)
  in
  let nc = Array.length classes in
  let sm j = classes.(j).Fault.cls_summary in
  let len = Array.init (Netlist.num_segments net) (Netlist.seg_len net) in
  let pair_add p ci cj ~segs ~bits =
    add p ~n:(ci.pc_members * cj.pc_members) ~segs ~bits
  in
  let interact p ci cj ~segs ~bits =
    p.stacked <- p.stacked + 1;
    pair_add p ci cj ~segs ~bits
  in
  (* Class [keep]'s accessible counts minus the segments of [lost] it
     still had. *)
  let minus keep lost =
    let dsegs = ref 0 and dbits = ref 0 in
    Array.iter
      (fun s ->
        if Bitset.mem keep.pc_acc s then begin
          incr dsegs;
          dbits := !dbits + len.(s)
        end)
      lost;
    (keep.pc_segs - !dsegs, keep.pc_bits - !dbits)
  in
  (* On the structural engine, the segments an [Engine.lane_fast] class
     kills: such a class changes any verdict only by clearing them, so
     its interacting pairs are answered like the disjoint ones.  BMC
     decides every interacting pair by SAT. *)
  let kills =
    Array.init nc (fun j ->
        if engine = `Structural then Engine.lane_fast base (sm j) else None)
  in
  (* Phase 2a: discovery.  Rows write disjoint slots of [inter], so the
     domains share the array. *)
  let inter = Array.make nc [||] in
  let discover p i =
    let ci = pcs.(i) in
    let m = ci.pc_members in
    p.diagonal <- p.diagonal + 1;
    if m > 1 then
      add p ~n:(m * (m - 1) / 2) ~segs:ci.pc_segs ~bits:ci.pc_bits;
    let defer = ref [] and fast = ref 0 in
    for j = nc - 1 downto i + 1 do
      let cj = pcs.(j) in
      if Engine.composes ci.pc_gate cj.pc_gate then begin
        (* The pair's accessible set is the intersection of the two
           classes': class [keep]'s count minus the partner's lost
           segments that [keep] still had. *)
        p.disjoint <- p.disjoint + 1;
        let segs, bits =
          if Array.length cj.pc_lost <= Array.length ci.pc_lost then
            minus ci cj.pc_lost
          else minus cj ci.pc_lost
        in
        pair_add p ci cj ~segs ~bits
      end
      else
        match (kills.(i), kills.(j)) with
        | Some k, _ ->
            incr fast;
            let segs, bits = minus cj k in
            interact p ci cj ~segs ~bits
        | None, Some k ->
            incr fast;
            let segs, bits = minus ci k in
            interact p ci cj ~segs ~bits
        | None, None -> defer := j :: !defer
    done;
    if !fast > 0 then
      note_lanes p
        {
          Engine.ls_batches = 0;
          ls_lanes = 0;
          ls_masked = 0;
          ls_fast = !fast;
          ls_rounds = 0;
        };
    if !defer <> [] then inter.(i) <- Array.of_list !defer
  in
  let phase2a =
    sweep ~domains (Array.init nc Fun.id) (fun p -> (discover p, ignore))
  in
  (* Phase 2b: the interacting pairs. *)
  let phase2b =
    match engine with
    | `Structural ->
        (* Every pair is one lane rooted at the fault-free baseline, so
           pairs of different rows share a batch.  The pairs pack
           row-major, encoded [i * nc + j], into batches of
           [lane_width]; pairs with a dead scan port (whole-network
           cones, extra rounds) pack into batches of their own.  The
           plan depends on the classes and the gate only.  Each class's
           lane (summary and coarse cone) is built once, here. *)
        let lanes = Array.init nc (fun i -> Engine.lane ctx base (sm i)) in
        let port i =
          let s = sm i in
          s.Fault.sm_pi_dead || s.Fault.sm_po_dead
        in
        let push_port, port_batches = packer Engine.lane_width in
        let push_general, general_batches = packer Engine.lane_width in
        Array.iteri
          (fun i js ->
            Array.iter
              (fun j ->
                (if port i || port j then push_port else push_general)
                  ((i * nc) + j))
              js;
            inter.(i) <- [||])
          inter;
        let units = Array.of_list (port_batches () @ general_batches ()) in
        sweep ~domains units (fun p ->
            ( (fun batch ->
                let cs, st =
                  Engine.count_batch ctx base
                    (Array.map
                       (fun x -> Engine.lane_union lanes.(x / nc) lanes.(x mod nc))
                       batch)
                in
                note_lanes p st;
                Array.iteri
                  (fun l x ->
                    interact p pcs.(x / nc) pcs.(x mod nc)
                      ~segs:cs.(l).Engine.lc_segs ~bits:cs.(l).Engine.lc_bits)
                  batch),
              ignore ))
    | `Bmc ->
        (* One unit per row with interacting columns. *)
        let units =
          Array.of_list
            (List.filter
               (fun (_, js) -> js <> [||])
               (Array.to_list (Array.mapi (fun i js -> (i, js)) inter)))
        in
        sweep ~domains units (fun p ->
            let within, _, close = open_bmc ~certify w p in
            ( (fun (i, js) ->
                (* The restriction must be the cone of the MERGED summary:
                   with tight cones the union of the two single-fault
                   taints can undershoot the pair's (interaction can kill
                   paths both single faults left alive). *)
                let cones =
                  Engine.cones ctx base
                    (Array.map (fun j -> Fault.summary_union (sm i) (sm j)) js)
                in
                let rep k = classes.(k).Fault.cls_rep in
                Array.iteri
                  (fun l j ->
                    let segs, bits =
                      count net (within [ rep i; rep j ] cones.(l))
                    in
                    interact p pcs.(i) pcs.(j) ~segs ~bits)
                  js),
              close ))
  in
  gather (phase1 @ phase2a @ phase2b)
  |> result ~what:"Metric.evaluate_pairs" ~net ~pairs:nc

(* Deterministic enumeration of every [sample]-th unordered fault pair,
   generated straight into the result array (at millions of pairs the
   intermediate list was measurable garbage). *)
let pair_items ~sample faults =
  let n = Array.length faults in
  let total = n * (n - 1) / 2 in
  let count = (total + sample - 1) / sample in
  let items = Array.make count [] in
  let idx = ref 0 and pos = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if !idx mod sample = 0 then begin
        items.(!pos) <- [ faults.(i); faults.(j) ];
        incr pos
      end;
      incr idx
    done
  done;
  items

let evaluate_pairs ?(sample = 37) ?fault_sample ?(domains = 1)
    ?(engine = `Structural) ?(exhaustive = false) ?(reduce = true)
    ?(certify = false) ?(model = Fault.Stuck) ?warm net =
  if certify && engine <> `Bmc then
    invalid_arg "Metric.evaluate_pairs: ~certify:true requires ~engine:`Bmc";
  if model = Fault.Transient then
    raise
      (Unsupported
         "transient pairs are unsupported (two glitches are not a set-wise \
          union of summaries)");
  let w = state_of ~what:"Metric.evaluate_pairs" net warm in
  let full = match fault_sample with None -> true | Some k -> k <= 1 in
  let faults = model_faults ?sample:fault_sample ~model net in
  if exhaustive && reduce then
    sweep_pairs ~domains ~engine ~certify w ~full ~model faults
  else begin
    let sample = if exhaustive then 1 else max 1 sample in
    let items = pair_items ~sample (Array.of_list faults) in
    if Array.length items = 0 then invalid_arg "Metric.evaluate_pairs: empty";
    sweep_brute ~what:"Metric.evaluate_pairs" ~domains ~engine ~certify w
      items
  end

let pp_solver_stats fmt s =
  Format.fprintf fmt
    "@[<h>solver: %d conflicts, %d decisions, %d propagations; %d clauses emitted, %d nodes reused@]"
    s.s_conflicts s.s_decisions s.s_propagations s.s_clauses_emitted
    s.s_nodes_reused;
  if s.s_learnt_lits > 0 then
    Format.fprintf fmt
      "@,@[<h>search: %d restarts; learnt lits %d -> %d (%.1f%% minimized); %d DB reductions, %d learnts live@]"
      s.s_restarts s.s_learnt_lits
      (s.s_learnt_lits - s.s_minimized_lits)
      (100.0 *. float_of_int s.s_minimized_lits /. float_of_int s.s_learnt_lits)
      s.s_reductions s.s_learnt_db;
  if s.s_cert_unsat > 0 || s.s_cert_lemmas > 0 then
    Format.fprintf fmt
      "@,@[<h>certified: %d UNSAT verdicts RUP-checked, %d lemmas verified, %d deletions, %.2fs in checker@]"
      s.s_cert_unsat s.s_cert_lemmas s.s_cert_deletes s.s_cert_time

let pp_reduction_stats fmt r =
  Format.fprintf fmt
    "@[<h>reduction: %d faults -> %d classes (%d benign); cone avg %.1f max %d@]"
    r.r_universe r.r_classes r.r_benign
    (if r.r_classes = 0 then 0.0
     else float_of_int r.r_cone_sum /. float_of_int r.r_classes)
    r.r_cone_max

let pp_lane_stats fmt (l : Engine.lane_stats) =
  Format.fprintf fmt
    "@[<h>lanes: %d batches (width %d), %d lanes (avg occupancy %.1f), %d settled at seed, %d fast-path classes, %d rounds@]"
    l.Engine.ls_batches Engine.lane_width l.Engine.ls_lanes
    (if l.Engine.ls_batches = 0 then 0.0
     else float_of_int l.Engine.ls_lanes /. float_of_int l.Engine.ls_batches)
    l.Engine.ls_masked l.Engine.ls_fast l.Engine.ls_rounds

let pp_pair_stats fmt p =
  Format.fprintf fmt
    "@[<h>pairs: %d classes -> %d class pairs (%d diagonal, %d disjoint, %d stacked)@]"
    p.p_classes p.p_class_pairs p.p_diagonal p.p_disjoint p.p_stacked

let pp fmt r =
  Format.fprintf fmt
    "@[<v>segments: worst %.3f avg %.4f@,bits: worst %.3f avg %.4f@,(%d faults, weight %d)@]"
    r.worst_segments r.avg_segments r.worst_bits r.avg_bits r.faults
    r.total_weight;
  (match r.reduction with
  | None -> ()
  | Some red -> Format.fprintf fmt "@,%a" pp_reduction_stats red);
  (match r.lanes with
  | None -> ()
  | Some l -> Format.fprintf fmt "@,%a" pp_lane_stats l);
  (match r.pairs with
  | None -> ()
  | Some p -> Format.fprintf fmt "@,%a" pp_pair_stats p);
  (match r.pair_lanes with
  | None -> ()
  | Some l -> Format.fprintf fmt "@,pair %a" pp_lane_stats l);
  if r.steals > 0 then Format.fprintf fmt "@,steals: %d" r.steals;
  match r.solver with
  | None -> ()
  | Some s -> Format.fprintf fmt "@,%a" pp_solver_stats s
