(* Benchmark harness: one Bechamel test per Table I part, plus ablation
   benches for the design decisions called out in DESIGN.md §6
   (ILP vs min-cost-flow augmentation, structural engine vs BMC,
   per-fault analysis cost, retargeting and simulation primitives).

   Run with: dune exec bench/main.exe
   The wall-clock estimate (OLS on the monotonic clock) is printed per
   bench in nanoseconds per run. *)

open Bechamel

module Itc02 = Ftrsn_itc02.Itc02
module Netlist = Ftrsn_rsn.Netlist
module Sib = Ftrsn_rsn.Sib
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget
module Bmc = Ftrsn_bmc.Bmc
module Augment = Ftrsn_core.Augment
module Synthesis = Ftrsn_core.Synthesis
module Metric = Ftrsn_core.Metric
module Pipeline = Ftrsn_core.Pipeline

(* Shared inputs, built once. *)
let u226 = Itc02.rsn (Option.get (Itc02.find "u226"))
let d695 = Itc02.rsn (Option.get (Itc02.find "d695"))
let p93791 = Itc02.rsn (Option.get (Itc02.find "p93791"))

let small =
  Sib.build ~name:"small"
    [
      Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]

let u226_result = Pipeline.synthesize u226
let u226_ft = u226_result.Pipeline.ft
let u226_ctx = Engine.make_ctx u226
let u226_ft_ctx = Engine.make_ctx u226_ft
let u226_fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false }
let small_bmc = Bmc.create small

(* Table I parts (E1-E5 of DESIGN.md §4). *)
let table1 =
  Test.make_grouped ~name:"table1"
    [
      Test.make ~name:"characteristics_u226"
        (Staged.stage (fun () ->
             ignore (Itc02.rsn (Option.get (Itc02.find "u226")))));
      Test.make ~name:"sib_access_u226"
        (Staged.stage (fun () -> ignore (Metric.evaluate ~sample:16 u226)));
      Test.make ~name:"ft_access_u226"
        (Staged.stage (fun () -> ignore (Metric.evaluate ~sample:16 u226_ft)));
      Test.make ~name:"area_u226"
        (Staged.stage (fun () -> ignore (Pipeline.synthesize u226)));
      Test.make ~name:"augmentation_u226"
        (Staged.stage (fun () ->
             ignore (Augment.solve (Augment.of_netlist u226))));
      Test.make ~name:"augmentation_d695"
        (Staged.stage (fun () ->
             ignore (Augment.solve (Augment.of_netlist d695))));
      Test.make ~name:"augmentation_p93791"
        (Staged.stage (fun () ->
             ignore (Augment.solve (Augment.of_netlist p93791))));
    ]

(* Ablation: exact ILP vs min-cost flow on the same instance. *)
let p_small = Augment.of_netlist small

let ablation_solvers =
  Test.make_grouped ~name:"augment_solver"
    [
      Test.make ~name:"ilp_small"
        (Staged.stage (fun () -> ignore (Augment.solve_ilp p_small)));
      Test.make ~name:"flow_small"
        (Staged.stage (fun () ->
             ignore (Augment.solve_flow ~window:64 p_small)));
      Test.make ~name:"flow_u226"
        (Staged.stage (fun () ->
             ignore (Augment.solve_flow (Augment.of_netlist u226))));
    ]

(* Ablation: structural engine vs BMC on one fault.

   The structural_per_fault_* entries measure what the structural engine
   charges per fault verdict under its production configuration: the
   lane-parallel batch sweep, where up to [Engine.lane_width] classes
   share one fixpoint.  Each bench run consumes one verdict from a
   rotating queue over the network's lane batches; a refill pays one
   shared batch fixpoint for a whole batch of verdicts, so the OLS slope
   is sweep-cost / batch-width — the honest amortized per-fault cost,
   directly comparable to the scalar entries of earlier BENCH_*.json
   (which ran one full [Engine.analyze] per fault).  The
   structural_scalar_per_fault_* entries keep that scalar cost visible,
   and lane_sweep_all_u226 prices one full class-universe lane sweep. *)
let small_fault = { Fault.site = Fault.Seg_shadow_reg (0, 0); stuck = false }
let small_ctx = Engine.make_ctx small

let lane_per_fault net ctx =
  let base = Engine.baseline ctx in
  let root = Engine.of_baseline base in
  let classes = Array.of_list (Fault.collapse net (Fault.universe net)) in
  let sms = Array.map (fun c -> c.Fault.cls_summary) classes in
  let _, batches = Engine.lane_plan base sms in
  let batches =
    Array.of_list (List.map (Array.map (fun i -> sms.(i))) batches)
  in
  if Array.length batches = 0 then fun () -> ()
  else
    let next = ref 0 and pending = ref 0 in
    fun () ->
      if !pending = 0 then begin
        let b = batches.(!next) in
        next := (!next + 1) mod Array.length batches;
        ignore (Engine.analyze_lanes_on ctx root b);
        pending := Array.length b
      end;
      decr pending

let u226_classes =
  lazy (Array.of_list (Fault.collapse u226 (Fault.universe u226)))

let ablation_engines =
  Test.make_grouped ~name:"access_engine"
    [
      Test.make ~name:"structural_per_fault_small"
        (Staged.stage (lane_per_fault small small_ctx));
      Test.make ~name:"structural_scalar_per_fault_small"
        (Staged.stage (fun () ->
             ignore (Engine.analyze small_ctx (Some small_fault))));
      Test.make ~name:"bmc_per_fault_small"
        (Staged.stage (fun () ->
             ignore (Bmc.check_access small_bmc ~fault:small_fault ~target:2 ())));
      Test.make ~name:"structural_per_fault_u226"
        (Staged.stage (lane_per_fault u226 u226_ctx));
      Test.make ~name:"structural_scalar_per_fault_u226"
        (Staged.stage (fun () ->
             ignore (Engine.analyze u226_ctx (Some u226_fault))));
      Test.make ~name:"structural_per_fault_u226_ft"
        (Staged.stage (lane_per_fault u226_ft u226_ft_ctx));
      Test.make ~name:"lane_sweep_all_u226"
        (Staged.stage (fun () ->
             ignore
               (Engine.analyze_lanes_stats u226_ctx
                  (Lazy.force u226_classes))));
    ]

(* Ablation: one incremental session sweeping a fault universe vs
   constructing a solver per query — the cost the session layer
   amortizes.  "Per query" means one fresh solver per goal check
   (write / read), matching the legacy `check_write`/`check_read` entry
   points; the pre-session code was weaker still (it rebuilt the solver
   and the whole encoding once per *depth* probe).  u226 uses a
   deterministic sample of its universe to keep the bench quota sane. *)
let small_universe = Fault.universe small

let u226_universe_sample =
  List.filteri (fun i _ -> i mod 23 = 0) (Fault.universe u226)

let sweep_session net faults =
  let sess = Bmc.Session.create (Bmc.create net) in
  ignore (Bmc.Session.check_faults sess ~target:0 faults)

let sweep_oneshot net faults =
  let model = Bmc.create net in
  List.iter
    (fun f ->
      let sess = Bmc.Session.create model in
      match Bmc.Session.check_write sess ~fault:f ~target:0 () with
      | Bmc.Accessible _ ->
          let sess' = Bmc.Session.create model in
          ignore (Bmc.Session.check_read sess' ~fault:f ~target:0 ())
      | _ -> ())
    faults

let bmc_incremental =
  Test.make_grouped ~name:"bmc_incremental"
    [
      Test.make ~name:"session_universe_small"
        (Staged.stage (fun () -> sweep_session small small_universe));
      Test.make ~name:"oneshot_universe_small"
        (Staged.stage (fun () -> sweep_oneshot small small_universe));
      Test.make ~name:"session_universe_u226"
        (Staged.stage (fun () -> sweep_session u226 u226_universe_sample));
      Test.make ~name:"oneshot_universe_u226"
        (Staged.stage (fun () -> sweep_oneshot u226 u226_universe_sample));
    ]

(* Primitives: retargeting plans, synthesis and graph extraction. *)
let u226_plan = Option.get (Retarget.plan_write u226_ctx ~target:5 ())

let primitives =
  Test.make_grouped ~name:"primitives"
    [
      Test.make ~name:"make_ctx_u226"
        (Staged.stage (fun () -> ignore (Engine.make_ctx u226)));
      Test.make ~name:"plan_write_u226"
        (Staged.stage (fun () ->
             ignore (Retarget.plan_write u226_ctx ~target:5 ())));
      Test.make ~name:"plan_execute_u226"
        (Staged.stage (fun () ->
             ignore (Retarget.execute u226 u226_plan ~pattern:[ true ])));
      Test.make ~name:"synthesis_u226"
        (Staged.stage (fun () ->
             ignore
               (Synthesis.run u226
                  ~new_edges:u226_result.Pipeline.augmentation.Augment.new_edges)));
      Test.make ~name:"dataflow_graph_p93791"
        (Staged.stage (fun () -> ignore (Netlist.dataflow_graph p93791)));
    ]

(* Extensions: diagnosis, merged retargeting, area-profile sensitivity. *)
let extensions =
  let small_stim = Ftrsn_access.Diagnose.stimulus small in
  let small_fault2 = { Fault.site = Fault.Seg_scan_in 2; stuck = true } in
  let merged_targets = [ 2; 4; 7 ] in
  Test.make_grouped ~name:"extensions"
    [
      Test.make ~name:"diagnose_apply_small"
        (Staged.stage (fun () ->
             ignore
               (Ftrsn_access.Diagnose.apply small ~fault:small_fault2
                  small_stim)));
      Test.make ~name:"merged_plan_small"
        (Staged.stage (fun () ->
             ignore
               (Retarget.plan_write_merged small_ctx ~targets:merged_targets
                  ())));
      Test.make ~name:"double_fault_analysis_small"
        (Staged.stage (fun () ->
             ignore
               (Engine.analyze_multi small_ctx
                  [ small_fault; small_fault2 ])));
      Test.make ~name:"area_default_u226_ft"
        (Staged.stage (fun () ->
             ignore (Ftrsn_core.Area.of_netlist u226_ft)));
      Test.make ~name:"area_compact_u226_ft"
        (Staged.stage (fun () ->
             ignore
               (Ftrsn_core.Area.of_netlist
                  ~technology:Ftrsn_core.Area.compact_technology u226_ft)));
    ]

(* Fault-universe reduction: the collapsed + cone-delta metric against the
   brute-force sweep, structural engine, one domain.  p93791 is sampled to
   keep its brute-force leg inside the bench quota; the reduction ratio is
   representative either way. *)
let fault_reduction =
  Test.make_grouped ~name:"fault_reduction"
    [
      Test.make ~name:"reduced_u226"
        (Staged.stage (fun () -> ignore (Metric.evaluate u226)));
      Test.make ~name:"unreduced_u226"
        (Staged.stage (fun () -> ignore (Metric.evaluate ~reduce:false u226)));
      Test.make ~name:"reduced_d695"
        (Staged.stage (fun () -> ignore (Metric.evaluate d695)));
      Test.make ~name:"unreduced_d695"
        (Staged.stage (fun () -> ignore (Metric.evaluate ~reduce:false d695)));
      Test.make ~name:"reduced_p93791_sample16"
        (Staged.stage (fun () -> ignore (Metric.evaluate ~sample:16 p93791)));
      Test.make ~name:"unreduced_p93791_sample16"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate ~sample:16 ~reduce:false p93791)));
    ]

(* Exhaustive double-fault sweeps: the class-pair reduction (diagonal
   reuse + non-interacting AND-arithmetic + stacked deltas) against the
   brute pair enumeration.  The u226 fault universe is thinned 16x for
   the reduced-vs-brute pair so the brute leg fits the quota; the full
   u226 sweep shows the absolute cost the reduction makes tractable. *)
let double_fault =
  Test.make_grouped ~name:"double_fault"
    [
      Test.make ~name:"pairs_reduced_u226_s16"
        (Staged.stage (fun () ->
             ignore
               (Metric.evaluate_pairs ~exhaustive:true ~fault_sample:16 u226)));
      Test.make ~name:"pairs_brute_u226_s16"
        (Staged.stage (fun () ->
             ignore
               (Metric.evaluate_pairs ~exhaustive:true ~reduce:false
                  ~fault_sample:16 u226)));
      Test.make ~name:"pairs_reduced_u226_ft_s16"
        (Staged.stage (fun () ->
             ignore
               (Metric.evaluate_pairs ~exhaustive:true ~fault_sample:16
                  u226_ft)));
      Test.make ~name:"pairs_reduced_u226_full"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate_pairs ~exhaustive:true u226)));
    ]

(* Lane-parallel stacked baselines: the amortized per-pair cost of the
   interacting-pair path.  Each stacked_lane_per_pair_* run consumes one
   secondary verdict from a rotating queue over the network's lane
   batches, all rooted at ONE prebuilt stacked baseline (the first
   non-benign class plays the primary); a refill pays one shared
   union-cone fixpoint for a whole batch, so the OLS slope is the honest
   amortized cost of one (primary, secondary) verdict. *)
let stacked_pair_inputs net ctx =
  let base = Engine.baseline ctx in
  let classes = Array.of_list (Fault.collapse net (Fault.universe net)) in
  let sms = Array.map (fun c -> c.Fault.cls_summary) classes in
  let primary =
    match Array.find_opt (fun sm -> not (Fault.summary_benign sm)) sms with
    | Some sm -> sm
    | None -> sms.(0)
  in
  let stk = Engine.stack ctx base primary in
  let _, batches = Engine.lane_plan base sms in
  let batches =
    Array.of_list (List.map (Array.map (fun i -> sms.(i))) batches)
  in
  (stk, batches)

let stacked_lane_per_pair net ctx =
  let stk, batches = stacked_pair_inputs net ctx in
  if Array.length batches = 0 then fun () -> ()
  else
    let next = ref 0 and pending = ref 0 in
    fun () ->
      if !pending = 0 then begin
        let b = batches.(!next) in
        next := (!next + 1) mod Array.length batches;
        ignore (Engine.analyze_lanes_on ctx stk b);
        pending := Array.length b
      end;
      decr pending

let double_fault_lanes =
  Test.make_grouped ~name:"double_fault_lanes"
    [
      Test.make ~name:"stacked_lane_per_pair_small"
        (Staged.stage (stacked_lane_per_pair small small_ctx));
      Test.make ~name:"stacked_lane_per_pair_u226"
        (Staged.stage (stacked_lane_per_pair u226 u226_ctx));
      Test.make ~name:"stacked_lane_per_pair_u226_ft"
        (Staged.stage (stacked_lane_per_pair u226_ft u226_ft_ctx));
    ]

(* Non-stuck fault universes through the same reduction machinery: what
   a bridge / select / transient sweep costs relative to the stuck-at
   sweeps of fault_reduction above.  The transient legs price the
   full-fixpoint scalar path its glitch classes take (no seeded delta);
   the universe leg isolates enumeration (adjacency discovery) itself. *)
let fault_models_bench =
  Test.make_grouped ~name:"fault_models"
    [
      Test.make ~name:"bridge_u226"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate ~model:Fault.Bridge u226)));
      Test.make ~name:"select_u226"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate ~model:Fault.Select u226)));
      Test.make ~name:"transient_u226"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate ~model:Fault.Transient u226)));
      Test.make ~name:"transient_u226_ft"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate ~model:Fault.Transient u226_ft)));
      Test.make ~name:"bridge_universe_u226"
        (Staged.stage (fun () ->
             ignore (Fault.universe ~model:Fault.Bridge u226)));
    ]

(* Proof logging: what DRUP emission costs on top of plain solving, and
   what inline RUP checking costs on top of emission.  The solver legs
   refute PHP(5,4) — a learning-heavy pure-SAT workload — three ways:
   no sink, a counting sink (emission overhead alone), and a sink feeding
   the independent checker (full certification).  The metric legs sweep
   the small network's fault universe through the BMC engine with and
   without [~certify]. *)
module Solver = Ftrsn_sat.Solver
module Checker = Ftrsn_sat.Checker

let php_solve sink =
  let s = Solver.create () in
  Solver.set_proof_sink s sink;
  let v p h = (p * 4) + h + 1 in
  for p = 0 to 4 do
    Solver.add_clause s [ v p 0; v p 1; v p 2; v p 3 ]
  done;
  for h = 0 to 3 do
    for p1 = 0 to 4 do
      for p2 = p1 + 1 to 4 do
        Solver.add_clause s [ -(v p1 h); -(v p2 h) ]
      done
    done
  done;
  match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat -> failwith "PHP(5,4) must be unsat"

let php_checked () =
  let chk = Checker.create () in
  php_solve
    (Some
       (fun ev ->
         match ev with
         | Solver.P_input c -> Checker.add_clause chk c
         | Solver.P_add c -> (
             match Checker.add_lemma chk c with
             | Ok () -> ()
             | Error e -> failwith ("proof rejected: " ^ e))
         | Solver.P_delete c -> Checker.delete_clause chk c));
  if not (Checker.contradiction chk) then
    failwith "checker did not certify the refutation"

(* CDCL core: pure-SAT workloads isolating the solver inner loop.  (The
   blocker-literal watcher vectors and binary specialization have no off
   switch; their effect is the BENCH_3 -> BENCH_4 delta on these same
   workloads.)  PHP(6,5) is a learning-heavy pure refutation; the random
   3-SAT batch sits near the phase-transition ratio m/n ~ 4.26 on fixed
   seeds; the session leg re-runs a bmc_incremental universe with
   inprocessing off. *)
let php65 ?(preprocess = false) () =
  let s = Solver.create () in
  let v p h = (p * 5) + h + 1 in
  for p = 0 to 5 do
    Solver.add_clause s [ v p 0; v p 1; v p 2; v p 3; v p 4 ]
  done;
  for h = 0 to 4 do
    for p1 = 0 to 5 do
      for p2 = p1 + 1 to 5 do
        Solver.add_clause s [ -(v p1 h); -(v p2 h) ]
      done
    done
  done;
  if preprocess then Solver.inprocess s;
  match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat -> failwith "PHP(6,5) must be unsat"

let rand3sat_instances =
  let n = 34 in
  let m = 145 in
  ( n,
    List.map
      (fun seed ->
        let st = Random.State.make [| seed |] in
        List.init m (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Random.State.int st n in
                if Random.State.bool st then v else -v)))
      [ 11; 22; 33; 44; 55 ] )

let rand3sat ?(preprocess = false) () =
  let n, instances = rand3sat_instances in
  List.iter
    (fun clauses ->
      let s = Solver.create () in
      Solver.ensure_vars s n;
      List.iter (Solver.add_clause s) clauses;
      if preprocess then Solver.inprocess s;
      ignore (Solver.solve s))
    instances

let sat_core =
  Test.make_grouped ~name:"sat_core"
    [
      Test.make ~name:"php65" (Staged.stage (fun () -> php65 ()));
      Test.make ~name:"rand3sat_near_threshold"
        (Staged.stage (fun () -> rand3sat ()));
      (* Inprocessing ablation.  The one-shot legs pay an explicit
         SatELite-style preprocessing pass before solving (what
         [Dimacs.solve] now does); the session leg disables the
         between-batch schedule — on this quiet sweep the conflict gap
         never fires, so any delta is pure scheduling overhead. *)
      Test.make ~name:"php65_preprocessed"
        (Staged.stage (fun () -> php65 ~preprocess:true ()));
      Test.make ~name:"rand3sat_preprocessed"
        (Staged.stage (fun () -> rand3sat ~preprocess:true ()));
      Test.make ~name:"session_u226_no_inprocess"
        (Staged.stage (fun () ->
             let sess = Bmc.Session.create (Bmc.create u226) in
             Solver.set_inprocess (Bmc.Session.solver sess) false;
             ignore
               (Bmc.Session.check_faults sess ~target:0 u226_universe_sample)));
    ]

let proof_logging =
  let events = ref 0 in
  Test.make_grouped ~name:"proof_logging"
    [
      Test.make ~name:"php54_plain"
        (Staged.stage (fun () -> php_solve None));
      Test.make ~name:"php54_logged"
        (Staged.stage (fun () -> php_solve (Some (fun _ -> incr events))));
      Test.make ~name:"php54_checked" (Staged.stage php_checked);
      Test.make ~name:"metric_bmc_small_plain"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate ~engine:`Bmc small)));
      Test.make ~name:"metric_bmc_small_certified"
        (Staged.stage (fun () ->
             ignore (Metric.evaluate ~engine:`Bmc ~certify:true small)));
    ]

(* Service layer: what the warm pool amortizes.  The "cold" legs spawn a
   fresh pool per run, so every query pays netlist construction, engine
   context, baseline and class collapse again — the one-shot CLI cost.
   The "warm" legs share one pre-warmed pool, so a run costs only the
   query itself plus a pool hit.  The mixed legs replay a small
   interleaved stream over two SoCs, the serve-loop steady state. *)
module SQuery = Ftrsn_service.Query
module SPool = Ftrsn_service.Pool
module SExec = Ftrsn_service.Exec
module SResponse = Ftrsn_service.Response

let svc_spec name = { SQuery.ns_source = `Itc02 name; SQuery.ns_ft = false }

let svc_metric ?sample ?(model = Fault.Stuck) name =
  SQuery.Metric
    {
      SQuery.mq_net = svc_spec name;
      mq_sample = sample;
      mq_domains = 1;
      mq_engine = `Structural;
      mq_reduce = true;
      mq_inprocess = true;
      mq_model = model;
      mq_with_stats = false;
    }

let svc_probe name target =
  SQuery.Probe
    {
      SQuery.pb_net = svc_spec name;
      pb_target = target;
      pb_fault = None;
      pb_model = Fault.Stuck;
      pb_svf = false;
    }

let svc_stream =
  [
    svc_metric ~sample:16 "u226";
    svc_probe "u226" (Netlist.segment_name u226 5);
    SQuery.Netinfo (svc_spec "d695");
    svc_metric ~sample:16 "d695";
    svc_probe "d695" (Netlist.segment_name d695 3);
    svc_metric ~sample:16 "u226";
  ]

let svc_pool = SPool.create ()

(* Pre-warm so the warm legs measure the steady state, not the first
   miss. *)
let () = List.iter (fun q -> ignore (SExec.run svc_pool q)) svc_stream

let svc_cold q () = ignore (SExec.run (SPool.create ()) q)
let svc_warm q () = ignore (SExec.run svc_pool q)

let service =
  Test.make_grouped ~name:"service"
    [
      Test.make ~name:"metric_u226_cold"
        (Staged.stage (svc_cold (svc_metric ~sample:16 "u226")));
      Test.make ~name:"metric_u226_warm"
        (Staged.stage (svc_warm (svc_metric ~sample:16 "u226")));
      Test.make ~name:"metric_d695_cold"
        (Staged.stage (svc_cold (svc_metric ~sample:16 "d695")));
      Test.make ~name:"metric_d695_warm"
        (Staged.stage (svc_warm (svc_metric ~sample:16 "d695")));
      Test.make ~name:"probe_u226_cold"
        (Staged.stage (svc_cold (List.nth svc_stream 1)));
      Test.make ~name:"probe_u226_warm"
        (Staged.stage (svc_warm (List.nth svc_stream 1)));
      Test.make ~name:"mixed_stream_cold"
        (Staged.stage (fun () ->
             let pool = SPool.create () in
             List.iter (fun q -> ignore (SExec.run pool q)) svc_stream));
      Test.make ~name:"mixed_stream_warm"
        (Staged.stage (fun () ->
             List.iter (fun q -> ignore (SExec.run svc_pool q)) svc_stream));
    ]

let all_tests =
  Test.make_grouped ~name:"ftrsn"
    [
      table1;
      ablation_solvers;
      ablation_engines;
      double_fault_lanes;
      bmc_incremental;
      primitives;
      extensions;
      fault_models_bench;
      sat_core;
      proof_logging;
      service;
    ]

(* Benched under its own, larger quota: the full d695 and u226 pair
   sweeps run 0.3-3 s per iteration, so the default 0.8 s quota yields a
   single noisy sample and a meaningless OLS fit. *)
let reduction_tests =
  Test.make_grouped ~name:"ftrsn" [ fault_reduction; double_fault ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
  in
  let cfg_slow =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 6.0) ~kde:(Some 10) ()
  in
  (* Measured first, in a quiet process: after minutes of sustained bench
     load the d695 estimates drift far from what any fresh run of the
     same closures shows. *)
  let raw_red = Benchmark.all cfg_slow instances reduction_tests in
  let results = Analyze.all ols (List.hd instances) raw_red in
  let raw = Benchmark.all cfg instances all_tests in
  Hashtbl.iter (Hashtbl.replace results)
    (Analyze.all ols (List.hd instances) raw);
  results

(* --json: per-bench ns/run estimates plus a "_meta" provenance object,
   for trend tracking across commits.  Written to the repo root (nearest
   ancestor directory holding a dune-project) — `dune exec` runs from
   _build otherwise.  A root that cannot be resolved, or resolves to a
   directory without a dune-project, is a hard error: the file must
   never silently land outside the checkout. *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  let root =
    match Sys.getenv_opt "DUNE_SOURCEROOT" with
    | Some d -> Some d
    | None -> up (Sys.getcwd ())
  in
  match root with
  | Some d when Sys.file_exists (Filename.concat d "dune-project") -> d
  | Some d ->
      failwith
        (Printf.sprintf
           "bench: %s has no dune-project; refusing to write outside the \
            repo root"
           d)
  | None ->
      failwith
        "bench: no dune-project ancestor and DUNE_SOURCEROOT unset; refusing \
         to write outside the repo root"

(* Current commit, read straight from .git (no subprocess): HEAD is
   either a detached hash or "ref: <name>", resolved through the loose
   ref file or packed-refs. *)
let git_commit root =
  let git = Filename.concat root ".git" in
  let line_of path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  try
    let head = line_of (Filename.concat git "HEAD") in
    if String.length head >= 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.sub head 5 (String.length head - 5) in
      try Some (line_of (Filename.concat git r))
      with _ -> (
        let ic = open_in (Filename.concat git "packed-refs") in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec scan () =
              match input_line ic with
              | l when String.length l > 41 && l.[40] = ' '
                       && String.sub l 41 (String.length l - 41) = r ->
                  Some (String.sub l 0 40)
              | _ -> scan ()
              | exception End_of_file -> None
            in
            scan ()))
    end
    else Some head
  with _ -> None

(* Whether the working tree differs from HEAD: a benchmark captured from
   a dirty checkout measures code no commit identifies, so the flag is
   part of the provenance.  This is the one place a subprocess is
   justified — replicating index/worktree comparison by hand is exactly
   the kind of subtle reimplementation provenance must not depend on.
   [None] when git is unavailable or errors. *)
let git_dirty root =
  match
    Sys.command
      (Printf.sprintf
         "git -C %s diff-index --quiet HEAD -- >/dev/null 2>&1"
         (Filename.quote root))
  with
  | 0 -> Some false
  | 1 -> Some true
  | _ -> None

(* Run metadata that identifies the build without breaking reproducible
   diffs: commit, compiler, word geometry — deliberately no timestamps. *)
let meta_json root =
  Printf.sprintf
    "{\"commit\": %s, \"dirty\": %s, \"ocaml\": \"%s\", \"int_size\": %d, \
     \"lane_width\": %d}"
    (match git_commit root with
    | Some c -> Printf.sprintf "%S" c
    | None -> "null")
    (match git_dirty root with
    | Some b -> string_of_bool b
    | None -> "null")
    Sys.ocaml_version Sys.int_size Engine.lane_width

let write_json ~root path rows =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"_meta\": %s,\n" (meta_json root);
  let n = List.length rows in
  List.iteri
    (fun i (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] when Float.is_finite e -> Printf.sprintf "%.1f" e
        | _ -> "null"
      in
      Printf.fprintf oc "  %S: %s%s\n" name est (if i = n - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d benches)\n" path n

(* --compare OLD.json NEW.json: side-by-side ratio table of two bench
   JSON dumps (as written by --json).  Ratio is old/new, so >1 is a
   speedup in NEW; entries slower by more than 10% are flagged, entries
   present in only one file are listed separately.  Exit status 0 either
   way — the table is a review aid, not a gate. *)
module Json = Ftrsn_service.Json

let read_bench_json path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic len)
  in
  match Json.of_string text with
  | Json.Obj fields ->
      List.filter_map
        (fun (k, v) ->
          if k = "_meta" then None
          else match v with Json.Int _ | Json.Float _ -> Some (k, Json.to_float v) | _ -> None)
        fields
  | _ -> failwith (path ^ ": not a JSON object")

let compare_benches old_path new_path =
  let old_rows = read_bench_json old_path in
  let new_rows = read_bench_json new_path in
  Printf.printf "%-50s %12s %12s %8s\n" "benchmark"
    (Filename.remove_extension (Filename.basename old_path))
    (Filename.remove_extension (Filename.basename new_path))
    "old/new";
  let regressions = ref 0 in
  List.iter
    (fun (name, o) ->
      match List.assoc_opt name new_rows with
      | None -> ()
      | Some n ->
          let ratio = o /. n in
          let flag = if ratio < 1.0 /. 1.10 then "  REGRESSED" else "" in
          if flag <> "" then incr regressions;
          Printf.printf "%-50s %12.0f %12.0f %7.2fx%s\n" name o n ratio flag)
    old_rows;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name new_rows) then
        Printf.printf "%-50s (only in %s)\n" name (Filename.basename old_path))
    old_rows;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name old_rows) then
        Printf.printf "%-50s (only in %s)\n" name (Filename.basename new_path))
    new_rows;
  if !regressions > 0 then
    Printf.printf "\n%d benchmark(s) regressed by more than 10%%\n" !regressions

(* --smoke: one pass through each bench family, no timing — a CI guard
   that the harness and everything it exercises still run.  Also asserts
   the reduced metric agrees with brute force on u226, and the
   lane-parallel engine agrees with the scalar engine class by class on
   d695 and u226. *)
let lane_agree name net =
  let ctx = Engine.make_ctx net in
  let classes = Array.of_list (Fault.collapse net (Fault.universe net)) in
  let vs, _ = Engine.analyze_lanes_stats ctx classes in
  Array.iteri
    (fun i c ->
      if vs.(i) <> Engine.analyze ctx (Some c.Fault.cls_rep) then
        failwith
          (Printf.sprintf
             "smoke: lane verdict disagrees with Engine.analyze on %s" name))
    classes

let smoke () =
  (* the --json writer must be pointed inside the checkout, even though
     the smoke run itself writes nothing *)
  ignore (repo_root ());
  lane_agree "d695" d695;
  lane_agree "u226" u226;
  let r = Metric.evaluate ~sample:16 u226 in
  let b = Metric.evaluate ~sample:16 ~reduce:false u226 in
  if
    r.Metric.worst_segments <> b.Metric.worst_segments
    || r.Metric.avg_segments <> b.Metric.avg_segments
    || r.Metric.avg_bits <> b.Metric.avg_bits
  then failwith "smoke: reduced metric disagrees with brute force on u226";
  let pr = Metric.evaluate_pairs ~exhaustive:true small in
  let pb = Metric.evaluate_pairs ~exhaustive:true ~reduce:false small in
  if
    pr.Metric.worst_segments <> pb.Metric.worst_segments
    || pr.Metric.avg_segments <> pb.Metric.avg_segments
    || pr.Metric.worst_bits <> pb.Metric.worst_bits
    || pr.Metric.avg_bits <> pb.Metric.avg_bits
  then failwith "smoke: pair reduction disagrees with brute pairs on small";
  (match pr.Metric.pairs with
  | Some p
    when p.Metric.p_diagonal + p.Metric.p_disjoint + p.Metric.p_stacked
         = p.Metric.p_class_pairs ->
      ()
  | Some _ -> failwith "smoke: pair dispatch stats do not cover all pairs"
  | None -> failwith "smoke: exhaustive pair sweep reported no stats");
  (match Metric.evaluate_pairs ~model:Fault.Transient small with
  | exception Metric.Unsupported _ -> ()
  | _ -> failwith "smoke: transient pairs must raise Metric.Unsupported");
  ignore (Metric.evaluate ~sample:16 ~domains:2 u226);
  ignore (Engine.analyze small_ctx (Some small_fault));
  ignore (Bmc.check_access small_bmc ~fault:small_fault ~target:2 ());
  ignore (Augment.solve p_small);
  ignore (Retarget.plan_write u226_ctx ~target:5 ());
  (* proof_logging group: every leg must run, every emitted proof must be
     accepted by the independent checker (php_checked and ~certify raise
     on any rejected step), and the certified sweep must actually have
     certified something. *)
  php_solve None;
  php_checked ();
  let c = Metric.evaluate ~engine:`Bmc ~certify:true small in
  let cu = Metric.evaluate ~sample:16 ~engine:`Bmc ~certify:true u226 in
  (match (c.Metric.solver, cu.Metric.solver) with
  | Some sc, Some su
    when sc.Metric.s_cert_unsat > 0
         && sc.Metric.s_cert_lemmas > 0
         && su.Metric.s_cert_unsat > 0 ->
      ()
  | _ -> failwith "smoke: certified metric reported no certification work");
  let p = Metric.evaluate ~engine:`Bmc small in
  if
    c.Metric.worst_segments <> p.Metric.worst_segments
    || c.Metric.avg_bits <> p.Metric.avg_bits
  then failwith "smoke: certified BMC metric disagrees with plain BMC";
  (* sat_core group: each leg must run, and a certified session with a
     forced learnt limit of 0 must push minimized lemmas AND LBD-tier
     deletions through the checker (Certification_failed would raise on
     any rejected step). *)
  php65 ();
  rand3sat ();
  let csess = Bmc.Session.create ~certify:true (Bmc.create small) in
  Solver.set_learnt_limit (Bmc.Session.solver csess) (Some 0);
  ignore (Bmc.Session.check_faults csess ~target:0 small_universe);
  let cst = Bmc.Session.stats csess in
  (match cst.Bmc.Session.cert with
  | Some cc
    when cc.Bmc.Session.cert_unsat > 0 && cc.Bmc.Session.cert_lemmas > 0 ->
      ()
  | _ -> failwith "smoke: forced-reduction certified session certified nothing");
  if cst.Bmc.Session.search.Solver.st_learnt_lits = 0 then
    failwith "smoke: certified session learnt nothing";
  if cst.Bmc.Session.search.Solver.st_reductions = 0 then
    failwith "smoke: forced learnt limit did not trigger DB reductions";
  (* Checker acceptance with simplification active: a checker-mirrored
     PHP(6,5) refutation behind an explicit preprocessing pass.  The
     pass must actually simplify (otherwise the leg asserts nothing),
     every derived clause must be accepted as a RUP lemma, and the final
     refutation must still be certified. *)
  let chk = Checker.create () in
  let s = Solver.create () in
  Solver.set_proof_sink s
    (Some
       (fun ev ->
         match ev with
         | Solver.P_input cl -> Checker.add_clause chk cl
         | Solver.P_add cl -> (
             match Checker.add_lemma chk cl with
             | Ok () -> ()
             | Error e ->
                 failwith ("smoke: simplification proof rejected: " ^ e))
         | Solver.P_delete cl -> Checker.delete_clause chk cl));
  let v p h = (p * 5) + h + 1 in
  for p = 0 to 5 do
    Solver.add_clause s [ v p 0; v p 1; v p 2; v p 3; v p 4 ]
  done;
  for h = 0 to 4 do
    for p1 = 0 to 5 do
      for p2 = p1 + 1 to 5 do
        Solver.add_clause s [ -(v p1 h); -(v p2 h) ]
      done
    done
  done;
  Solver.inprocess s;
  let sst = Solver.search_stats s in
  if sst.Solver.st_simp_passes < 1 then
    failwith "smoke: forced preprocessing pass did not run";
  if
    sst.Solver.st_eliminated_vars = 0
    && sst.Solver.st_subsumed = 0
    && sst.Solver.st_strengthened_lits = 0
    && sst.Solver.st_vivified_lits = 0
  then failwith "smoke: preprocessing pass simplified nothing";
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat -> failwith "smoke: PHP(6,5) must be unsat");
  if not (Checker.contradiction chk) then
    failwith "smoke: checker did not certify the preprocessed refutation";
  (* Certified == plain must hold with an inprocessing pass forced
     mid-session: sweep half the universe, force a pass (the schedule
     would not fire on this small instance), sweep the rest, and compare
     every verdict against an uncertified, unsimplified session. *)
  let half = List.length small_universe / 2 in
  let first_half = List.filteri (fun i _ -> i < half) small_universe in
  let second_half = List.filteri (fun i _ -> i >= half) small_universe in
  let isess = Bmc.Session.create ~certify:true (Bmc.create small) in
  let iv1 = Bmc.Session.check_faults isess ~target:0 first_half in
  Solver.inprocess (Bmc.Session.solver isess);
  let iv2 = Bmc.Session.check_faults isess ~target:0 second_half in
  let psess = Bmc.Session.create (Bmc.create small) in
  Solver.set_inprocess (Bmc.Session.solver psess) false;
  let pv1 = Bmc.Session.check_faults psess ~target:0 first_half in
  let pv2 = Bmc.Session.check_faults psess ~target:0 second_half in
  if iv1 <> pv1 || iv2 <> pv2 then
    failwith "smoke: certified verdicts changed under forced inprocessing";
  let ist = Bmc.Session.stats isess in
  if ist.Bmc.Session.search.Solver.st_simp_passes < 1 then
    failwith "smoke: mid-session inprocessing pass did not run";
  (match ist.Bmc.Session.cert with
  | Some cc when cc.Bmc.Session.cert_unsat > 0 -> ()
  | _ -> failwith "smoke: inprocessed certified session certified nothing");
  (* service group: a warm pooled response must be bit-identical to a
     cold one-shot response (the serve-vs-CLI contract). *)
  let q = svc_metric ~sample:16 "u226" in
  let cold = SResponse.to_string (SExec.run (SPool.create ()) q) in
  let warm = SResponse.to_string (SExec.run svc_pool q) in
  if cold <> warm then
    failwith "smoke: warm service response differs from cold one-shot";
  print_endline "bench smoke OK"

let () =
  (match Array.to_list Sys.argv with
  | _ :: "--compare" :: old_path :: new_path :: _ ->
      compare_benches old_path new_path;
      exit 0
  | _ :: "--compare" :: _ ->
      prerr_endline "usage: bench --compare OLD.json NEW.json";
      exit 2
  | _ -> ());
  if Array.exists (( = ) "--smoke") Sys.argv then begin
    smoke ();
    exit 0
  end;
  let results = benchmark () in
  Printf.printf "%-50s %15s %8s\n" "benchmark" "ns/run" "r^2";
  let rows = ref [] in
  Hashtbl.iter (fun name ols -> rows := (name, ols) :: !rows) results;
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%15.0f" e
        | _ -> Printf.sprintf "%15s" "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%8.4f" r
        | None -> "     n/a"
      in
      Printf.printf "%-50s %s %s\n" name estimate r2)
    (List.sort compare !rows);
  if Array.exists (( = ) "--json") Sys.argv then begin
    let root = repo_root () in
    (* A dirty capture measures code no commit identifies; make that
       impossible to miss (CI refuses committed dumps with dirty=true). *)
    (match git_dirty root with
    | Some true ->
        prerr_endline
          "\n\
           ************************************************************\n\
           *** WARNING: dirty working tree (_meta.dirty = true).    ***\n\
           *** This dump measures code no commit identifies — do    ***\n\
           *** NOT commit it; rerun from a clean checkout instead.  ***\n\
           ************************************************************"
    | _ -> ());
    write_json ~root
      (Filename.concat root "BENCH_9.json")
      (List.sort compare !rows)
  end;
  (* Clause-reuse profile of one incremental session sweeping the small
     network's fault universe: after the first query pays for the shared
     cones, later queries re-emit only their fault-specific clauses. *)
  let sess = Bmc.Session.create (Bmc.create small) in
  ignore (Bmc.Session.check_faults sess ~target:0 small_universe);
  let st = Bmc.Session.stats sess in
  Printf.printf
    "\nincremental session, %d-fault universe (small): %d queries, %d \
     clauses emitted, %d nodes reused, %d conflicts\n"
    (List.length small_universe)
    st.Bmc.Session.queries st.Bmc.Session.clauses_emitted
    st.Bmc.Session.nodes_reused st.Bmc.Session.search.Solver.st_conflicts;
  Printf.printf "clauses emitted per query:";
  List.iter
    (fun q -> Printf.printf " %d" q.Bmc.Session.q_emitted)
    st.Bmc.Session.per_query;
  print_newline ()
