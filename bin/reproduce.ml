(* Regenerates the paper's Table I and the textual claims of §IV:
   per ITC'02 SoC, the RSN characteristics, the accessibility of the
   SIB-based and fault-tolerant RSNs under all single stuck-at faults, the
   area overhead ratios, and the augmentation solver statistics.

   See EXPERIMENTS.md for the recorded paper-vs-measured comparison. *)

module Itc02 = Ftrsn_itc02.Itc02
module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Pipeline = Ftrsn_core.Pipeline
module Metric = Ftrsn_core.Metric
module Area = Ftrsn_core.Area
module Augment = Ftrsn_core.Augment
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget
module Query = Ftrsn_service.Query
module Response = Ftrsn_service.Response
module Pool = Ftrsn_service.Pool
module Exec = Ftrsn_service.Exec
module Json = Ftrsn_service.Json

(* The accessibility sweeps run through the service query layer against a
   process-wide warm pool: one SoC's synthesis, structural context and
   collapsed fault universe are built once and shared by every part that
   touches that network (sib-access, ft-access, double-faults), exactly
   as a `ftrsn-tool serve` daemon would share them between requests. *)
let pool = lazy (Pool.create ())

let soc_spec ?(ft = false) soc =
  { Query.ns_source = `Itc02 soc.Itc02.soc_name; Query.ns_ft = ft }

let net_of spec =
  match Pool.acquire (Lazy.force pool) spec with
  | Ok e ->
      let net = Pool.net e in
      Pool.release (Lazy.force pool) e;
      net
  | Error msg ->
      prerr_endline msg;
      exit 1

(* Runs one metric-class query and returns its payload; certification
   failures abort the run with the documented exit code. *)
let metric_query q =
  match Exec.run (Lazy.force pool) q with
  | Response.Metric_r m -> m
  | Response.Error_r (Response.Cert_failed, msg) ->
      Printf.eprintf "certification: FAILED: %s\n" msg;
      exit 3
  | Response.Error_r (_, msg) ->
      prerr_endline msg;
      exit 1
  | _ ->
      prerr_endline "unexpected response payload";
      exit 1

type part =
  | Characteristics
  | Sib_access
  | Ft_access
  | Area_overhead
  | Ilp_stats
  | Latency
  | Ablation
  | Double_faults
  | Fault_models
  | Coverage
  | Csv
  | All

let part_of_string = function
  | "characteristics" -> Ok Characteristics
  | "sib-access" -> Ok Sib_access
  | "ft-access" -> Ok Ft_access
  | "area" -> Ok Area_overhead
  | "ilp-stats" -> Ok Ilp_stats
  | "latency" -> Ok Latency
  | "ablation" -> Ok Ablation
  | "double-faults" -> Ok Double_faults
  | "fault-models" -> Ok Fault_models
  | "coverage" -> Ok Coverage
  | "csv" -> Ok Csv
  | "all" -> Ok All
  | s -> Error (`Msg ("unknown part: " ^ s))

let soc_list socs =
  match socs with
  | [] -> Itc02.all
  | names ->
      List.map
        (fun n ->
          match Itc02.find n with
          | Some s -> s
          | None ->
              Printf.eprintf "unknown SoC: %s (known: %s)\n" n
                (String.concat ", "
                   (List.map (fun s -> s.Itc02.soc_name) Itc02.all));
              exit 1)
        names

let characteristics socs =
  Printf.printf "%-9s %8s %7s %6s %9s %7s\n" "SoC" "modules" "levels" "mux"
    "segments" "bits";
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      Printf.printf "%-9s %8d %7d %6d %9d %7d\n" soc.Itc02.soc_name
        soc.Itc02.soc_modules
        (Netlist.max_hier net)
        (Netlist.num_muxes net)
        (Netlist.num_segments net)
        (Netlist.total_bits net))
    socs

let metric_row name r =
  let m = Response.result_of_metric_r r in
  let red =
    match m.Metric.reduction with
    | None -> ""
    | Some r ->
        Printf.sprintf " -> %d classes, cone avg %.0f/%d segs"
          r.Metric.r_classes
          (if r.Metric.r_classes = 0 then 0.0
           else
             float_of_int r.Metric.r_cone_sum /. float_of_int r.Metric.r_classes)
          r.Metric.r_cone_max
  in
  let search =
    match m.Metric.solver with
    | Some s when s.Metric.s_learnt_lits > 0 ->
        Printf.sprintf "; %d restarts, %.0f%% lits minimized, %d reductions"
          s.Metric.s_restarts
          (100.0
          *. float_of_int s.Metric.s_minimized_lits
          /. float_of_int s.Metric.s_learnt_lits)
          s.Metric.s_reductions
    | _ -> ""
  in
  let cert =
    match m.Metric.solver with
    | Some s when s.Metric.s_cert_unsat > 0 || s.Metric.s_cert_lemmas > 0 ->
        Printf.sprintf "; certified: %d UNSAT, %d lemmas, %.2fs"
          s.Metric.s_cert_unsat s.Metric.s_cert_lemmas s.Metric.s_cert_time
    | _ -> ""
  in
  Printf.printf "%-9s %10.2f %9.3f %12.3f %11.3f   (%d faults%s%s%s)\n" name
    m.Metric.worst_bits m.Metric.avg_bits m.Metric.worst_segments
    m.Metric.avg_segments m.Metric.faults red search cert

let access_header () =
  Printf.printf "%-9s %10s %9s %12s %11s\n" "SoC" "bits-worst" "bits-avg"
    "segs-worst" "segs-avg"

(* [certify] switches the accessibility sweeps to the BMC engine in
   certified mode: the solver streams a DRUP proof to an independent RUP
   checker and every UNSAT verdict's final clause is verified inline;
   Bmc.Session.Certification_failed aborts the run (exit 3). *)

let access_query ?sample ~certify spec =
  if certify then
    Query.Certify
      {
        Query.cq_net = spec;
        cq_sample = sample;
        cq_domains = 1;
        cq_pairs = false;
        cq_model = Fault.Stuck;
        cq_with_stats = true;
      }
  else
    Query.Metric
      {
        Query.mq_net = spec;
        mq_sample = sample;
        mq_domains = 1;
        mq_engine = `Structural;
        mq_reduce = true;
        mq_inprocess = true;
        mq_model = Fault.Stuck;
        mq_with_stats = true;
      }

let access_sweep ?sample ~certify ~ft socs =
  List.map
    (fun soc ->
      let m =
        metric_query (access_query ?sample ~certify (soc_spec ~ft soc))
      in
      (soc.Itc02.soc_name, m))
    socs

(* One machine-readable row: the "data" object of the wire response to
   the row's query (with its stats block), prefixed by the row keys. *)
let json_row keys m =
  Json.Obj
    (keys
    @ Json.to_obj (Json.get "data" (Response.encode (Response.Metric_r m))))

let sib_access ?sample ?(certify = false) socs =
  access_header ();
  List.iter
    (fun (name, m) -> metric_row name m)
    (access_sweep ?sample ~certify ~ft:false socs)

let ft_access ?sample ?(certify = false) socs =
  access_header ();
  List.iter
    (fun (name, m) -> metric_row name m)
    (access_sweep ?sample ~certify ~ft:true socs)

let area socs =
  Printf.printf "%-9s %6s %6s %6s %6s\n" "SoC" "mux" "bits" "nets" "area";
  let weighted = ref 0.0 and weight = ref 0.0 in
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      let r = Pipeline.synthesize net in
      let rt = r.Pipeline.area_ratios in
      weighted :=
        !weighted +. (float_of_int soc.Itc02.soc_bits *. (rt.Area.r_area -. 1.));
      weight := !weight +. float_of_int soc.Itc02.soc_bits;
      Printf.printf "%-9s %6.2f %6.2f %6.2f %6.2f\n" soc.Itc02.soc_name
        rt.Area.r_mux rt.Area.r_bits rt.Area.r_nets rt.Area.r_area)
    socs;
  Printf.printf
    "weighted average area increase (by scan bits): %.1f%% (paper: 8.2%%)\n"
    (100.0 *. !weighted /. !weight)

let augment_stats socs =
  Printf.printf "%-9s %9s %7s %9s\n" "SoC" "new-edges" "cost" "time(s)";
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      let p = Augment.of_netlist net in
      let t0 = Unix.gettimeofday () in
      let sol = Augment.solve p in
      let dt = Unix.gettimeofday () -. t0 in
      (match Augment.verify p sol.Augment.new_edges with
      | Ok () -> ()
      | Error e -> failwith ("augmentation verification failed: " ^ e));
      Printf.printf "%-9s %9d %7d %9.2f\n" soc.Itc02.soc_name
        (List.length sol.Augment.new_edges)
        sol.Augment.cost dt)
    socs

let latency socs =
  (* §IV intro: the number of cycles to access a segment on an active path
     is not increased by the synthesis — fault-free retargeting uses the
     same paths (same segments, same CSU count) in both RSNs. *)
  Printf.printf "%-9s %9s %12s %12s %9s\n" "SoC" "segments" "same-path"
    "same-csus" "checked";
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      let r = Pipeline.synthesize net in
      let ctx_o = Engine.make_ctx net in
      let ctx_f = Engine.make_ctx r.Pipeline.ft in
      let same_path = ref 0 and same_csus = ref 0 and checked = ref 0 in
      let step = max 1 (Netlist.num_segments net / 40) in
      let s = ref 0 in
      while !s < Netlist.num_segments net do
        (match
           ( Retarget.plan_write ctx_o ~target:!s (),
             Retarget.plan_write ctx_f ~target:!s () )
         with
        | Some po, Some pf ->
            incr checked;
            if po.Retarget.access_path = pf.Retarget.access_path then
              incr same_path;
            if List.length po.Retarget.steps = List.length pf.Retarget.steps
            then incr same_csus
        | _ -> failwith "fault-free plan missing");
        s := !s + step
      done;
      Printf.printf "%-9s %9d %12d %12d %9d\n" soc.Itc02.soc_name
        (Netlist.num_segments net)
        !same_path !same_csus !checked)
    socs

module Synthesis = Ftrsn_core.Synthesis

(* Contribution of each hardening mechanism (DESIGN.md §6): re-synthesize
   with one mechanism disabled and compare the metric and area. *)
let ablation ?sample socs =
  let variants =
    let d = Synthesis.default_options in
    [
      ("full", d);
      ("no-tmr", { d with Synthesis.opt_tmr = false });
      ("no-dual-ports", { d with Synthesis.opt_dual_ports = false });
      ("no-select-hardening", { d with Synthesis.opt_select_hardening = false });
      ("no-rescue-lines", { d with Synthesis.opt_rescue_lines = false });
      ("no-dual-host", { d with Synthesis.opt_dual_host = false });
      ( "graph-only",
        {
          Synthesis.opt_tmr = false;
          opt_dual_ports = false;
          opt_select_hardening = false;
          opt_rescue_lines = false;
          opt_dual_host = false;
        } );
    ]
  in
  List.iter
    (fun soc ->
      Printf.printf "%s:
" soc.Itc02.soc_name;
      Printf.printf "  %-22s %10s %9s %7s
" "variant" "segs-worst" "segs-avg"
        "area";
      let net = Itc02.rsn soc in
      List.iter
        (fun (name, options) ->
          let r = Pipeline.synthesize ~options net in
          let m = Metric.evaluate ?sample r.Pipeline.ft in
          Printf.printf "  %-22s %10.3f %9.4f %7.2f
%!" name
            m.Metric.worst_segments m.Metric.avg_segments
            r.Pipeline.area_ratios.Area.r_area)
        variants)
    socs

(* Double simultaneous faults: how gracefully does the single-fault
   design degrade?  (Extension beyond the paper's scope.)

   Fault universes up to this size get the EXACT full pair sweep via the
   class-pair reduction; beyond it the legacy deterministic pair
   subsample is the fallback.  Only p93791's original network and the FT
   networks of d695, t512505, p22081 and p93791 are over the line. *)
let exhaustive_pair_limit = 13_000

let double_fault_sweep ?sample socs =
  List.concat_map
    (fun soc ->
      let run name spec =
        let n = List.length (Ftrsn_fault.Fault.universe (net_of spec)) in
        let exact = sample = None && n <= exhaustive_pair_limit in
        let pair_sample =
          if exact then None
          else
            (* keep roughly 10k pairs *)
            Some (Option.value sample ~default:(max 37 (n * n / 2 / 10_000)))
        in
        let m =
          metric_query
            (Query.Pairs
               {
                 Query.pq_net = spec;
                 pq_fault_sample = None;
                 pq_pair_sample = pair_sample;
                 pq_domains = 1;
                 pq_engine = `Structural;
                 pq_reduce = true;
                 pq_model = Fault.Stuck;
                 pq_with_stats = true;
               })
        in
        (soc.Itc02.soc_name, name, exact, m)
      in
      [ run "original" (soc_spec soc); run "ft" (soc_spec ~ft:true soc) ])
    socs

let double_faults ?sample socs =
  Printf.printf "%-9s %9s %8s %12s %11s %12s %11s\n" "SoC" "network" "mode"
    "segs-worst" "segs-avg" "bits-worst" "bits-avg";
  List.iter
    (fun (soc_name, name, exact, r) ->
      let m = Response.result_of_metric_r r in
      Printf.printf "%-9s %9s %8s %12.3f %11.4f %12.3f %11.4f\n%!" soc_name
        name
        (if exact then "exact" else "sampled")
        m.Metric.worst_segments m.Metric.avg_segments m.Metric.worst_bits
        m.Metric.avg_bits;
      (match m.Metric.pairs with
      | None -> ()
      | Some p ->
          Printf.printf
            "%-9s %9s          %d classes -> %d class pairs: %d diagonal, \
             %d disjoint (%.1f%%), %d stacked deltas\n%!"
            "" ""
            p.Metric.p_classes p.Metric.p_class_pairs p.Metric.p_diagonal
            p.Metric.p_disjoint
            (100.0
            *. float_of_int p.Metric.p_disjoint
            /. float_of_int (max 1 p.Metric.p_class_pairs))
            p.Metric.p_stacked);
      match m.Metric.pair_lanes with
      | None -> ()
      | Some l ->
          Printf.printf
            "%-9s %9s          pair lanes: %d batches x %d lanes, %d fast, \
             %d masked, %d rounds\n%!"
            "" "" l.Engine.ls_batches l.Engine.ls_lanes l.Engine.ls_fast
            l.Engine.ls_masked l.Engine.ls_rounds)
    (double_fault_sweep ?sample socs)

(* Accessibility under the non-stuck fault universes (extension beyond
   the paper): per SoC and network, one metric row per fault model with
   its universe / class-collapse counters.  All three models ride the
   same reduction machinery as the stuck-at sweep, warm-pooled per
   network, so this part exercises the per-model keying end to end. *)
let fault_models ?sample socs =
  Printf.printf "%-9s %9s %-9s %12s %11s %12s %11s %9s %8s\n" "SoC" "network"
    "model" "segs-worst" "segs-avg" "bits-worst" "bits-avg" "universe"
    "classes";
  List.iter
    (fun soc ->
      let run name spec =
        List.iter
          (fun model ->
            let m =
              Response.result_of_metric_r
                (metric_query
                   (Query.Metric
                      {
                        Query.mq_net = spec;
                        mq_sample = sample;
                        mq_domains = 1;
                        mq_engine = `Structural;
                        mq_reduce = true;
                        mq_inprocess = true;
                        mq_model = model;
                        mq_with_stats = true;
                      }))
            in
            let universe, classes =
              match m.Metric.reduction with
              | Some r -> (r.Metric.r_universe, r.Metric.r_classes)
              | None -> (m.Metric.faults, 0)
            in
            Printf.printf
              "%-9s %9s %-9s %12.3f %11.4f %12.3f %11.4f %9d %8d\n%!"
              soc.Itc02.soc_name name
              (Fault.model_to_string model)
              m.Metric.worst_segments m.Metric.avg_segments
              m.Metric.worst_bits m.Metric.avg_bits universe classes)
          Fault.all_models
      in
      run "original" (soc_spec soc);
      run "ft" (soc_spec ~ft:true soc))
    socs

module Report = Ftrsn_core.Report

let csv ?sample socs =
  print_endline Report.csv_header;
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      print_endline
        (Report.to_csv (Report.row ?sample ~name:soc.Itc02.soc_name net));
      flush stdout)
    socs

(* Fault coverage / diagnostic resolution of the built-in stimulus. *)
let coverage socs =
  Printf.printf "%-9s %9s %10s %9s %9s\n" "SoC" "network" "coverage"
    "classes" "faults";
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      let n = List.length (Ftrsn_fault.Fault.universe net) in
      Printf.printf "%-9s %9s %10.3f %9d %9d\n%!" soc.Itc02.soc_name
        "original"
        (Ftrsn_access.Diagnose.coverage net)
        (Ftrsn_access.Diagnose.distinguishable_classes net)
        n)
    socs

(* --json output: one object, one array of per-SoC rows per access part
   (or per double-fault sweep).  Only these parts have a
   machine-readable form — they are what CI and EXPERIMENTS.md consume;
   the other parts stay human. *)
let run_json part socs sample certify =
  if part = Double_faults then begin
    let rows =
      List.map
        (fun (soc, name, exact, m) ->
          json_row
            [
              ("soc", Json.Str soc);
              ("network", Json.Str name);
              ("mode", Json.Str (if exact then "exact" else "sampled"));
            ]
            m)
        (double_fault_sweep ?sample socs)
    in
    print_endline
      (Json.to_string (Json.Obj [ ("double_faults", Json.List rows) ]))
  end
  else begin
    let parts =
      (match part with Sib_access | All -> [ ("sib_access", false) ] | _ -> [])
      @ match part with Ft_access | All -> [ ("ft_access", true) ] | _ -> []
    in
    if parts = [] then begin
      prerr_endline
        "--json supports only --part sib-access, ft-access, double-faults or \
         all";
      exit 1
    end;
    let doc =
      List.map
        (fun (key, ft) ->
          ( key,
            Json.List
              (List.map
                 (fun (name, m) -> json_row [ ("soc", Json.Str name) ] m)
                 (access_sweep ?sample ~certify ~ft socs))
          ))
        parts
    in
    print_endline (Json.to_string (Json.Obj doc))
  end

let run part socs sample certify =
  let socs = soc_list socs in
  let banner title =
    Printf.printf "\n== %s ==\n" title
  in
  (match part with
  | Characteristics | All ->
      banner "Table I: RSN characteristics";
      characteristics socs
  | _ -> ());
  (match part with
  | Sib_access | All ->
      banner "Table I: accessibility in SIB-based RSNs";
      sib_access ?sample ~certify socs
  | _ -> ());
  (match part with
  | Ft_access | All ->
      banner "Table I: accessibility in fault-tolerant RSNs";
      ft_access ?sample ~certify socs
  | _ -> ());
  (match part with
  | Area_overhead | All ->
      banner "Table I: RSN area overhead (fault-tolerant / original)";
      area socs
  | _ -> ());
  (match part with
  | Ilp_stats | All ->
      banner "Augmentation solver statistics (paper <8 min for p93791)";
      augment_stats socs
  | _ -> ());
  (match part with
  | Latency | All ->
      banner "Access latency preservation (paper SIV intro)";
      latency socs
  | _ -> ());
  (match part with
  | Ablation ->
      banner "Hardening ablation (DESIGN.md par. 6)";
      ablation ?sample socs
  | _ -> ());
  (match part with
  | Double_faults ->
      banner "Double simultaneous faults (extension beyond the paper)";
      double_faults ?sample socs
  | _ -> ());
  (match part with
  | Fault_models ->
      banner "Accessibility per fault model (extension beyond the paper)";
      fault_models ?sample socs
  | _ -> ());
  (match part with
  | Coverage ->
      banner "Diagnostic stimulus fault coverage (extension)";
      coverage socs
  | _ -> ());
  (match part with Csv -> csv ?sample socs | _ -> ());
  if certify then
    print_endline "\ncertification: OK (all UNSAT verdicts RUP-checked)"

let run part socs sample certify json =
  try
    if json then run_json part (soc_list socs) sample certify
    else run part socs sample certify
  with Ftrsn_bmc.Bmc.Session.Certification_failed msg ->
    Printf.eprintf "certification: FAILED: %s\n" msg;
    exit 3

let () =
  let open Cmdliner in
  let part_conv =
    Arg.conv ~docv:"PART" (part_of_string, fun fmt _ -> Fmt.string fmt "part")
  in
  let part =
    Arg.(value & opt part_conv All & info [ "part" ] ~doc:"Which experiment part to run: characteristics, sib-access, ft-access, area, ilp-stats, latency, ablation, double-faults, fault-models, coverage, csv or all.")
  in
  let socs =
    Arg.(value & opt_all string [] & info [ "soc" ] ~doc:"Restrict to a SoC (repeatable), e.g. --soc u226 --soc p93791.")
  in
  let sample =
    Arg.(value & opt (some int) None & info [ "sample" ] ~doc:"Evaluate every k-th fault only (primary port faults always kept).")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ] ~doc:"Run the accessibility sweeps (sib-access, ft-access) through the BMC engine in certified mode: an independent RUP checker verifies the solver's proof of every UNSAT verdict inline.  Exits 3 on any rejected proof step.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the accessibility sweeps (sib-access, ft-access) or the double-fault sweep as one JSON object instead of tables; each row is the \"data\" object of the wire response to that SoC's query, stats block included (\"stats\" holds the lane, pair-lane and solver counters), plus the row keys \"soc\" (and \"network\", \"mode\" for double-faults).  Only valid with --part sib-access, ft-access, double-faults or all.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "reproduce" ~doc:"Regenerate Table I of 'Synthesis of Fault-Tolerant Reconfigurable Scan Networks' (DATE'20)")
      Term.(const run $ part $ socs $ sample $ certify $ json)
  in
  exit (Cmd.eval cmd)
