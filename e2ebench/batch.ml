(* The three batch workloads — table1, pairs and certify.

   Each is a list of operation kinds over inputs built once per set-up.
   The timed run repeats the kinds round-robin through public entry
   points only.  The traced run makes one pass in which every layer an
   operation goes through is first called on its own, inside a span, and
   the entry point then runs inside its own span: the layer spans time
   the work the entry point repeats internally, and the difference shows
   what the entry point adds. *)

module Json = Ftrsn_service.Json
module Query = Ftrsn_service.Query
module Response = Ftrsn_service.Response
module Pool = Ftrsn_service.Pool
module Exec = Ftrsn_service.Exec
module Itc02 = Ftrsn_itc02.Itc02
module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Bmc = Ftrsn_bmc.Bmc
module Metric = Ftrsn_core.Metric
module Pipeline = Ftrsn_core.Pipeline
module Augment = Ftrsn_core.Augment
module Synthesis = Ftrsn_core.Synthesis
module Area = Ftrsn_core.Area

type check = unit -> (unit, string) result
(* Checks one operation's output; called after the measured phase. *)

type kind = {
  name : string;
  run : unit -> check;  (* performs the operation *)
  traced : Trace.t -> count:(string -> float -> unit) -> check;
      (* performs it layer by layer, adding the layers' work counters
         with [count] *)
}

type t = { kinds : kind list; setup_checks : (unit, string) result list }

let soc name =
  match Itc02.find name with
  | Some s -> s
  | None -> invalid_arg ("unknown SoC " ^ name)

let span = Trace.with_span

let errors results = List.filter_map (function Ok () -> None | Error e -> Some e) results

let all_ok results =
  match errors results with [] -> Ok () | errs -> Error (String.concat "; " errs)

(* Every k-th fault plus the primary-port faults: the thinning that
   [Metric.evaluate ~sample] and [evaluate_pairs ~fault_sample] apply
   before collapsing, repeated so the traced fault layer sees the
   universe the entry point sees. *)
let thin sample faults =
  match sample with
  | None -> faults
  | Some k ->
      List.filteri
        (fun i f ->
          i mod k = 0
          ||
          match f.Fault.site with
          | Fault.Primary_in | Fault.Primary_out -> true
          | _ -> false)
        faults

let traced_faults tr ~count ?sample net =
  let faults = span tr "fault.universe" (fun () -> thin sample (Fault.universe net)) in
  let classes =
    span tr "fault.collapse" (fun () -> Array.of_list (Fault.collapse net faults))
  in
  count "fault.classes" (float_of_int (Array.length classes));
  classes

let traced_warm tr net =
  let w = Metric.warm net in
  let ctx = span tr "engine.ctx" (fun () -> Metric.warm_ctx w) in
  let base = span tr "engine.baseline" (fun () -> Metric.warm_baseline w) in
  (w, ctx, base)

let count_lanes ~count prefix (l : Engine.lane_stats) =
  let c name v = count (prefix ^ name) (float_of_int v) in
  c "batches" l.Engine.ls_batches;
  c "rounds" l.Engine.ls_rounds;
  c "masked" l.Engine.ls_masked;
  c "fast" l.Engine.ls_fast

(* ------------------------------------------------------------------ *)
(* table1: one Table I row per SoC, as `reproduce --json` computes it.  *)

let table1_socs ~quick =
  if quick then [ "u226" ]
  else
    (* p22081 and p93791 are left out: their rows take 5.6 s and 38 s,
       too long to repeat within a run (README.md) *)
    [ "u226"; "d281"; "d695"; "h953"; "g1023"; "x1331"; "f2126"; "q12710";
      "t512505"; "a586710"; "p34392" ]

let spec ?(ft = false) name = { Query.ns_source = `Itc02 name; ns_ft = ft }

let metric_query ~ft name =
  Query.Metric
    {
      Query.mq_net = spec ~ft name;
      mq_sample = None;
      mq_domains = 1;
      mq_engine = `Structural;
      mq_reduce = true;
      mq_inprocess = true;
      mq_model = Fault.Stuck;
      mq_with_stats = true;
    }

let table1_check name ?part fields =
  let g = Golden.table1_row name in
  let g, what = match part with Some p -> (Json.get p g, name ^ " " ^ p) | None -> (g, name) in
  Golden.check (Lazy.force Golden.table1) ~what g fields

let check_access name part ~faults ~bits_worst ~bits_avg ~segs_worst ~segs_avg =
  table1_check name ~part
    [
      ("faults", float_of_int faults);
      ("bits_worst", bits_worst);
      ("bits_avg", bits_avg);
      ("segs_worst", segs_worst);
      ("segs_avg", segs_avg);
    ]

let check_metric_r name part = function
  | Response.Metric_r m ->
      check_access name part ~faults:m.Response.mr_faults
        ~bits_worst:m.Response.mr_worst_bits ~bits_avg:m.Response.mr_avg_bits
        ~segs_worst:m.Response.mr_worst_segments
        ~segs_avg:m.Response.mr_avg_segments
  | r -> Error (name ^ " " ^ part ^ ": " ^ Response.to_string r)

let check_metric name part (m : Metric.result) =
  check_access name part ~faults:m.Metric.faults ~bits_worst:m.Metric.worst_bits
    ~bits_avg:m.Metric.avg_bits ~segs_worst:m.Metric.worst_segments
    ~segs_avg:m.Metric.avg_segments

let check_area name area = table1_check name [ ("area", area) ]

(* The row on a fresh pool: SIB metric, FT metric (the pool synthesizes
   the FT network) and the synthesis query for the area ratio. *)
let table1_row name () =
  let pool = Pool.create () in
  let sib = Exec.run pool (metric_query ~ft:false name) in
  let ft = Exec.run pool (metric_query ~ft:true name) in
  let syn =
    Exec.run pool (Query.Synthesize { Query.sq_net = spec name; sq_emit = false })
  in
  fun () ->
    all_ok
      [
        check_metric_r name "sib" sib;
        check_metric_r name "ft" ft;
        (match syn with
        | Response.Synth_r s -> check_area name s.Response.sy_area_ratio
        | r -> Error (name ^ " synthesize: " ^ Response.to_string r));
      ]

(* Pipeline.synthesize, one public call per layer. *)
let traced_synthesize tr net =
  let p = span tr "augment.problem" (fun () -> Augment.of_netlist net) in
  let sol = span tr "augment.solve" (fun () -> Augment.solve p) in
  (match span tr "augment.verify" (fun () -> Augment.verify p sol.Augment.new_edges) with
  | Ok () -> ()
  | Error e -> failwith ("augmentation unsound: " ^ e));
  let ft, st =
    span tr "synthesis.run" (fun () ->
        Synthesis.run net ~new_edges:sol.Augment.new_edges)
  in
  let ratios =
    span tr "synthesis.area" (fun () ->
        Area.ratios ~orig:(Area.of_netlist net)
          ~ft:(Area.of_netlist ~port_muxes:st.Synthesis.port_muxes ft))
  in
  (ft, ratios)

(* Metric.evaluate on a warm state, as the pool runs it. *)
let traced_metric tr ~count net =
  let w, ctx, base = traced_warm tr net in
  let classes = traced_faults tr ~count net in
  let _, lanes =
    span tr "engine.lanes" (fun () -> Engine.analyze_lanes_stats ctx ~base classes)
  in
  count_lanes ~count "engine.lane_" lanes;
  span tr "metric.evaluate" (fun () -> Metric.evaluate ~warm:w net)

let table1_traced name tr ~count =
  let net = span tr "itc02.build" (fun () -> Itc02.rsn (soc name)) in
  let sib = traced_metric tr ~count net in
  let ft, ratios = traced_synthesize tr net in
  let ftm = traced_metric tr ~count ft in
  fun () ->
    all_ok
      [
        check_metric name "sib" sib;
        check_metric name "ft" ftm;
        check_area name ratios.Area.r_area;
      ]

let characteristics name =
  let s = soc name in
  let net = Itc02.rsn s in
  table1_check name
    [
      ("modules", float_of_int s.Itc02.soc_modules);
      ("levels", float_of_int (Netlist.max_hier net));
      ("mux", float_of_int (Netlist.num_muxes net));
      ("segments", float_of_int (Netlist.num_segments net));
      ("bits", float_of_int (Netlist.total_bits net));
    ]

let table1 ~quick () =
  let names = table1_socs ~quick in
  {
    kinds =
      List.map
        (fun name -> { name; run = table1_row name; traced = table1_traced name })
        names;
    setup_checks =
      List.map characteristics
        (if quick then names else List.map (fun s -> s.Itc02.soc_name) Itc02.all);
  }

(* ------------------------------------------------------------------ *)
(* Inputs shared by pairs and certify.                                  *)

let build_net ~ft name =
  let net = Itc02.rsn (soc name) in
  if ft then (Pipeline.synthesize net).Pipeline.ft else net

let kind_name ~ft name sample =
  (name ^ if ft then "-ft" else "")
  ^ match sample with Some k -> "/" ^ string_of_int k | None -> ""

(* ------------------------------------------------------------------ *)
(* pairs: exhaustive double-fault sweeps, against golden/pairs.json.    *)

let pairs_check name g (r : Metric.result) () =
  match r.Metric.pairs with
  | None -> Error (name ^ ": no pair statistics")
  | Some p ->
      Golden.check (Lazy.force Golden.pairs) ~what:name g
        [
          ("faults", float_of_int r.Metric.faults);
          ("classes", float_of_int p.Metric.p_classes);
          ("class_pairs", float_of_int p.Metric.p_class_pairs);
          ("diagonal", float_of_int p.Metric.p_diagonal);
          ("disjoint", float_of_int p.Metric.p_disjoint);
          ("stacked", float_of_int p.Metric.p_stacked);
          ("segs_worst", r.Metric.worst_segments);
          ("segs_avg", r.Metric.avg_segments);
          ("bits_worst", r.Metric.worst_bits);
          ("bits_avg", r.Metric.avg_bits);
        ]

let pairs_traced name g ?fault_sample net tr ~count =
  let w, ctx, base = traced_warm tr net in
  let classes = traced_faults tr ~count ?sample:fault_sample net in
  span tr "engine.probe" (fun () ->
      Array.iter (fun c -> ignore (Engine.probe ctx base c.Fault.cls_summary)) classes);
  span tr "engine.stack" (fun () ->
      Array.iter
        (fun c ->
          if not (Fault.summary_benign c.Fault.cls_summary) then
            ignore (Engine.stack ctx base c.Fault.cls_summary))
        classes);
  let r =
    span tr "metric.pairs" (fun () ->
        Metric.evaluate_pairs ?fault_sample ~exhaustive:true ~warm:w net)
  in
  (match r.Metric.pairs with
  | Some p ->
      let c name v = count ("metric.pairs." ^ name) (float_of_int v) in
      c "disjoint" p.Metric.p_disjoint;
      c "stacked" p.Metric.p_stacked;
      c "stacks" p.Metric.p_stacks
  | None -> ());
  Option.iter (count_lanes ~count "engine.pair_lanes.") r.Metric.pair_lanes;
  pairs_check name g r

let pairs ~quick () =
  let rows =
    List.filter
      (fun g ->
        (not quick) || (Json.get_str "net" g = "x1331" && not (Json.get_bool "ft" g)))
      (Lazy.force Golden.pairs).Golden.rows
  in
  let kind g =
    let ft = Json.get_bool "ft" g and net_name = Json.get_str "net" g in
    let fault_sample = Json.get_int_opt "fault_sample" g in
    let name = kind_name ~ft net_name fault_sample in
    let net = build_net ~ft net_name in
    {
      name;
      run =
        (fun () ->
          pairs_check name g (Metric.evaluate_pairs ?fault_sample ~exhaustive:true net));
      traced = pairs_traced name g ?fault_sample net;
    }
  in
  { kinds = List.map kind rows; setup_checks = [] }

(* ------------------------------------------------------------------ *)
(* certify: certified BMC metrics against the structural engine.        *)

let certify_inputs ~quick =
  if quick then [ ("q12710", true, Some 8) ]
  else
    [
      (* q12710/4 is conflict-heavy enough for one inprocessing pass *)
      ("q12710", false, Some 4);
      ("x1331", false, Some 16);
      ("u226", false, Some 32);
      ("q12710", true, Some 8);
      ("x1331", true, Some 16);
      ("u226", true, Some 32);
    ]

(* The BMC result must equal the structural engine's on the same sampled
   universe, field for field. *)
let agrees name reference (r : Metric.result) =
  let s = Lazy.force reference in
  let fields (m : Metric.result) =
    [
      ("worst_segments", m.Metric.worst_segments);
      ("avg_segments", m.Metric.avg_segments);
      ("worst_bits", m.Metric.worst_bits);
      ("avg_bits", m.Metric.avg_bits);
      ("faults", float_of_int m.Metric.faults);
      ("weight", float_of_int m.Metric.total_weight);
    ]
  in
  all_ok
    (List.map2
       (fun (k, v) (_, sv) ->
         if v = sv then Ok ()
         else Error (Printf.sprintf "%s %s = %.17g, structural %.17g" name k v sv))
       (fields r) (fields s))

let certify_check name reference (r : Metric.result) () =
  all_ok
    [
      agrees name reference r;
      (match r.Metric.solver with
      | Some so when so.Metric.s_cert_unsat > 0 -> Ok ()
      | _ -> Error (name ^ ": no UNSAT verdict certified"));
    ]

let certify_traced name reference ?sample net tr ~count =
  ignore (traced_warm tr net);
  ignore (traced_faults tr ~count ?sample net);
  ignore (span tr "bmc.create" (fun () -> Bmc.create net));
  let r =
    span tr "metric.certify" (fun () ->
        Metric.evaluate ?sample ~engine:`Bmc ~certify:true net)
  in
  let plain =
    span tr "metric.bmc_plain" (fun () -> Metric.evaluate ?sample ~engine:`Bmc net)
  in
  Option.iter
    (fun s ->
      let c name v = count name (float_of_int v) in
      c "sat.conflicts" s.Metric.s_conflicts;
      c "sat.decisions" s.Metric.s_decisions;
      c "sat.propagations" s.Metric.s_propagations;
      c "sat.learnt_lits" s.Metric.s_learnt_lits;
      c "sat.minimized_lits" s.Metric.s_minimized_lits;
      c "sat.simp_passes" s.Metric.s_simp_passes;
      c "bmc.clauses_emitted" s.Metric.s_clauses_emitted;
      c "bmc.nodes_reused" s.Metric.s_nodes_reused;
      c "sat.cert_unsat" s.Metric.s_cert_unsat;
      c "sat.cert_lemmas" s.Metric.s_cert_lemmas;
      count "sat.cert_time_s" s.Metric.s_cert_time)
    r.Metric.solver;
  fun () -> all_ok [ certify_check name reference r (); agrees name reference plain ]

let certify ~quick () =
  let kind (net_name, ft, sample) =
    let name = kind_name ~ft net_name sample in
    let net = build_net ~ft net_name in
    (* the independent reference, computed once when first checked *)
    let reference = lazy (Metric.evaluate ?sample net) in
    {
      name;
      run =
        (fun () ->
          certify_check name reference
            (Metric.evaluate ?sample ~engine:`Bmc ~certify:true net));
      traced = certify_traced name reference ?sample net;
    }
  in
  { kinds = List.map kind (certify_inputs ~quick); setup_checks = [] }

(* ------------------------------------------------------------------ *)
(* Running a workload.                                                  *)

type timed = {
  samples : (string * float list) list;  (* seconds per kind, kind order *)
  attempted : int;
  errors : string list;
  rss : float;  (* peak memory after one pass, MiB *)
}

let guarded name f =
  try f () with e ->
    let msg = name ^ ": " ^ Printexc.to_string e in
    fun () -> Error msg

let run_checks checks = errors (List.map (fun c -> c ()) checks)

(* VmHWM of a process ("self" or a pid), in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let l = input_line ic in
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else find ()
      in
      find ())

(* Minimum time a kind gets per pass after the first: cheap kinds repeat
   within their slice, so every kind collects several samples. *)
let slice = 0.3

(* Runs every kind once, then passes over the kinds until [seconds]
   have passed, calling [between] after each pass; the output checks run
   afterwards.  Peak memory is read after the first pass: up to there the
   allocation sequence, hence the heap, does not depend on timing. *)
let run_timed ~seconds ~between kinds =
  let t0 = Unix.gettimeofday () in
  let times = Hashtbl.create 16 and checks = ref [] in
  let sample k =
    let t = Unix.gettimeofday () in
    checks := guarded k.name k.run :: !checks;
    let stop = Unix.gettimeofday () in
    Hashtbl.replace times k.name
      ((stop -. t) :: Option.value ~default:[] (Hashtbl.find_opt times k.name));
    stop
  in
  List.iter (fun k -> ignore (sample k)) kinds;
  let rss = peak_rss_mb "self" in
  between ();
  let running () = Unix.gettimeofday () -. t0 < seconds in
  while running () do
    List.iter
      (fun k ->
        let start = Unix.gettimeofday () in
        let rec again () = if running () && sample k -. start < slice then again () in
        if running () then again ())
      kinds;
    between ()
  done;
  {
    samples = List.map (fun k -> (k.name, Hashtbl.find times k.name)) kinds;
    attempted = List.length !checks;
    errors = run_checks !checks;
    rss;
  }

(* One traced pass: a root span per kind.  Returns the counters and the
   check results. *)
let run_traced tr kinds =
  let counts = Hashtbl.create 32 in
  let count name v =
    Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))
  in
  let checks =
    List.map
      (fun k -> guarded k.name (fun () -> span tr k.name (fun () -> k.traced tr ~count)))
      kinds
  in
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [], run_checks checks)
