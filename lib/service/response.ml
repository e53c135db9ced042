module Metric = Ftrsn_core.Metric
module Engine = Ftrsn_access.Engine

type error_code =
  | Bad_request
  | Inaccessible
  | Cert_failed
  | Admission
  | Internal
  | Unsupported

type metric_stats_r = {
  ms_steals : int;
  ms_solver : Metric.solver_stats option;
  ms_lanes : Engine.lane_stats option;
  ms_pair_lanes : Engine.lane_stats option;
}

type metric_r = {
  mr_worst_segments : float;
  mr_avg_segments : float;
  mr_worst_bits : float;
  mr_avg_bits : float;
  mr_faults : int;
  mr_weight : int;
  mr_reduction : Metric.reduction_stats option;
  mr_pairs : Metric.pair_stats option;
  mr_stats : metric_stats_r option;
}

let metric_r_of_result ~with_stats (r : Metric.result) =
  {
    mr_worst_segments = r.Metric.worst_segments;
    mr_avg_segments = r.Metric.avg_segments;
    mr_worst_bits = r.Metric.worst_bits;
    mr_avg_bits = r.Metric.avg_bits;
    mr_faults = r.Metric.faults;
    mr_weight = r.Metric.total_weight;
    mr_reduction = r.Metric.reduction;
    mr_pairs = r.Metric.pairs;
    mr_stats =
      (if not with_stats then None
       else
         Some
           {
             ms_steals = r.Metric.steals;
             ms_solver = r.Metric.solver;
             ms_lanes = r.Metric.lanes;
             ms_pair_lanes = r.Metric.pair_lanes;
           });
  }

let result_of_metric_r m =
  let stat f = Option.bind m.mr_stats f in
  {
    Metric.worst_segments = m.mr_worst_segments;
    avg_segments = m.mr_avg_segments;
    worst_bits = m.mr_worst_bits;
    avg_bits = m.mr_avg_bits;
    faults = m.mr_faults;
    total_weight = m.mr_weight;
    steals = (match m.mr_stats with Some s -> s.ms_steals | None -> 0);
    solver = stat (fun s -> s.ms_solver);
    lanes = stat (fun s -> s.ms_lanes);
    pair_lanes = stat (fun s -> s.ms_pair_lanes);
    reduction = m.mr_reduction;
    pairs = m.mr_pairs;
  }

type plan_r = {
  pl_target : string;
  pl_primaries : (string * bool) list;
  pl_steps : (string list * (string * int * bool) list) list;
  pl_access_path : string list;
  pl_cycles : int;
}

type netinfo_r = {
  ni_name : string;
  ni_segments : int;
  ni_muxes : int;
  ni_scan_bits : int;
  ni_shadow_bits : int;
  ni_control_bits : int;
  ni_primary_controls : int;
  ni_levels : int;
  ni_reset_path_bits : int;
  ni_full_path_bits : int;
}

type synth_r = {
  sy_added_muxes : int;
  sy_port_muxes : int;
  sy_added_ctrl_bits : int;
  sy_added_primary_ctrls : int;
  sy_area_ratio : float;
  sy_netlist : string option;
}

type pool_r = {
  po_entries : int;
  po_bytes : int;
  po_budget : int;
  po_hits : int;
  po_misses : int;
  po_evictions : int;
}

type session_r = {
  se_net : string;
  se_certified : bool;
  se_queries : int;
  se_solver : Metric.solver_stats;
}

type stats_r = { st_pool : pool_r; st_sessions : session_r list }

type payload =
  | Metric_r of metric_r
  | Plan_r of plan_r
  | Svf_r of string
  | Diagnose_r of string list
  | Synth_r of synth_r
  | Netinfo_r of netinfo_r
  | Stats_r of stats_r
  | Error_r of error_code * string

type t = payload

let error code msg = Error_r (code, msg)

let exit_code = function
  | Error_r (Bad_request, _) | Error_r (Internal, _) -> 1
  | Error_r (Inaccessible, _) -> 2
  | Error_r (Cert_failed, _) -> 3
  | Error_r (Admission, _) -> 4
  | Error_r (Unsupported, _) -> 5
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let code_str = function
  | Bad_request -> "bad_request"
  | Inaccessible -> "inaccessible"
  | Cert_failed -> "certification_failed"
  | Admission -> "admission"
  | Unsupported -> "unsupported"
  | Internal -> "internal"

let code_of_str = function
  | "bad_request" -> Bad_request
  | "inaccessible" -> Inaccessible
  | "certification_failed" -> Cert_failed
  | "admission" -> Admission
  | "unsupported" -> Unsupported
  | "internal" -> Internal
  | s -> raise (Json.Parse_error (Printf.sprintf "unknown error code %S" s))

let enc_solver (s : Metric.solver_stats) =
  Json.Obj
    [
      ("conflicts", Json.Int s.s_conflicts);
      ("decisions", Json.Int s.s_decisions);
      ("propagations", Json.Int s.s_propagations);
      ("restarts", Json.Int s.s_restarts);
      ("learnt_lits", Json.Int s.s_learnt_lits);
      ("minimized_lits", Json.Int s.s_minimized_lits);
      ("reductions", Json.Int s.s_reductions);
      ("learnt_db", Json.Int s.s_learnt_db);
      ("clauses_emitted", Json.Int s.s_clauses_emitted);
      ("nodes_reused", Json.Int s.s_nodes_reused);
      ("cert_unsat", Json.Int s.s_cert_unsat);
      ("cert_lemmas", Json.Int s.s_cert_lemmas);
      ("cert_deletes", Json.Int s.s_cert_deletes);
      ("cert_time", Json.Float s.s_cert_time);
    ]

let dec_solver v =
  {
    Metric.s_conflicts = Json.get_int "conflicts" v;
    s_decisions = Json.get_int "decisions" v;
    s_propagations = Json.get_int "propagations" v;
    s_restarts = Json.get_int "restarts" v;
    s_learnt_lits = Json.get_int "learnt_lits" v;
    s_minimized_lits = Json.get_int "minimized_lits" v;
    s_reductions = Json.get_int "reductions" v;
    s_learnt_db = Json.get_int "learnt_db" v;
    s_clauses_emitted = Json.get_int "clauses_emitted" v;
    s_nodes_reused = Json.get_int "nodes_reused" v;
    s_simp_passes = 0;
    s_cert_unsat = Json.get_int "cert_unsat" v;
    s_cert_lemmas = Json.get_int "cert_lemmas" v;
    s_cert_deletes = Json.get_int "cert_deletes" v;
    s_cert_time = Json.to_float (Json.get "cert_time" v);
  }

let enc_lanes (l : Engine.lane_stats) =
  Json.Obj
    [
      ("batches", Json.Int l.ls_batches);
      ("lanes", Json.Int l.ls_lanes);
      ("masked", Json.Int l.ls_masked);
      ("fast", Json.Int l.ls_fast);
      ("rounds", Json.Int l.ls_rounds);
    ]

let dec_lanes l =
  {
    Engine.ls_batches = Json.get_int "batches" l;
    ls_lanes = Json.get_int "lanes" l;
    ls_masked = Json.get_int "masked" l;
    ls_fast = Json.get_int "fast" l;
    ls_rounds = Json.get_int "rounds" l;
  }

let opt_field k enc = function None -> [] | Some v -> [ (k, enc v) ]

(* [p_stacks] (always 0) is encoded only in the "stats" block, where
   the wire has carried it since it counted built stacks. *)
let enc_metric m =
  Json.Obj
    ([
       ("worst_segments", Json.Float m.mr_worst_segments);
       ("avg_segments", Json.Float m.mr_avg_segments);
       ("worst_bits", Json.Float m.mr_worst_bits);
       ("avg_bits", Json.Float m.mr_avg_bits);
       ("faults", Json.Int m.mr_faults);
       ("weight", Json.Int m.mr_weight);
     ]
    @ opt_field "reduction"
        (fun (r : Metric.reduction_stats) ->
          Json.Obj
            [
              ("universe", Json.Int r.r_universe);
              ("classes", Json.Int r.r_classes);
              ("benign", Json.Int r.r_benign);
              ("cone_sum", Json.Int r.r_cone_sum);
              ("cone_max", Json.Int r.r_cone_max);
            ])
        m.mr_reduction
    @ opt_field "pairs"
        (fun (p : Metric.pair_stats) ->
          Json.Obj
            [
              ("classes", Json.Int p.p_classes);
              ("class_pairs", Json.Int p.p_class_pairs);
              ("diagonal", Json.Int p.p_diagonal);
              ("disjoint", Json.Int p.p_disjoint);
              ("stacked", Json.Int p.p_stacked);
            ])
        m.mr_pairs
    @ opt_field "stats"
        (fun s ->
          Json.Obj
            ((("steals", Json.Int s.ms_steals)
             :: opt_field "stacks"
                  (fun (p : Metric.pair_stats) -> Json.Int p.p_stacks)
                  m.mr_pairs)
            @ opt_field "solver" enc_solver s.ms_solver
            @ opt_field "lanes" enc_lanes s.ms_lanes
            @ opt_field "pair_lanes" enc_lanes s.ms_pair_lanes))
        m.mr_stats)

let dec_metric v =
  let stats = Json.get_opt "stats" v in
  {
    mr_worst_segments = Json.to_float (Json.get "worst_segments" v);
    mr_avg_segments = Json.to_float (Json.get "avg_segments" v);
    mr_worst_bits = Json.to_float (Json.get "worst_bits" v);
    mr_avg_bits = Json.to_float (Json.get "avg_bits" v);
    mr_faults = Json.get_int "faults" v;
    mr_weight = Json.get_int "weight" v;
    mr_reduction =
      Option.map
        (fun r ->
          {
            Metric.r_universe = Json.get_int "universe" r;
            r_classes = Json.get_int "classes" r;
            r_benign = Json.get_int "benign" r;
            r_cone_sum = Json.get_int "cone_sum" r;
            r_cone_max = Json.get_int "cone_max" r;
          })
        (Json.get_opt "reduction" v);
    mr_pairs =
      Option.map
        (fun p ->
          {
            Metric.p_classes = Json.get_int "classes" p;
            p_class_pairs = Json.get_int "class_pairs" p;
            p_diagonal = Json.get_int "diagonal" p;
            p_disjoint = Json.get_int "disjoint" p;
            p_stacked = Json.get_int "stacked" p;
            p_stacks =
              Option.value ~default:0
                (Option.bind stats (Json.get_int_opt "stacks"));
          })
        (Json.get_opt "pairs" v);
    mr_stats =
      Option.map
        (fun s ->
          {
            ms_steals = Json.get_int "steals" s;
            ms_solver = Option.map dec_solver (Json.get_opt "solver" s);
            ms_lanes = Option.map dec_lanes (Json.get_opt "lanes" s);
            ms_pair_lanes =
              Option.map dec_lanes (Json.get_opt "pair_lanes" s);
          })
        stats;
  }

let enc_plan p =
  Json.Obj
    [
      ("target", Json.Str p.pl_target);
      ( "primaries",
        Json.List
          (List.map
             (fun (n, v) -> Json.Obj [ ("name", Json.Str n); ("value", Json.Bool v) ])
             p.pl_primaries) );
      ( "steps",
        Json.List
          (List.map
             (fun (path, writes) ->
               Json.Obj
                 [
                   ("path", Json.List (List.map (fun s -> Json.Str s) path));
                   ( "writes",
                     Json.List
                       (List.map
                          (fun (s, b, v) ->
                            Json.Obj
                              [
                                ("segment", Json.Str s);
                                ("bit", Json.Int b);
                                ("value", Json.Bool v);
                              ])
                          writes) );
                 ])
             p.pl_steps) );
      ( "access_path",
        Json.List (List.map (fun s -> Json.Str s) p.pl_access_path) );
      ("cycles", Json.Int p.pl_cycles);
    ]

let dec_plan v =
  {
    pl_target = Json.get_str "target" v;
    pl_primaries =
      List.map
        (fun o -> (Json.get_str "name" o, Json.get_bool "value" o))
        (Json.to_list (Json.get "primaries" v));
    pl_steps =
      List.map
        (fun o ->
          ( List.map Json.to_str (Json.to_list (Json.get "path" o)),
            List.map
              (fun w ->
                ( Json.get_str "segment" w,
                  Json.get_int "bit" w,
                  Json.get_bool "value" w ))
              (Json.to_list (Json.get "writes" o)) ))
        (Json.to_list (Json.get "steps" v));
    pl_access_path =
      List.map Json.to_str (Json.to_list (Json.get "access_path" v));
    pl_cycles = Json.get_int "cycles" v;
  }

let enc_netinfo n =
  Json.Obj
    [
      ("name", Json.Str n.ni_name);
      ("segments", Json.Int n.ni_segments);
      ("muxes", Json.Int n.ni_muxes);
      ("scan_bits", Json.Int n.ni_scan_bits);
      ("shadow_bits", Json.Int n.ni_shadow_bits);
      ("control_bits", Json.Int n.ni_control_bits);
      ("primary_controls", Json.Int n.ni_primary_controls);
      ("levels", Json.Int n.ni_levels);
      ("reset_path_bits", Json.Int n.ni_reset_path_bits);
      ("full_path_bits", Json.Int n.ni_full_path_bits);
    ]

let dec_netinfo v =
  {
    ni_name = Json.get_str "name" v;
    ni_segments = Json.get_int "segments" v;
    ni_muxes = Json.get_int "muxes" v;
    ni_scan_bits = Json.get_int "scan_bits" v;
    ni_shadow_bits = Json.get_int "shadow_bits" v;
    ni_control_bits = Json.get_int "control_bits" v;
    ni_primary_controls = Json.get_int "primary_controls" v;
    ni_levels = Json.get_int "levels" v;
    ni_reset_path_bits = Json.get_int "reset_path_bits" v;
    ni_full_path_bits = Json.get_int "full_path_bits" v;
  }

let enc_synth s =
  Json.Obj
    ([
       ("added_muxes", Json.Int s.sy_added_muxes);
       ("port_muxes", Json.Int s.sy_port_muxes);
       ("added_ctrl_bits", Json.Int s.sy_added_ctrl_bits);
       ("added_primary_ctrls", Json.Int s.sy_added_primary_ctrls);
       ("area_ratio", Json.Float s.sy_area_ratio);
     ]
    @
    match s.sy_netlist with
    | None -> []
    | Some t -> [ ("netlist", Json.Str t) ])

let dec_synth v =
  {
    sy_added_muxes = Json.get_int "added_muxes" v;
    sy_port_muxes = Json.get_int "port_muxes" v;
    sy_added_ctrl_bits = Json.get_int "added_ctrl_bits" v;
    sy_added_primary_ctrls = Json.get_int "added_primary_ctrls" v;
    sy_area_ratio = Json.to_float (Json.get "area_ratio" v);
    sy_netlist = Json.get_str_opt "netlist" v;
  }

let enc_stats s =
  Json.Obj
    [
      ( "pool",
        Json.Obj
          [
            ("entries", Json.Int s.st_pool.po_entries);
            ("bytes", Json.Int s.st_pool.po_bytes);
            ("budget", Json.Int s.st_pool.po_budget);
            ("hits", Json.Int s.st_pool.po_hits);
            ("misses", Json.Int s.st_pool.po_misses);
            ("evictions", Json.Int s.st_pool.po_evictions);
          ] );
      ( "sessions",
        Json.List
          (List.map
             (fun se ->
               Json.Obj
                 [
                   ("net", Json.Str se.se_net);
                   ("certified", Json.Bool se.se_certified);
                   ("queries", Json.Int se.se_queries);
                   ("solver", enc_solver se.se_solver);
                 ])
             s.st_sessions) );
    ]

let dec_stats v =
  let p = Json.get "pool" v in
  {
    st_pool =
      {
        po_entries = Json.get_int "entries" p;
        po_bytes = Json.get_int "bytes" p;
        po_budget = Json.get_int "budget" p;
        po_hits = Json.get_int "hits" p;
        po_misses = Json.get_int "misses" p;
        po_evictions = Json.get_int "evictions" p;
      };
    st_sessions =
      List.map
        (fun se ->
          {
            se_net = Json.get_str "net" se;
            se_certified = Json.get_bool "certified" se;
            se_queries = Json.get_int "queries" se;
            se_solver = dec_solver (Json.get "solver" se);
          })
        (Json.to_list (Json.get "sessions" v));
  }

let encode ?id t =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  let ok, ty, data =
    match t with
    | Metric_r m -> (true, "metric", enc_metric m)
    | Plan_r p -> (true, "plan", enc_plan p)
    | Svf_r s -> (true, "svf", Json.Obj [ ("svf", Json.Str s) ])
    | Diagnose_r fs ->
        ( true,
          "diagnose",
          Json.Obj
            [ ("candidates", Json.List (List.map (fun f -> Json.Str f) fs)) ] )
    | Synth_r s -> (true, "synth", enc_synth s)
    | Netinfo_r n -> (true, "netinfo", enc_netinfo n)
    | Stats_r s -> (true, "stats", enc_stats s)
    | Error_r (code, msg) ->
        ( false,
          "error",
          Json.Obj
            [
              ("code", Json.Str (code_str code));
              ("msg", Json.Str msg);
              ("exit", Json.Int (exit_code (Error_r (code, msg))));
            ] )
  in
  Json.Obj
    (id_field @ [ ("ok", Json.Bool ok); ("type", Json.Str ty); ("data", data) ])

let decode v =
  let id = Json.member "id" v in
  let data = Json.get "data" v in
  let payload =
    match Json.get_str "type" v with
    | "metric" -> Metric_r (dec_metric data)
    | "plan" -> Plan_r (dec_plan data)
    | "svf" -> Svf_r (Json.get_str "svf" data)
    | "diagnose" ->
        Diagnose_r
          (List.map Json.to_str (Json.to_list (Json.get "candidates" data)))
    | "synth" -> Synth_r (dec_synth data)
    | "netinfo" -> Netinfo_r (dec_netinfo data)
    | "stats" -> Stats_r (dec_stats data)
    | "error" ->
        Error_r (code_of_str (Json.get_str "code" data), Json.get_str "msg" data)
    | ty -> raise (Json.Parse_error (Printf.sprintf "unknown response type %S" ty))
  in
  (payload, id)

let to_string ?id t = Json.to_string (encode ?id t)
