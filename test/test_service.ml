(* Tests for the service layer: the JSON codec, query/response golden
   round-trips, the warm pool (LRU + counters), and the core contract —
   responses served from warm pooled state are bit-identical to fresh
   one-shot evaluations, sequentially and under concurrent interleaving. *)

module Sib = Ftrsn_rsn.Sib
module Text = Ftrsn_rsn.Text
module Netlist = Ftrsn_rsn.Netlist
module Itc02 = Ftrsn_itc02.Itc02
module Fault = Ftrsn_fault.Fault
module Metric = Ftrsn_core.Metric
module Engine = Ftrsn_access.Engine
module Diagnose = Ftrsn_access.Diagnose
module Json = Ftrsn_service.Json
module Query = Ftrsn_service.Query
module Response = Ftrsn_service.Response
module Pool = Ftrsn_service.Pool
module Exec = Ftrsn_service.Exec
module Server = Ftrsn_service.Server

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Fixture netlists, carried inline so pool keys are self-contained.   *)

let tiny_net () =
  Sib.build ~name:"tiny" [ Sib.leaf ~name:"a" ~len:2; Sib.leaf ~name:"b" ~len:3 ]

let small_net () =
  Sib.build ~name:"small"
    [
      Sib.Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib.Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]

let inline_spec net = { Query.ns_source = `Inline (Text.to_string net); ns_ft = false }

let tiny_spec = lazy (inline_spec (tiny_net ()))
let small_spec = lazy (inline_spec (small_net ()))

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float (-1.5e-9);
      Json.Float 1e300;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ back\nnew\ttab\r\012\b";
      Json.Str "unicode: \xc3\xa9\xe2\x82\xac";
      Json.List [];
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      check bool_t (Printf.sprintf "roundtrip %s" s) true
        (Json.of_string s = v);
      check bool_t "single line" false (String.contains s '\n'))
    values;
  (* escape sequences parse *)
  check bool_t "u-escape" true
    (Json.of_string {|"é😀"|} = Json.Str "\xc3\xa9\xf0\x9f\x98\x80");
  check bool_t "ws tolerated" true
    (Json.of_string " { \"a\" : [ 1 , 2 ] } " = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ])

let test_json_malformed () =
  let bad =
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}";
      "[1,]"; "nullx"; "\"bad\\q\"" ]
  in
  List.iter
    (fun s ->
      check bool_t (Printf.sprintf "rejects %S" s) true
        (match Json.of_string s with
        | exception Json.Parse_error _ -> true
        | _ -> false))
    bad

(* ------------------------------------------------------------------ *)
(* Query / Response golden round-trips                                 *)

let sample_queries () =
  let net = { Query.ns_source = `Itc02 "d695"; ns_ft = false } in
  let netf = { Query.ns_source = `File "nets/x.icl"; ns_ft = true } in
  let neti = { Query.ns_source = `Inline "rsn tiny\n"; ns_ft = false } in
  [
    Query.Metric
      {
        Query.mq_net = net;
        mq_sample = Some 7;
        mq_domains = 2;
        mq_engine = `Bmc;
        mq_model = Fault.Bridge;
        mq_reduce = false;
        mq_inprocess = true;
        mq_with_stats = true;
      };
    Query.Metric
      {
        Query.mq_net = netf;
        mq_sample = None;
        mq_domains = 1;
        mq_engine = `Structural;
        mq_model = Fault.Transient;
        mq_reduce = true;
        mq_inprocess = true;
        mq_with_stats = false;
      };
    Query.Pairs
      {
        Query.pq_net = net;
        pq_fault_sample = Some 3;
        pq_pair_sample = None;
        pq_domains = 4;
        pq_engine = `Structural;
        pq_model = Fault.Select;
        pq_reduce = true;
        pq_with_stats = false;
      };
    Query.Pairs
      {
        Query.pq_net = neti;
        pq_fault_sample = None;
        pq_pair_sample = Some 37;
        pq_domains = 1;
        pq_engine = `Bmc;
        pq_model = Fault.Stuck;
        pq_reduce = false;
        pq_with_stats = true;
      };
    Query.Certify
      {
        Query.cq_net = net;
        cq_sample = Some 29;
        cq_domains = 2;
        cq_pairs = true;
        cq_model = Fault.Select;
        cq_with_stats = false;
      };
    Query.Probe
      {
        Query.pb_net = net;
        pb_target = "core1.sib";
        pb_fault = Some "core1.sib.shadow[0]/sa0";
        pb_model = Fault.Bridge;
        pb_svf = false;
      };
    Query.Probe
      {
        Query.pb_net = neti;
        pb_target = "a";
        pb_fault = None;
        pb_model = Fault.Stuck;
        pb_svf = true;
      };
    Query.Diagnose
      {
        Query.dq_net = net;
        dq_signature = Some [ "1010"; "0110" ];
        dq_limit = Some 10;
      };
    Query.Diagnose
      { Query.dq_net = neti; dq_signature = None; dq_limit = None };
    Query.Synthesize { Query.sq_net = net; sq_emit = true };
    Query.Netinfo netf;
    Query.Stats;
  ]

let test_query_roundtrip () =
  List.iter
    (fun q ->
      let s = Query.to_string q in
      let q' = Query.decode (Json.of_string s) in
      check bool_t (Printf.sprintf "decode . encode = id on %s" s) true (q = q');
      check string_t "stable reencoding" s (Query.to_string q'))
    (sample_queries ());
  (* the retired "pair_lanes" and "inprocess" keys of older clients are
     ignored like any unknown key *)
  (match
     Query.decode_line "{\"op\":\"pairs\",\"net\":\"u.icl\",\"pair_lanes\":false}"
   with
  | Ok (Query.Pairs _, None) -> ()
  | _ -> Alcotest.fail "legacy pair_lanes key rejected");
  List.iter
    (fun op ->
      let line extra =
        Query.decode_line
          (Printf.sprintf "{\"op\":\"%s\",\"net\":\"u.icl\"%s}" op extra)
      in
      match (line "", line ",\"inprocess\":false") with
      | (Ok _ as plain), legacy ->
          check bool_t (op ^ ": \"inprocess\":false decodes as absent") true
            (legacy = plain)
      | Error _, _ -> Alcotest.fail (op ^ ": line without the key rejected"))
    [ "metric"; "pairs"; "certify" ]

let sample_solver =
  {
    Metric.s_conflicts = 10;
    s_decisions = 20;
    s_propagations = 30;
    s_restarts = 1;
    s_learnt_lits = 100;
    s_minimized_lits = 40;
    s_reductions = 2;
    s_learnt_db = 9;
    s_clauses_emitted = 500;
    s_nodes_reused = 123;
    s_simp_passes = 0;
    s_cert_unsat = 7;
    s_cert_lemmas = 77;
    s_cert_deletes = 3;
    s_cert_time = 0.25;
  }

let sample_responses () =
  [
    Response.Metric_r
      {
        Response.mr_worst_segments = 0.0;
        mr_avg_segments = 0.9283936855379904;
        mr_worst_bits = 0.5;
        mr_avg_bits = 0.75;
        mr_faults = 1402;
        mr_weight = 1402;
        mr_reduction =
          Some
            {
              Metric.r_universe = 1402;
              r_classes = 800;
              r_benign = 227;
              r_cone_sum = 63279;
              r_cone_max = 89;
            };
        mr_pairs =
          Some
            {
              Metric.p_classes = 800;
              p_class_pairs = 320400;
              p_diagonal = 800;
              p_disjoint = 247786;
              p_stacked = 71814;
              p_stacks = 17;
            };
        mr_stats =
          Some
            {
              Response.ms_steals = 5;
              ms_solver = Some sample_solver;
              ms_lanes =
                Some
                  {
                    Engine.ls_batches = 13;
                    ls_lanes = 710;
                    ls_masked = 4;
                    ls_fast = 90;
                    ls_rounds = 56;
                  };
              ms_pair_lanes =
                Some
                  {
                    Engine.ls_batches = 7;
                    ls_lanes = 301;
                    ls_masked = 2;
                    ls_fast = 44;
                    ls_rounds = 29;
                  };
            };
      };
    Response.Metric_r
      {
        Response.mr_worst_segments = 1.0;
        mr_avg_segments = 1.0;
        mr_worst_bits = 1.0;
        mr_avg_bits = 1.0;
        mr_faults = 0;
        mr_weight = 0;
        mr_reduction = None;
        mr_pairs = None;
        mr_stats = None;
      };
    Response.Plan_r
      {
        Response.pl_target = "c3";
        pl_primaries = [ ("rescue0", true) ];
        pl_steps =
          [
            ([ "top" ], [ ("top", 0, true) ]);
            ([ "top"; "mod2" ], [ ("mod2", 0, false) ]);
          ];
        pl_access_path = [ "top"; "mod2"; "c3" ];
        pl_cycles = 42;
      };
    Response.Svf_r "SDR 3 TDI(5);\n";
    Response.Diagnose_r [];
    Response.Diagnose_r [ "a.shadow[0]/sa0"; "b.data/sa1" ];
    Response.Synth_r
      {
        Response.sy_added_muxes = 3;
        sy_port_muxes = 1;
        sy_added_ctrl_bits = 4;
        sy_added_primary_ctrls = 2;
        sy_area_ratio = 1.082;
        sy_netlist = Some "rsn ft\n";
      };
    Response.Netinfo_r
      {
        Response.ni_name = "u226";
        ni_segments = 89;
        ni_muxes = 49;
        ni_scan_bits = 1465;
        ni_shadow_bits = 49;
        ni_control_bits = 49;
        ni_primary_controls = 0;
        ni_levels = 2;
        ni_reset_path_bits = 13;
        ni_full_path_bits = 1465;
      };
    Response.Stats_r
      {
        Response.st_pool =
          {
            Response.po_entries = 2;
            po_bytes = 12345;
            po_budget = 268435456;
            po_hits = 10;
            po_misses = 2;
            po_evictions = 1;
          };
        st_sessions =
          [
            {
              Response.se_net = "itc02\x00u226";
              se_certified = true;
              se_queries = 9;
              se_solver = sample_solver;
            };
          ];
      };
    Response.Error_r (Response.Bad_request, "unknown op \"frobnicate\"");
    Response.Error_r (Response.Inaccessible, "target not writable");
    Response.Error_r (Response.Cert_failed, "lemma 7 not RUP");
    Response.Error_r (Response.Admission, "queue full");
    Response.Error_r (Response.Internal, "Stack_overflow");
    Response.Error_r
      ( Response.Unsupported,
        "transient pairs are unsupported (two glitches are not a set-wise \
         union of summaries)" );
  ]

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let s = Response.to_string r in
      let r', id = Response.decode (Json.of_string s) in
      check bool_t (Printf.sprintf "decode . encode = id on %s" s) true (r = r');
      check bool_t "no id" true (id = None);
      (* id is carried through when present *)
      let s_id = Response.to_string ~id:(Json.Int 7) r in
      let r'', id' = Response.decode (Json.of_string s_id) in
      check bool_t "id echoed" true (r = r'' && id' = Some (Json.Int 7)))
    (sample_responses ())

(* The exact wire bytes of the two stats-heavy samples.  The round-trip
   test above passes for any self-consistent encoding; this one fails on
   any drift in key names, key order or number formatting. *)
let pinned_wire =
  [
    "{\"ok\":true,\"type\":\"metric\",\"data\":{\"worst_segments\":0.0,\"avg_segments\":0.9283936855379904,\"worst_bits\":0.5,\"avg_bits\":0.75,\"faults\":1402,\"weight\":1402,\"reduction\":{\"universe\":1402,\"classes\":800,\"benign\":227,\"cone_sum\":63279,\"cone_max\":89},\"pairs\":{\"classes\":800,\"class_pairs\":320400,\"diagonal\":800,\"disjoint\":247786,\"stacked\":71814},\"stats\":{\"steals\":5,\"stacks\":17,\"solver\":{\"conflicts\":10,\"decisions\":20,\"propagations\":30,\"restarts\":1,\"learnt_lits\":100,\"minimized_lits\":40,\"reductions\":2,\"learnt_db\":9,\"clauses_emitted\":500,\"nodes_reused\":123,\"cert_unsat\":7,\"cert_lemmas\":77,\"cert_deletes\":3,\"cert_time\":0.25},\"lanes\":{\"batches\":13,\"lanes\":710,\"masked\":4,\"fast\":90,\"rounds\":56},\"pair_lanes\":{\"batches\":7,\"lanes\":301,\"masked\":2,\"fast\":44,\"rounds\":29}}}}";
    "{\"ok\":true,\"type\":\"stats\",\"data\":{\"pool\":{\"entries\":2,\"bytes\":12345,\"budget\":268435456,\"hits\":10,\"misses\":2,\"evictions\":1},\"sessions\":[{\"net\":\"itc02\\u0000u226\",\"certified\":true,\"queries\":9,\"solver\":{\"conflicts\":10,\"decisions\":20,\"propagations\":30,\"restarts\":1,\"learnt_lits\":100,\"minimized_lits\":40,\"reductions\":2,\"learnt_db\":9,\"clauses_emitted\":500,\"nodes_reused\":123,\"cert_unsat\":7,\"cert_lemmas\":77,\"cert_deletes\":3,\"cert_time\":0.25}}]}}";
  ]

let test_response_wire_pinned () =
  let stats_heavy =
    List.filter
      (function
        | Response.Metric_r { Response.mr_stats = Some _; _ }
        | Response.Stats_r _ ->
            true
        | _ -> false)
      (sample_responses ())
  in
  check int_t "one pin per stats-heavy sample" (List.length pinned_wire)
    (List.length stats_heavy);
  List.iter2
    (fun expect r -> check string_t "wire bytes" expect (Response.to_string r))
    pinned_wire stats_heavy

let test_exit_codes () =
  check int_t "ok" 0 (Response.exit_code (Response.Svf_r ""));
  check int_t "bad request" 1
    (Response.exit_code (Response.error Response.Bad_request ""));
  check int_t "inaccessible" 2
    (Response.exit_code (Response.error Response.Inaccessible ""));
  check int_t "cert" 3 (Response.exit_code (Response.error Response.Cert_failed ""));
  check int_t "admission" 4
    (Response.exit_code (Response.error Response.Admission ""));
  check int_t "internal" 1
    (Response.exit_code (Response.error Response.Internal ""));
  check int_t "unsupported" 5
    (Response.exit_code (Response.error Response.Unsupported ""))

let test_decode_line_errors () =
  (match Query.decode_line "{\"op\":\"metric\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing net accepted");
  (match Query.decode_line "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Query.decode_line "{\"op\":\"stats\",\"id\":\"q1\"}" with
  | Ok (Query.Stats, Some (Json.Str "q1")) -> ()
  | _ -> Alcotest.fail "stats with id"

(* Wire compatibility for the fault_model field: absent = stuck (so
   pre-fault-model clients keep working), every model name decodes,
   unknown names are rejected. *)
let test_fault_model_wire () =
  let base = "{\"op\":\"metric\",\"net\":{\"itc02\":\"d695\"}" in
  (match Query.decode_line (base ^ "}") with
  | Ok (Query.Metric { mq_model = m; _ }, _) ->
      check bool_t "absent fault_model defaults to stuck" true (m = Fault.Stuck)
  | _ -> Alcotest.fail "metric without fault_model rejected");
  List.iter
    (fun m ->
      let line =
        Printf.sprintf "%s,\"fault_model\":\"%s\"}" base
          (Fault.model_to_string m)
      in
      match Query.decode_line line with
      | Ok (Query.Metric { mq_model = m'; _ }, _) ->
          check bool_t
            (Printf.sprintf "fault_model %s decodes" (Fault.model_to_string m))
            true (m = m')
      | _ -> Alcotest.fail ("rejected " ^ line))
    Fault.all_models;
  match Query.decode_line (base ^ ",\"fault_model\":\"cosmic\"}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault_model accepted"

(* ------------------------------------------------------------------ *)
(* Pool behaviour                                                      *)

let metric_q ?(with_stats = false) ?(engine = `Structural)
    ?(model = Fault.Stuck) ?sample spec =
  Query.Metric
    {
      Query.mq_net = spec;
      mq_sample = sample;
      mq_domains = 1;
      mq_engine = engine;
      mq_model = model;
      mq_reduce = true;
      mq_inprocess = true;
      mq_with_stats = with_stats;
    }

let test_pool_hits_and_counters () =
  let pool = Pool.create () in
  let spec = Lazy.force tiny_spec in
  (match Pool.acquire pool spec with
  | Error e -> Alcotest.fail e
  | Ok e1 -> (
      match Pool.acquire pool spec with
      | Error e -> Alcotest.fail e
      | Ok e2 ->
          check bool_t "same entry" true (e1 == e2);
          Pool.release pool e1;
          Pool.release pool e2));
  let s = Pool.stats pool in
  check int_t "one miss" 1 s.Response.po_misses;
  check int_t "one hit" 1 s.Response.po_hits;
  check int_t "one entry" 1 s.Response.po_entries;
  check int_t "no evictions" 0 s.Response.po_evictions;
  check bool_t "measured" true (s.Response.po_bytes > 0);
  (* build failures are reported, not cached *)
  match Pool.acquire pool { Query.ns_source = `Itc02 "nope"; ns_ft = false } with
  | Ok _ -> Alcotest.fail "unknown SoC accepted"
  | Error _ ->
      let s = Pool.stats pool in
      check int_t "failed build leaves no entry" 1 s.Response.po_entries

let test_pool_lru_eviction () =
  (* A budget small enough that four distinct warm netlists cannot all
     stay resident: the least-recently-used ones must be evicted. *)
  let pool = Pool.create ~budget_bytes:60_000 () in
  let specs =
    List.init 4 (fun i ->
        inline_spec
          (Sib.build
             ~name:(Printf.sprintf "evict%d" i)
             [ Sib.leaf ~name:"a" ~len:(2 + i); Sib.leaf ~name:"b" ~len:3 ]))
  in
  (* Run a real query on each so the warm artifacts materialize and the
     release-time measurement sees the grown entry. *)
  List.iter
    (fun spec ->
      match Exec.run pool (metric_q spec) with
      | Response.Metric_r _ -> ()
      | r -> Alcotest.fail (Response.to_string r))
    specs;
  let s = Pool.stats pool in
  check bool_t
    (Printf.sprintf "evictions happened (entries %d, bytes %d)"
       s.Response.po_entries s.Response.po_bytes)
    true
    (s.Response.po_evictions > 0);
  check bool_t "within budget" true (s.Response.po_bytes <= 60_000);
  check int_t "all four were misses" 4 s.Response.po_misses;
  (* An evicted netlist is rebuilt on demand and yields the same answer. *)
  let spec0 = List.nth specs 0 in
  let r1 = Response.to_string (Exec.run pool (metric_q spec0)) in
  let fresh = Response.to_string (Exec.run (Pool.create ()) (metric_q spec0)) in
  check string_t "rebuilt = fresh" fresh r1

(* ------------------------------------------------------------------ *)
(* Warm = cold determinism                                             *)

let test_warm_equals_cold () =
  let pool = Pool.create () in
  let qs =
    [
      metric_q (Lazy.force tiny_spec);
      metric_q ~engine:`Bmc (Lazy.force tiny_spec);
      metric_q (Lazy.force small_spec);
      metric_q ~model:Fault.Bridge (Lazy.force tiny_spec);
      metric_q ~model:Fault.Transient (Lazy.force tiny_spec);
      Query.Pairs
        {
          Query.pq_net = Lazy.force tiny_spec;
          pq_fault_sample = None;
          pq_pair_sample = None;
          pq_domains = 1;
          pq_engine = `Structural;
          pq_model = Fault.Stuck;
          pq_reduce = true;
          pq_with_stats = false;
        };
      Query.Certify
        {
          Query.cq_net = Lazy.force tiny_spec;
          cq_sample = None;
          cq_domains = 1;
          cq_pairs = false;
          cq_model = Fault.Stuck;
          cq_with_stats = false;
        };
    ]
  in
  List.iter
    (fun q ->
      let cold = Response.to_string (Exec.run (Pool.create ()) q) in
      (* three consecutive warm runs: state reuse must not change bits *)
      for i = 1 to 3 do
        let warm = Response.to_string (Exec.run pool q) in
        check string_t
          (Printf.sprintf "warm run %d of %s" i (Query.to_string q))
          cold warm
      done)
    qs

(* One pooled entry serving several fault models: the per-model warm
   state (class arrays, name tables) must never cross-contaminate, and
   the warm answer for each model must match a cold run of just that
   model.  The interleaving below deliberately alternates models on the
   same entry before re-asking the first one. *)
let test_warm_pool_model_isolation () =
  let spec = Lazy.force small_spec in
  let cold m =
    Response.to_string (Exec.run (Pool.create ()) (metric_q ~model:m spec))
  in
  let colds = List.map (fun m -> (m, cold m)) Fault.all_models in
  let pool = Pool.create () in
  let ask m = Response.to_string (Exec.run pool (metric_q ~model:m spec)) in
  (* two alternating sweeps, then a reversed one *)
  for sweep = 1 to 2 do
    List.iter
      (fun m ->
        check string_t
          (Printf.sprintf "sweep %d: warm %s = cold" sweep
             (Fault.model_to_string m))
          (List.assoc m colds) (ask m))
      Fault.all_models
  done;
  List.iter
    (fun m ->
      check string_t
        (Printf.sprintf "reverse sweep: warm %s = cold" (Fault.model_to_string m))
        (List.assoc m colds) (ask m))
    (List.rev Fault.all_models);
  (* distinct models really do see distinct universes on this entry *)
  let universes =
    List.map
      (fun m -> List.length (Fault.universe ~model:m (small_net ())))
      Fault.all_models
  in
  check bool_t "models have distinct universes" true
    (List.length (List.sort_uniq compare universes) > 1);
  (* fault name resolution is per model: a stuck name is not served from
     (or into) another model's table *)
  (match Pool.acquire pool spec with
  | Error e -> Alcotest.fail e
  | Ok entry ->
      let net = Pool.net entry in
      let stuck_name = Fault.to_string net (List.hd (Fault.universe net)) in
      check bool_t "stuck name resolves in stuck table" true
        (Pool.fault_of_string entry stuck_name <> None);
      (match Fault.universe ~model:Fault.Transient net with
      | [] -> ()
      | tf :: _ ->
          let tname = Fault.to_string net tf in
          check bool_t "transient name resolves in transient table" true
            (Pool.fault_of_string ~model:Fault.Transient entry tname <> None);
          check bool_t "transient name absent from stuck table" true
            (Pool.fault_of_string entry tname = None));
      Pool.release pool entry)

(* Interleaved concurrent queries over multiple netlists on one shared
   pool: every response must be bit-identical to a fresh one-shot run of
   the same query.  The schedule (which thread runs which query when) is
   the random part; the responses must be schedule-independent. *)
let prop_concurrent_interleaving =
  let menu =
    lazy
      (let tiny = Lazy.force tiny_spec and small = Lazy.force small_spec in
       let probe_fault =
         let net = tiny_net () in
         Fault.to_string net (List.hd (Fault.universe net))
       in
       [
         metric_q tiny;
         metric_q ~engine:`Bmc tiny;
         metric_q small;
         metric_q ~sample:2 small;
         metric_q ~model:Fault.Bridge tiny;
         metric_q ~model:Fault.Transient small;
         Query.Pairs
           {
             Query.pq_net = tiny;
             pq_fault_sample = None;
             pq_pair_sample = None;
             pq_domains = 1;
             pq_engine = `Structural;
             pq_model = Fault.Stuck;
             pq_reduce = true;
             pq_with_stats = false;
           };
         Query.Probe
           {
             Query.pb_net = tiny;
             pb_target = "a";
             pb_fault = Some probe_fault;
             pb_model = Fault.Stuck;
             pb_svf = false;
           };
         Query.Diagnose
           { Query.dq_net = small; dq_signature = None; dq_limit = Some 5 };
         Query.Netinfo small;
       ])
  in
  let reference =
    lazy
      (List.map
         (fun q ->
           (Query.to_string q, Response.to_string (Exec.run (Pool.create ()) q)))
         (Lazy.force menu))
  in
  QCheck.Test.make ~name:"concurrent interleaved queries = fresh one-shot runs"
    ~count:5
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let menu = Array.of_list (Lazy.force menu) in
      let reference = Lazy.force reference in
      let st = Random.State.make [| seed |] in
      let pool = Pool.create () in
      let threads = 3 and per_thread = 6 in
      let schedule =
        Array.init threads (fun _ ->
            Array.init per_thread (fun _ ->
                menu.(Random.State.int st (Array.length menu))))
      in
      let results = Array.make threads [] in
      let workers =
        Array.mapi
          (fun i qs ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Array.to_list
                    (Array.map
                       (fun q ->
                         (Query.to_string q,
                          Response.to_string (Exec.run pool q)))
                       qs))
              ())
          schedule
      in
      Array.iter Thread.join workers;
      Array.for_all
        (fun rs ->
          List.for_all
            (fun (qs, rsp) -> List.assoc qs reference = rsp)
            rs)
        results)

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)

let with_temp_file f =
  let path = Filename.temp_file "ftrsn_service" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let serve_batch cfg lines =
  with_temp_file (fun req_path ->
      with_temp_file (fun resp_path ->
          let oc = open_out_bin req_path in
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          close_out oc;
          let ic = open_in_bin req_path in
          let oc = open_out_bin resp_path in
          Server.serve_channels cfg (Pool.create ()) ic oc;
          close_in_noerr ic;
          close_out oc;
          let ic = open_in_bin resp_path in
          let rec read acc =
            match input_line ic with
            | line -> read (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          let out = read [] in
          close_in_noerr ic;
          out))

let test_serve_serial_order () =
  let qs =
    [
      metric_q (Lazy.force tiny_spec);
      Query.Netinfo (Lazy.force small_spec);
      metric_q (Lazy.force tiny_spec);
    ]
  in
  let lines = List.map Query.to_string qs @ [ "{\"op\":\"bogus\"}"; "{" ] in
  let out =
    serve_batch { Server.default_config with Server.workers = 1 } lines
  in
  check int_t "one response per request" (List.length lines) (List.length out);
  (* in-order: response i matches a fresh run of query i *)
  List.iteri
    (fun i q ->
      let fresh = Response.to_string (Exec.run (Pool.create ()) q) in
      check string_t (Printf.sprintf "serial response %d" i) fresh
        (List.nth out i))
    qs;
  (* the two trailing bad requests answer with bad_request errors *)
  List.iter
    (fun line ->
      match Response.decode (Json.of_string line) with
      | Response.Error_r (Response.Bad_request, _), _ -> ()
      | _ -> Alcotest.fail ("expected bad_request: " ^ line))
    (List.filteri (fun i _ -> i >= List.length qs) out)

(* Out-of-range counts are bad requests (exit 1) that name the field,
   through Exec.run and the serve loop alike, checked before a pool entry
   is built: a zero pair stride would run the brute pair enumeration, a
   zero or negative sample the unsampled sweep, zero domains one domain
   and a negative limit an empty candidate list.  The oversized [domains]
   goes to a net that does not exist, so a check that came too late would
   fail on the net before any domain is spawned.  On serve, the valid
   request after each invalid one keeps its normal answer. *)
let test_invalid_counts () =
  let tiny = Lazy.force tiny_spec in
  let domains d = function
    | Query.Metric m -> Query.Metric { m with Query.mq_domains = d }
    | q -> q
  in
  let pairs ?fault_sample ?pair_sample () =
    Query.Pairs
      {
        Query.pq_net = tiny;
        pq_fault_sample = fault_sample;
        pq_pair_sample = pair_sample;
        pq_domains = 1;
        pq_engine = `Structural;
        pq_model = Fault.Stuck;
        pq_reduce = true;
        pq_with_stats = false;
      }
  in
  let cases =
    [
      ("sample", metric_q ~sample:0 tiny);
      ("sample", metric_q ~sample:(-3) tiny);
      ("domains", domains 0 (metric_q tiny));
      ( "domains",
        domains 1000 (metric_q (Query.net_spec_of_cli "itc02:no_such_soc")) );
      ("pair_sample", pairs ~pair_sample:0 ());
      ("fault_sample", pairs ~fault_sample:(-1) ());
      ( "sample",
        Query.Certify
          {
            Query.cq_net = tiny;
            cq_sample = Some 0;
            cq_domains = 1;
            cq_pairs = false;
            cq_model = Fault.Stuck;
            cq_with_stats = false;
          } );
      ( "limit",
        Query.Diagnose
          { Query.dq_net = tiny; dq_signature = None; dq_limit = Some (-2) } );
    ]
  in
  let is_bad field r =
    match r with
    | Response.Error_r (Response.Bad_request, msg) ->
        String.starts_with ~prefix:(field ^ " must") msg
        && Response.exit_code r = 1
    | _ -> false
  in
  List.iter
    (fun (field, q) ->
      let r = Exec.run (Pool.create ()) q in
      if not (is_bad field r) then
        Alcotest.fail
          (Printf.sprintf "%s: expected a bad_request naming %s, got %s"
             (Query.to_string q) field (Response.to_string r)))
    cases;
  let valid = metric_q tiny in
  let fresh = Response.to_string (Exec.run (Pool.create ()) valid) in
  let out =
    serve_batch
      { Server.default_config with Server.workers = 1 }
      (List.concat_map
         (fun (_, q) -> [ Query.to_string q; Query.to_string valid ])
         cases)
  in
  check int_t "one response per request" (2 * List.length cases)
    (List.length out);
  List.iteri
    (fun i (field, _) ->
      let bad, _ = Response.decode (Json.of_string (List.nth out (2 * i))) in
      if not (is_bad field bad) then
        Alcotest.fail ("serve: expected a bad_request naming " ^ field);
      check string_t "serve: valid answer" fresh (List.nth out ((2 * i) + 1)))
    cases

(* Transient double faults are rejected with the typed [unsupported]
   error: same wire line through Exec.run and the serve loop, stable
   exit code 5 — not an Internal catch-all. *)
let test_serve_transient_pairs_unsupported () =
  let q =
    Query.Pairs
      {
        Query.pq_net = Lazy.force tiny_spec;
        pq_fault_sample = None;
        pq_pair_sample = None;
        pq_domains = 1;
        pq_engine = `Structural;
        pq_model = Fault.Transient;
        pq_reduce = true;
        pq_with_stats = false;
      }
  in
  let r = Exec.run (Pool.create ()) q in
  (match r with
  | Response.Error_r (Response.Unsupported, _) -> ()
  | _ ->
      Alcotest.fail ("expected unsupported error: " ^ Response.to_string r));
  check int_t "exit code 5" 5 (Response.exit_code r);
  let out =
    serve_batch
      { Server.default_config with Server.workers = 1 }
      [ Query.to_string q ]
  in
  check int_t "one response" 1 (List.length out);
  check string_t "serve = exec" (Response.to_string r) (List.hd out)

(* A net whose degree demands force a cycle: [tdr_a] and [tdr_b] share a
   level behind one ScanMux, and each can gain its second output only
   into the other.  Synthesis and every fault-tolerant query answer a
   bad_request that names both segments, with no exception text, and
   keep exit code 1. *)
let test_infeasible_augmentation () =
  let text =
    "rsn forced_cycle\n\
     seg ctl len=1 shadow=1 reset=0 hier=1 input=pi\n\
     seg tdr_a len=4 shadow=0 reset=- hier=1 input=seg:ctl\n\
     seg tdr_b len=4 shadow=0 reset=- hier=1 input=seg:ctl\n\
     mux sel inputs=seg:tdr_a,seg:tdr_b addr=shadow:ctl.0\n\
     out mux:sel\n"
  in
  let spec = { Query.ns_source = `Inline text; ns_ft = true } in
  let expected =
    "augmentation infeasible: the degree demands of tdr_a, tdr_b stay unmet"
  in
  List.iter
    (fun q ->
      let r = Exec.run (Pool.create ()) q in
      (match r with
      | Response.Error_r (Response.Bad_request, msg) ->
          check string_t "message names the short segments" expected msg
      | _ -> Alcotest.fail ("expected bad_request: " ^ Response.to_string r));
      check int_t "exit code 1" 1 (Response.exit_code r))
    [
      Query.Synthesize { Query.sq_net = spec; sq_emit = false };
      metric_q spec;
      Query.Netinfo spec;
    ]

let test_serve_threaded_ids () =
  let qs =
    [
      (1, metric_q (Lazy.force tiny_spec));
      (2, Query.Netinfo (Lazy.force small_spec));
      (3, metric_q ~engine:`Bmc (Lazy.force tiny_spec));
      (4, metric_q (Lazy.force small_spec));
    ]
  in
  let lines =
    List.map
      (fun (id, q) ->
        match Query.encode q with
        | Json.Obj fields -> Json.to_string (Json.Obj (("id", Json.Int id) :: fields))
        | _ -> assert false)
      qs
  in
  let out =
    serve_batch
      { Server.default_config with Server.workers = 2; heavy_workers = 1 }
      lines
  in
  check int_t "one response per request" (List.length qs) (List.length out);
  let by_id =
    List.map
      (fun line ->
        match Response.decode (Json.of_string line) with
        | r, Some (Json.Int id) -> (id, r)
        | _ -> Alcotest.fail ("response without id: " ^ line))
      out
  in
  List.iter
    (fun (id, q) ->
      let fresh = Exec.run (Pool.create ()) q in
      match List.assoc_opt id by_id with
      | Some r ->
          check string_t
            (Printf.sprintf "threaded response id %d" id)
            (Response.to_string fresh) (Response.to_string r)
      | None -> Alcotest.fail (Printf.sprintf "missing response id %d" id))
    qs

(* ------------------------------------------------------------------ *)
(* Table I of the paper, small SoCs                                    *)

(* Per SoC, as printed by [reproduce]: the characteristics (modules,
   levels, muxes, segments, scan bits), SIB-based and fault-tolerant
   accessibility (bits-worst %.2f, bits-avg / segs-worst / segs-avg
   %.3f, fault count) and the synthesized area ratio (%.2f). *)
let table1_small =
  [
    ("u226", (10, 2, 49, 89, 1465),
      ("0.00", "0.879", "0.000", "0.883", 1402),
      ("0.96", "0.997", "0.989", "0.997", 4478), "1.67");
    ("d281", (9, 2, 58, 108, 3871),
      ("0.00", "0.888", "0.000", "0.892", 1680),
      ("0.97", "0.997", "0.991", "0.997", 5396), "1.32");
    ("h953", (9, 2, 54, 100, 5640),
      ("0.00", "0.886", "0.000", "0.889", 1560),
      ("0.96", "0.997", "0.990", "0.997", 5004), "1.20");
    ("x1331", (7, 4, 31, 56, 4023),
      ("0.00", "0.846", "0.000", "0.859", 886),
      ("0.93", "0.995", "0.982", "0.995", 2822), "1.16");
    ("f2126", (5, 2, 40, 76, 15829),
      ("0.00", "0.850", "0.000", "0.857", 1172),
      ("0.95", "0.996", "0.987", "0.996", 3776), "1.06");
    ("q12710", (5, 2, 25, 46, 26183),
      ("0.00", "0.822", "0.000", "0.836", 722),
      ("0.90", "0.994", "0.978", "0.993", 2306), "1.02");
    ("a586710", (8, 3, 39, 71, 41674),
      ("0.00", "0.870", "0.000", "0.877", 1118),
      ("0.95", "0.996", "0.986", "0.996", 3570), "1.02");
  ]

let test_table1_small () =
  let pool = Pool.create () in
  let characteristics soc (modules, levels, mux, segments, bits) =
    let s = Option.get (Itc02.find soc) in
    let net = Itc02.rsn s in
    check int_t (soc ^ " modules") modules s.Itc02.soc_modules;
    check int_t (soc ^ " levels") levels (Netlist.max_hier net);
    check int_t (soc ^ " mux") mux (Netlist.num_muxes net);
    check int_t (soc ^ " segments") segments (Netlist.num_segments net);
    check int_t (soc ^ " bits") bits (Netlist.total_bits net)
  in
  let access soc ~ft (bw, ba, sw, sa, faults) =
    let spec = { Query.ns_source = `Itc02 soc; ns_ft = ft } in
    match Exec.run pool (metric_q spec) with
    | Response.Metric_r m ->
        let row = Printf.sprintf "%s %s" soc (if ft then "ft" else "sib") in
        check string_t (row ^ " bits-worst") bw
          (Printf.sprintf "%.2f" m.Response.mr_worst_bits);
        check string_t (row ^ " bits-avg") ba
          (Printf.sprintf "%.3f" m.Response.mr_avg_bits);
        check string_t (row ^ " segs-worst") sw
          (Printf.sprintf "%.3f" m.Response.mr_worst_segments);
        check string_t (row ^ " segs-avg") sa
          (Printf.sprintf "%.3f" m.Response.mr_avg_segments);
        check int_t (row ^ " faults") faults m.Response.mr_faults
    | r -> Alcotest.fail (Response.to_string r)
  in
  List.iter
    (fun (soc, chars, sib, ft, area) ->
      characteristics soc chars;
      access soc ~ft:false sib;
      access soc ~ft:true ft;
      let spec = { Query.ns_source = `Itc02 soc; ns_ft = false } in
      match Exec.run pool (Query.Synthesize { Query.sq_net = spec; sq_emit = false }) with
      | Response.Synth_r s ->
          check string_t (soc ^ " area") area
            (Printf.sprintf "%.2f" s.Response.sy_area_ratio)
      | r -> Alcotest.fail (Response.to_string r))
    table1_small

(* Coarse cones on fault-tolerant reworks, the only networks where the
   writability cascade grows a cone beyond its reach/co-reach seed.  A
   cone looser or tighter than the cascade's moves these counters even
   when every verdict stays right. *)
let test_ft_cones_pinned () =
  let pool = Pool.create () in
  let ft soc = { Query.ns_source = `Itc02 soc; ns_ft = true } in
  List.iter
    (fun (soc, cone_sum, cone_max) ->
      match Exec.run pool (metric_q ~with_stats:true (ft soc)) with
      | Response.Metric_r { Response.mr_reduction = Some r; _ } ->
          check int_t (soc ^ "-ft cone_sum") cone_sum r.Metric.r_cone_sum;
          check int_t (soc ^ "-ft cone_max") cone_max r.Metric.r_cone_max
      | r -> Alcotest.fail (Response.to_string r))
    [ ("u226", 120239, 89); ("d281", 176256, 108) ];
  let pairs =
    Query.Pairs
      {
        Query.pq_net = ft "u226";
        pq_fault_sample = None;
        pq_pair_sample = None;
        pq_domains = 2;
        pq_engine = `Structural;
        pq_model = Fault.Stuck;
        pq_reduce = true;
        pq_with_stats = true;
      }
  in
  match Exec.run pool pairs with
  | Response.Metric_r
      { Response.mr_stats = Some { Response.ms_pair_lanes = Some l; _ }; _ } ->
      (* Batches and rounds follow the batch plan (pairs packed
         row-major across rows, whatever [domains]); lanes and masked
         lanes are per-pair facts and do not depend on the plan. *)
      check int_t "u226-ft pair-lane batches" 5790 l.Engine.ls_batches;
      check int_t "u226-ft pair-lane rounds" 19768 l.Engine.ls_rounds;
      check int_t "u226-ft pair-lane lanes" 364755 l.Engine.ls_lanes;
      check int_t "u226-ft pair-lane masked" 62 l.Engine.ls_masked
  | r -> Alcotest.fail (Response.to_string r)

(* A signature the stimulus cannot produce — wrong line count, a line of
   the wrong length, a character other than 0 and 1 — is a bad request
   (exit 1) naming the expected shape or the offending line, not a
   silent empty candidate list.  The healthy signature's own lines,
   padded with blanks and whitespace, diagnose like the self-test. *)
let test_diagnose_malformed_signature () =
  let healthy = Diagnose.lines_of_signature (Diagnose.healthy (tiny_net ())) in
  let q signature =
    Query.Diagnose
      {
        Query.dq_net = Lazy.force tiny_spec;
        dq_signature = signature;
        dq_limit = None;
      }
  in
  let first, second, rest =
    match healthy with
    | a :: b :: rest -> (a, b, rest)
    | _ -> Alcotest.fail "the stimulus has fewer than two CSUs"
  in
  let cases =
    [
      ("signature must have", second :: rest);
      ("signature must have", healthy @ [ first ]);
      ( "signature line 1 must have",
        String.sub first 0 (String.length first - 1) :: second :: rest );
      ("signature line 2 must have", first :: (second ^ "0") :: rest);
      ( "signature line 2 must hold only",
        first :: ("2" ^ String.sub second 1 (String.length second - 1)) :: rest
      );
    ]
  in
  List.iter
    (fun (prefix, lines) ->
      match Exec.run (Pool.create ()) (q (Some lines)) with
      | Response.Error_r (Response.Bad_request, msg) as r
        when String.starts_with ~prefix msg && Response.exit_code r = 1 ->
          ()
      | r ->
          Alcotest.failf "[%s]: expected a bad_request starting %S, got %s"
            (String.concat "; " lines) prefix (Response.to_string r))
    cases;
  let padded = "" :: List.map (fun l -> " " ^ l ^ "\t") healthy in
  check string_t "healthy lines = self-test"
    (Response.to_string (Exec.run (Pool.create ()) (q None)))
    (Response.to_string (Exec.run (Pool.create ()) (q (Some padded))))

let suite =
  [
    Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: malformed rejected" `Quick test_json_malformed;
    Alcotest.test_case "query: golden roundtrips" `Quick test_query_roundtrip;
    Alcotest.test_case "response: golden roundtrips" `Quick
      test_response_roundtrip;
    Alcotest.test_case "response: wire bytes pinned" `Quick
      test_response_wire_pinned;
    Alcotest.test_case "response: exit codes" `Quick test_exit_codes;
    Alcotest.test_case "query: decode_line errors" `Quick
      test_decode_line_errors;
    Alcotest.test_case "query: fault_model wire compatibility" `Quick
      test_fault_model_wire;
    Alcotest.test_case "pool: hits and counters" `Quick
      test_pool_hits_and_counters;
    Alcotest.test_case "pool: LRU eviction under byte budget" `Quick
      test_pool_lru_eviction;
    Alcotest.test_case "warm pooled runs = cold runs (all engines)" `Quick
      test_warm_equals_cold;
    Alcotest.test_case "warm pool: fault models are isolated" `Quick
      test_warm_pool_model_isolation;
    Testseed.to_alcotest prop_concurrent_interleaving;
    Alcotest.test_case "serve: serial mode is in-order and deterministic"
      `Quick test_serve_serial_order;
    Alcotest.test_case "serve: transient pairs answer unsupported (exit 5)"
      `Quick test_serve_transient_pairs_unsupported;
    Alcotest.test_case "query: out-of-range counts are bad requests" `Quick
      test_invalid_counts;
    Alcotest.test_case "serve: threaded mode answers every id" `Quick
      test_serve_threaded_ids;
    Alcotest.test_case "synthesize: infeasible augmentation names segments"
      `Quick test_infeasible_augmentation;
    Alcotest.test_case "table I: small SoCs pinned" `Quick test_table1_small;
    Alcotest.test_case "engine: FT cones and pair lanes pinned" `Quick
      test_ft_cones_pinned;
    Alcotest.test_case "diagnose: malformed signatures are bad requests"
      `Quick test_diagnose_malformed_signature;
  ]
