(* End-to-end benchmark of the RSN synthesis and accessibility service.

     e2e.exe --workload W --seed N --seconds S --trace 0|1 [--quick]

   Workloads: table1, pairs, certify, serve (README.md says why each
   exists).  The run prints every metric as "name value unit" and, as its
   last line, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
   Every output is checked against a reference; the exit code is 1 when
   any check failed. *)

module Json = Ftrsn_service.Json
module Response = Ftrsn_service.Response

let now = Unix.gettimeofday

(* The metric names and units; BENCHMARK.json lists the same. *)
let end_to_end = [ ("latency_ms", "ms"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let layer_times =
  [
    "itc02.build"; "augment.problem"; "augment.solve"; "augment.verify";
    "synthesis.run"; "synthesis.area"; "fault.universe"; "fault.collapse";
    "engine.ctx"; "engine.baseline"; "engine.lanes"; "engine.probe"; "engine.stack";
    "bmc.create"; "metric.evaluate"; "metric.pairs"; "metric.certify";
    "metric.bmc_plain";
  ]

let service_ops =
  [ "netinfo"; "probe"; "metric"; "certify"; "diagnose"; "stats"; "pairs"; "synthesize" ]

let per_layer =
  List.map (fun l -> (l ^ "_s", "s")) layer_times
  @ [ ("metric.overhead_s", "s") ]
  @ List.map
      (fun c -> (c, "count"))
      [
        "fault.classes"; "engine.lane_batches"; "engine.lane_rounds";
        "engine.lane_masked"; "engine.lane_fast";
        "metric.pairs.disjoint"; "metric.pairs.stacked"; "metric.pairs.stacks";
        "engine.pair_lanes.batches"; "engine.pair_lanes.rounds";
        "engine.pair_lanes.masked"; "engine.pair_lanes.fast"; "sat.conflicts";
        "sat.decisions"; "sat.propagations"; "sat.learnt_lits"; "sat.minimized_lits";
        "sat.simp_passes"; "bmc.clauses_emitted"; "bmc.nodes_reused";
        "sat.cert_unsat"; "sat.cert_lemmas";
      ]
  @ [ ("sat.cert_time_s", "s") ]
  @ [
      ("service.decode_ms", "ms"); ("service.exec_ms", "ms"); ("service.encode_ms", "ms");
    ]
  @ List.map (fun o -> ("service.exec_ms." ^ o, "ms")) service_ops
  @ [
      ("service.queue_wait_p50_ms", "ms");
      ("service.queue_wait_tail_ms", "ms");
      ("service.utilization", "ratio");
      ("service.pool_hits", "count");
      ("service.pool_misses", "count");
      ("service.pool_evictions", "count");
      ("service.pool_mb", "MB");
      ("service.peak_rss_mb", "MB");
      ("loadgen.latency_p50_ms", "ms");
      ("loadgen.latency_tail_ms", "ms");
      ("loadgen.light_latency_tail_ms", "ms");
      ("loadgen.heavy_latency_tail_ms", "ms");
      ("loadgen.late_p98_ms", "ms");
      ("loadgen.valid", "bool");
      ("trace.wall_s", "s");
      ("trace.attributed_share", "ratio");
      ("trace.overhead_s", "s");
    ]

type outcome = {
  attempted : int;
  errors : string list;
  metrics : (string * float) list;
}

let ms x = 1000.0 *. x

(* A run's latency: the geometric mean over operation kinds of each
   kind's fastest sample.  Timing noise on a shared host only ever adds
   time, so the minimum is the most reproducible estimate of what the
   code costs (README.md has the measurements behind this choice). *)
let latency_ms samples =
  ms (Stat.geomean (List.map (fun (_, ts) -> List.fold_left Float.min infinity ts) samples))

let print_samples samples =
  List.iter
    (fun (k, ts) ->
      Printf.printf "# %s: %d samples, median %.2f ms [%s]\n" k (List.length ts)
        (ms (Stat.median ts)) (String.concat "," (List.map (fun t -> Printf.sprintf "%.2f" (ms t)) ts)))
    samples

(* Set-up runs several times and its median is reported, so that work
   moved into set-up shows without one slow repetition deciding the
   number.  The repetitions are spread over the run — before the
   measured phase (the last of these provides its inputs), between its
   passes and after it — so that one stretch of host contention cannot
   set the number alone.  Each repetition starts from a collected heap. *)
let timed f =
  Gc.full_major ();
  let t = now () in
  let x = f () in
  (x, now () -. t)

let repeat n f = List.init n (fun _ -> snd (timed f))

(* ------------------------------------------------------------------ *)
(* Traced runs.                                                         *)

let trace_dir = "_e2ebench"

let write_trace workload spans =
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat trace_dir ("trace-" ^ workload ^ ".json") in
  Trace.write spans path;
  Printf.eprintf "trace written to %s\n%!" path

(* What one recorded span costs the recorder, measured on no-op spans. *)
let span_cost () =
  let t = Trace.create () and n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do
    Trace.with_span t "calibrate" ignore
  done;
  (now () -. t0) /. float_of_int n

(* Per-layer self times, the share of the traced wall they account for,
   and the recorder's cost.  [roots] name the spans that frame the pass;
   their own self time is the glue between layers. *)
let trace_metrics ~roots spans =
  let self = Trace.self_times spans in
  let get n = Option.value ~default:0.0 (List.assoc_opt n self) in
  let wall =
    Array.fold_left
      (fun a sp ->
        if sp.Trace.sp_parent < 0 then a +. (sp.Trace.sp_stop -. sp.Trace.sp_start)
        else a)
      0.0 spans
  in
  let glue =
    List.fold_left (fun a (n, s) -> if List.mem n roots then a +. s else a) 0.0 self
  in
  let evaluate = get "metric.evaluate" in
  List.map (fun l -> (l ^ "_s", get l)) layer_times
  @ [
      ( "metric.overhead_s",
        if evaluate > 0.0 then
          evaluate -. get "fault.universe" -. get "fault.collapse" -. get "engine.lanes"
        else 0.0 );
      ("trace.wall_s", wall);
      ("trace.attributed_share", if wall > 0.0 then 1.0 -. (glue /. wall) else 0.0);
      ("trace.overhead_s", float_of_int (Array.length spans) *. span_cost ());
    ]

(* One "# layers" line per kind: the self times of its own spans.  A
   kind's spans are recorded one after another, starting at its root. *)
let print_layers spans =
  let n = Array.length spans in
  let roots = List.filter (fun i -> spans.(i).Trace.sp_parent < 0) (List.init n Fun.id) in
  List.iteri
    (fun j r ->
      let next = match List.nth_opt roots (j + 1) with Some k -> k | None -> n in
      let own =
        Array.map
          (fun sp ->
            let p = sp.Trace.sp_parent in
            { sp with Trace.sp_parent = (if p < 0 then -1 else p - r) })
          (Array.sub spans r (next - r))
      in
      Printf.printf "# layers %s:%s\n" spans.(r).Trace.sp_name
        (String.concat ""
           (List.map (fun (name, t) -> Printf.sprintf " %s=%.4f" name t)
              (List.tl (Trace.self_times own)))))
    roots

(* ------------------------------------------------------------------ *)
(* Batch workloads.                                                     *)

let run_batch ~name ~make ~seconds ~trace =
  let before = repeat 3 make in
  let (w : Batch.t), last = timed make in
  let setups = ref (last :: before) in
  let again () = setups := snd (timed make) :: !setups in
  let setup_errs = Batch.errors w.Batch.setup_checks in
  let nsetup = List.length w.Batch.setup_checks in
  if not trace then begin
    let r = Batch.run_timed ~seconds ~between:again w.Batch.kinds in
    for _ = 1 to 3 do again () done;
    print_samples r.Batch.samples;
    {
      attempted = nsetup + r.Batch.attempted;
      errors = setup_errs @ r.Batch.errors;
      metrics =
        [
          ("latency_ms", latency_ms r.Batch.samples);
          ("peak_rss_mb", r.Batch.rss);
          ("setup_s", Stat.median !setups);
        ];
    }
  end
  else begin
    let tr = Trace.create () in
    let counts, errors = Batch.run_traced tr w.Batch.kinds in
    let spans = Trace.spans tr in
    write_trace name spans;
    let roots = List.map (fun k -> k.Batch.name) w.Batch.kinds in
    print_layers spans;
    {
      attempted = nsetup + List.length w.Batch.kinds;
      errors = setup_errs @ errors;
      metrics = trace_metrics ~roots spans @ counts;
    }
  end

(* ------------------------------------------------------------------ *)
(* serve.                                                               *)

let pct xs q = Stat.quantile (List.filter (fun x -> not (Float.is_nan x)) xs) q

(* The highest whole percentile that leaves at least ten samples above
   it, and the value there. *)
let tail xs =
  let n = List.length (List.filter (fun x -> not (Float.is_nan x)) xs) in
  let whole = truncate (100.0 -. (1000.0 /. float_of_int (max n 1))) in
  let p = float_of_int (max 50 whole) /. 100.0 in
  (p, pct xs p)

let run_serve ~seed ~seconds ~trace =
  let kinds = Array.of_list (Serve.mix ()) in
  let sched = Serve.schedule ~seed ~seconds (Array.to_list kinds) in
  (* each repetition starts a fresh server and warms it up *)
  let warm_replies = ref [] and warm_rss = ref [] in
  let setup () =
    let s, replies = Serve.start (Array.to_list kinds) in
    warm_replies := replies @ !warm_replies;
    warm_rss := Batch.peak_rss_mb (string_of_int s.Serve.pid) :: !warm_rss;
    s
  in
  let stopped () = Serve.stop (setup ()) in
  let before = repeat 2 stopped in
  let srv, last = timed setup in
  let load, timed_out = Serve.run_load srv sched kinds in
  let load_rss = Batch.peak_rss_mb (string_of_int srv.Serve.pid) in
  let pool =
    if timed_out then None
    else
      match Response.decode (Json.of_string (Serve.call srv {|{"op":"stats"}|})) with
      | Response.Stats_r s, _ -> Some s.Response.st_pool
      | _ -> None
      | exception (Json.Parse_error _ | End_of_file | Sys_error _) -> None
  in
  Serve.stop ~kill:timed_out srv;
  let setup_s = Stat.median (last :: before @ repeat 4 stopped) in
  (* checks *)
  let refs = Serve.references (Array.to_list kinds) in
  let ref_errs = Batch.errors (List.map (fun (_, (_, ok)) -> ok) refs) in
  let warm_errs =
    Batch.errors (List.map (fun (k, reply) -> Serve.check refs k reply) !warm_replies)
  in
  let load_errs =
    Batch.errors
      (Array.to_list
         (Array.mapi
            (fun i r ->
              let k = kinds.(r.Serve.kind) in
              match load.Serve.replies.(i) with
              | None -> Error (Printf.sprintf "%s: request %d got no response" k.Serve.name i)
              | Some reply -> Serve.check refs k reply)
            sched))
  in
  let stray_errs =
    if load.Serve.stray > 0 then
      [ Printf.sprintf "%d responses with unknown or repeated ids" load.Serve.stray ]
    else []
  in
  let attempted = List.length !warm_replies + Array.length sched + List.length refs in
  let errors = ref_errs @ warm_errs @ load_errs @ stray_errs in
  (* per-kind latency samples *)
  let samples =
    Array.to_list
      (Array.mapi
         (fun ki k ->
           ( k.Serve.name,
             List.filter_map
               (fun r ->
                 let l = load.Serve.latency.(r.Serve.id) in
                 if r.Serve.kind = ki && not (Float.is_nan l) then Some l else None)
               (Array.to_list sched) ))
         kinds)
    |> List.filter (fun (_, ts) -> ts <> [])
  in
  print_samples samples;
  if not trace then
    {
      attempted;
      errors;
      metrics =
        [
          ("latency_ms", latency_ms samples);
          (* the warm server's high-water mark; the peak under load
             depends on how requests happened to overlap *)
          ("peak_rss_mb", Stat.median !warm_rss);
          ("setup_s", setup_s);
        ];
    }
  else begin
    let classes = Array.map (fun k -> Ftrsn_service.Exec.classify (Serve.query k)) kinds in
    let lat = Array.to_list load.Serve.latency in
    let of_class c =
      List.filteri (fun i _ -> classes.(sched.(i).Serve.kind) = c) lat
    in
    let light = of_class `Light and heavy = of_class `Heavy in
    let late = Array.to_list load.Serve.late in
    (* a growing backlog: the last 10 s (or half) averaging over twice the first *)
    let window = Float.min 10.0 (seconds /. 2.0) in
    let mean_in lo hi =
      Stat.mean
        (List.filteri
           (fun i l ->
             let d = sched.(i).Serve.due in
             d >= lo && d < hi && not (Float.is_nan l))
           lat)
    in
    let backlog = mean_in (seconds -. window) seconds > 2.0 *. mean_in 0.0 window in
    let late_p98 = pct late 0.98 in
    let valid = late_p98 <= 0.010 && not backlog && not timed_out in
    if not valid then
      Printf.eprintf "serve run invalid: late p98 %.1f ms, growing backlog %b, drain timed out %b\n%!"
        (ms late_p98) backlog timed_out;
    let tr = Trace.create () in
    let parts = Serve.replay tr sched kinds in
    let spans = Trace.spans tr in
    write_trace "serve" spans;
    let col f = Array.to_list (Array.map f parts) in
    let busy = col (fun (d, e, c) -> d +. e +. c) in
    let wait = List.map2 (fun l b -> l -. b) lat busy in
    let tail_metrics name xs =
      let p, v = tail xs in
      Printf.printf "# %s_tail_ms is the p%.0f of %d samples\n" name (100.0 *. p)
        (List.length (List.filter (fun x -> not (Float.is_nan x)) xs));
      [ (name ^ "_tail_ms", ms v) ]
    in
    let exec_of o =
      List.filteri (fun i _ -> Serve.op kinds.(sched.(i).Serve.kind) = o) (col (fun (_, e, _) -> e))
    in
    let po f = match pool with Some p -> float_of_int (f p) | None -> nan in
    {
      attempted;
      errors;
      metrics =
        trace_metrics ~roots:[ "replay"; "request" ] spans
        @ [
            ("service.decode_ms", ms (Stat.median (col (fun (d, _, _) -> d))));
            ("service.exec_ms", ms (Stat.median (col (fun (_, e, _) -> e))));
            ("service.encode_ms", ms (Stat.median (col (fun (_, _, c) -> c))));
          ]
        @ List.map
            (fun o -> ("service.exec_ms." ^ o, ms (Stat.median (exec_of o))))
            service_ops
        @ [
            ("service.queue_wait_p50_ms", ms (pct wait 0.5));
            ("service.utilization", List.fold_left ( +. ) 0.0 busy /. seconds);
            ("service.pool_hits", po (fun p -> p.Response.po_hits));
            ("service.pool_misses", po (fun p -> p.Response.po_misses));
            ("service.pool_evictions", po (fun p -> p.Response.po_evictions));
            ("service.pool_mb", po (fun p -> p.Response.po_bytes) /. 1048576.0);
            ("service.peak_rss_mb", load_rss);
            ("loadgen.latency_p50_ms", ms (pct lat 0.5));
            ("loadgen.late_p98_ms", ms late_p98);
            ("loadgen.valid", if valid then 1.0 else 0.0);
          ]
        @ tail_metrics "service.queue_wait" wait
        @ tail_metrics "loadgen.latency" lat
        @ tail_metrics "loadgen.light_latency" light
        @ tail_metrics "loadgen.heavy_latency" heavy;
    }
  end

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 in
  let trace = ref 0 and quick = ref false in
  let usage =
    "e2e.exe --workload table1|pairs|certify|serve --seed N --seconds S --trace 0|1 \
     [--quick]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  table1, pairs, certify or serve");
      ("--seed", Arg.Set_int seed, "N  schedule seed (serve)");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  1: one traced pass, per-layer metrics");
      ("--quick", Arg.Set quick, " smallest input of each workload (smoke test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and quick = !quick and seconds = !seconds in
  let batch name make = run_batch ~name ~make ~seconds ~trace in
  let o =
    match !workload with
    | "table1" -> batch "table1" (Batch.table1 ~quick)
    | "pairs" -> batch "pairs" (Batch.pairs ~quick)
    | "certify" -> batch "certify" (Batch.certify ~quick)
    | "serve" -> run_serve ~seed:!seed ~seconds ~trace
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let registry = if trace then per_layer else end_to_end in
  let value n = Option.value ~default:0.0 (List.assoc_opt n o.metrics) in
  List.iter (fun (n, u) -> Printf.printf "%s %s %s\n" n (Json.to_string (Json.Float (value n))) u) registry;
  List.iteri (fun i e -> if i < 20 then prerr_endline ("FAILED: " ^ e)) o.errors;
  let failed = List.length o.errors in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, u) ->
                     (n, Json.Obj [ ("value", Json.Float (value n)); ("unit", Json.Str u) ]))
                   registry) );
          ]));
  exit (if failed = 0 then 0 else 1)
