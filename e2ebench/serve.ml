(* The serve workload: `ftrsn_tool serve` (default configuration, stdio)
   driven open loop by a seeded schedule.

   One sender thread writes each request at its due time whatever the
   server is doing, and one reader thread timestamps the response lines;
   latency runs from the due time, so a stall also charges the requests
   queued behind it.  Every response is matched to its request by id and
   compared with an in-process cold run of the same query (the service
   promises warm answers byte-identical to cold ones). *)

module Json = Ftrsn_service.Json
module Query = Ftrsn_service.Query
module Response = Ftrsn_service.Response
module Pool = Ftrsn_service.Pool
module Exec = Ftrsn_service.Exec
module Itc02 = Ftrsn_itc02.Itc02
module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Retarget = Ftrsn_access.Retarget
module Pipeline = Ftrsn_core.Pipeline

let now = Unix.gettimeofday

type expect =
  | Reference  (* byte-identical to the cold in-process response *)
  | Bad_request  (* the typed user error *)
  | Any_stats  (* pool counters move; only the payload type is fixed *)

type rkind = {
  name : string;
  weight : int;  (* relative share of the mix *)
  fields : (string * Json.t) list;  (* the request object, without id *)
  expect : expect;
  golden : (Response.t -> (unit, string) result) option;
      (* a check of the cold response against golden/*.json *)
}

let line ?id k =
  Json.to_string
    (Json.Obj (match id with Some i -> ("id", Json.Int i) :: k.fields | None -> k.fields))

let query k =
  match Query.decode_line (line k) with
  | Ok (q, _) -> q
  | Error e -> invalid_arg (k.name ^ ": " ^ e)

let op k = Json.get_str "op" (Json.Obj k.fields)

(* A probe target on the FT rework of u226, a fault under which it stays
   writable, and a misspelling of its name that names no segment. *)
let probe_names () =
  let ft = (Pipeline.synthesize (Itc02.rsn (Batch.soc "u226"))).Pipeline.ft in
  let ctx = Engine.make_ctx ft in
  let target = Netlist.num_segments ft / 2 in
  let universe = Fault.universe ft in
  let fault =
    List.find
      (fun f ->
        (not (Fault.summary_benign (Fault.summarize ft f)))
        && Retarget.plan_write ctx ~fault:f ~target () <> None)
      (List.filteri (fun i _ -> i >= List.length universe / 3) universe)
  in
  let name = Netlist.segment_name ft target in
  let names = List.init (Netlist.num_segments ft) (Netlist.segment_name ft) in
  let typo = String.sub name 0 (String.length name - 1) in
  let typo = if List.mem typo names then name ^ "_" else typo in
  (name, Fault.to_string ft fault, typo)

(* The mix is modelled on the CI serve-smoke batch and the README's
   serve examples (README.md explains the choice).  Sampled variants keep
   every request under 0.1 s, so that a run holds enough requests of each
   kind.  The misspelled probe is the only request expected to fail,
   with the typed bad_request. *)
let mix () =
  let target, fault, typo = probe_names () in
  let s x = Json.Str x in
  let op o = ("op", s o) and itc n = ("net", s ("itc02:" ^ n)) in
  let u226_ft = ("net", Json.Obj [ ("itc02", s "u226"); ("ft", Json.Bool true) ]) in
  let k ?golden ?(expect = Reference) name weight fields =
    { name; weight; fields; expect; golden }
  in
  let sib name r = Batch.check_metric_r name "sib" r in
  let area name = function
    | Response.Synth_r sy -> Batch.check_area name sy.Response.sy_area_ratio
    | r -> Error (name ^ " synthesize: " ^ Response.to_string r)
  in
  [
    k "netinfo" 10 [ op "netinfo"; itc "d695" ];
    k "probe" 10 [ op "probe"; u226_ft; ("target", s target) ];
    k "probe-fault" 10 [ op "probe"; u226_ft; ("target", s target); ("fault", s fault) ];
    k "probe-typo" 2 ~expect:Bad_request [ op "probe"; u226_ft; ("target", s typo) ];
    k "metric-u226" 8 ~golden:(sib "u226") [ op "metric"; itc "u226" ];
    k "metric-x1331" 8 ~golden:(sib "x1331") [ op "metric"; itc "x1331" ];
    k "metric-u226-bridge" 6 [ op "metric"; itc "u226"; ("fault_model", s "bridge") ];
    k "metric-d695/4" 3 [ op "metric"; itc "d695"; ("sample", Json.Int 4) ];
    k "metric-p93791/64" 2 [ op "metric"; itc "p93791"; ("sample", Json.Int 64) ];
    k "certify-q12710/64" 2 [ op "certify"; itc "q12710"; ("sample", Json.Int 64) ];
    k "diagnose-monitor" 6 [ op "diagnose"; ("net", s "examples/monitor.icl") ];
    k "stats" 3 ~expect:Any_stats [ op "stats" ];
    (* heavy: pair sweeps and synthesis go through the heavy queue *)
    k "pairs-x1331/3" 4 [ op "pairs"; itc "x1331"; ("fault_sample", Json.Int 3) ];
    k "pairs-q12710/p111" 3 [ op "pairs"; itc "q12710"; ("pair_sample", Json.Int 111) ];
    k "synthesize-u226" 3 ~golden:(area "u226")
      [ op "synthesize"; itc "u226"; ("emit", Json.Bool true) ];
  ]

(* Requests per second: tuned so that the server is busy about a third
   of the time (the traced run reports the measured service.utilization). *)
let rate = 25.0

(* ------------------------------------------------------------------ *)
(* The seeded schedule.                                                 *)

type req = { id : int; kind : int; due : float (* seconds after start *) }

(* Exact per-kind counts (largest remainder), shuffled, at the sorted
   arrival times of a Poisson process conditioned on its count. *)
let schedule ~seed ~seconds kinds =
  let st = Random.State.make [| seed |] in
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let total = List.fold_left (fun a k -> a + k.weight) 0 kinds in
  let quota = List.map (fun k -> float_of_int (n * k.weight) /. float_of_int total) kinds in
  let counts = Array.of_list (List.map (fun q -> int_of_float q) quota) in
  let by_remainder =
    List.sort
      (fun (a, _) (b, _) -> compare b a)
      (List.mapi (fun i q -> (q -. Float.of_int (truncate q), i)) quota)
  in
  let missing = n - Array.fold_left ( + ) 0 counts in
  List.iteri (fun j (_, i) -> if j < missing then counts.(i) <- counts.(i) + 1) by_remainder;
  let ids = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts)) in
  for i = Array.length ids - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let dues = Array.init n (fun _ -> Random.State.float st seconds) in
  Array.sort compare dues;
  Array.mapi (fun id kind -> { id; kind; due = dues.(id) }) ids

(* ------------------------------------------------------------------ *)
(* The server subprocess.                                               *)

type server = { pid : int; to_srv : out_channel; from_srv : in_channel }

(* ftrsn_tool.exe sits next to this executable in the build tree. *)
let server_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "ftrsn_tool.exe")

let spawn () =
  let exe = server_exe () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "serve" |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_srv = Unix.out_channel_of_descr in_w; from_srv = Unix.in_channel_of_descr out_r }

let send srv l =
  output_string srv.to_srv l;
  output_char srv.to_srv '\n';
  flush srv.to_srv

let call srv l =
  send srv l;
  input_line srv.from_srv

(* Ends the server; [kill] when it may be stuck on a request. *)
let stop ?(kill = false) srv =
  if kill then (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try close_out srv.to_srv with Sys_error _ -> ());
  ignore (Unix.waitpid [] srv.pid);
  close_in_noerr srv.from_srv

(* Set-up: start a server and send every kind once, in mix order, so
   that the timed phase runs against a warm pool. *)
let start kinds =
  let srv = spawn () in
  match List.map (fun k -> (k, call srv (line k))) kinds with
  | replies -> (srv, replies)
  | exception e ->
      stop ~kill:true srv;
      raise e

(* ------------------------------------------------------------------ *)
(* Checking.                                                            *)

(* Cold in-process responses, one per kind, each also checked against
   its golden where it has one. *)
let references kinds =
  let pool = Pool.create () in
  List.map
    (fun k ->
      let r = Exec.run pool (query k) in
      let ok =
        match (k.expect, r, k.golden) with
        | Reference, Response.Error_r _, _ ->
            Error (k.name ^ ": reference failed: " ^ Response.to_string r)
        | Reference, _, Some g -> g r
        | _ -> Ok ()
      in
      (k.name, (Response.to_string r, ok)))
    kinds

let check refs k reply =
  match Response.decode (Json.of_string reply) with
  | exception Json.Parse_error e -> Error (k.name ^ ": unparsable response: " ^ e)
  | r, _ -> (
      match (k.expect, r) with
      | Reference, r ->
          let expected, _ = List.assoc k.name refs in
          let got = Response.to_string r in
          if got = expected then Ok ()
          else Error (Printf.sprintf "%s: got %s, expected %s" k.name got expected)
      | Bad_request, Response.Error_r (Response.Bad_request, _) -> Ok ()
      | Any_stats, Response.Stats_r _ -> Ok ()
      | _, r -> Error (k.name ^ ": unexpected " ^ Response.to_string r))

(* ------------------------------------------------------------------ *)
(* The timed phase.                                                     *)

let drain_timeout = 120.0

type load = {
  late : float array;  (* send time minus due time; nan if never sent *)
  latency : float array;  (* response time minus due time; nan if missing *)
  replies : string option array;
  stray : int;  (* replies with an unknown or repeated id *)
}

let run_load srv sched kinds =
  let n = Array.length sched in
  let lines = Array.map (fun r -> line ~id:r.id kinds.(r.kind)) sched in
  let late = Array.make n nan in
  let received = Atomic.make 0 and raw = ref [] in
  let t0 = now () +. 0.05 in
  let sender () =
    try
      Array.iteri
        (fun i r ->
          let d = t0 +. r.due -. now () in
          if d > 0.0 then Thread.delay d;
          send srv lines.(i);
          late.(i) <- now () -. (t0 +. r.due))
        sched
    with Sys_error _ -> ()
  in
  let reader () =
    try
      while Atomic.get received < n do
        let l = input_line srv.from_srv in
        let t = now () in
        raw := (t, l) :: !raw;
        Atomic.incr received
      done
    with End_of_file | Sys_error _ -> ()
  in
  let ts = Thread.create sender () and tr = Thread.create reader () in
  Thread.join ts;
  let deadline = now () +. drain_timeout in
  while Atomic.get received < n && now () < deadline do
    Thread.delay 0.01
  done;
  let timed_out = Atomic.get received < n in
  if timed_out then (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  Thread.join tr;
  let latency = Array.make n nan and replies = Array.make n None and stray = ref 0 in
  List.iter
    (fun (t, l) ->
      match Json.member "id" (Json.of_string l) with
      | Some (Json.Int i) when i >= 0 && i < n && replies.(i) = None ->
          replies.(i) <- Some l;
          latency.(i) <- t -. (t0 +. sched.(i).due)
      | _ -> incr stray
      | exception Json.Parse_error _ -> incr stray)
    !raw;
  ({ late; latency; replies; stray = !stray }, timed_out)

(* ------------------------------------------------------------------ *)
(* The traced replay: the same request sequence, serially, in process,  *)
(* against a pool warmed the same way.  Returns per request the         *)
(* (decode, exec, encode) seconds.                                      *)

let replay tr sched kinds =
  let pool = Pool.create () in
  List.iter (fun k -> ignore (Exec.run pool (query k))) (Array.to_list kinds);
  let span ?req name f = Trace.with_span tr ?req name f in
  span "replay" (fun () ->
      Array.map
        (fun r ->
          let l = line ~id:r.id kinds.(r.kind) in
          let timed name f =
            let t = now () in
            let v = span ~req:r.id name f in
            (v, now () -. t)
          in
          span ~req:r.id "request" (fun () ->
              let q, dec = timed "service.decode" (fun () -> Query.decode_line l) in
              match q with
              | Error _ -> (dec, 0.0, 0.0)
              | Ok (q, id) ->
                  let resp, ex = timed "service.exec" (fun () -> Exec.run pool q) in
                  let _, enc = timed "service.encode" (fun () -> Response.to_string ?id resp) in
                  (dec, ex, enc)))
        sched)
