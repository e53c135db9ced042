(* Tests for the alternative fault models (bridging, selection-control,
   transient/SEU) behind the Fault.summary abstraction: universe sanity,
   brute-force per-fault oracles against both engines, bit-identity of
   the collapsed / cone-delta / lane-batched reduced paths with the
   naive enumeration, certified-mode differentials, and the pair-sweep
   contract — the PR 2–4 methodology re-run per model. *)

module Netlist = Ftrsn_rsn.Netlist
module Sib = Ftrsn_rsn.Sib
module Fault = Ftrsn_fault.Fault
module Engine = Ftrsn_access.Engine
module Bmc = Ftrsn_bmc.Bmc
module Metric = Ftrsn_core.Metric
module Pipeline = Ftrsn_core.Pipeline
module Itc02 = Ftrsn_itc02.Itc02

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Properties in this file seed through the file-derived stream so they
   can never collide with (and shift) streams of the older test files. *)
let seed_file = "test_fault_models"

let small_sib () =
  Sib.build ~name:"small"
    [
      Sib.Sib
        {
          name = "mod1";
          inner = [ Sib.leaf ~name:"c1" ~len:3; Sib.leaf ~name:"c2" ~len:2 ];
        };
      Sib.Sib { name = "mod2"; inner = [ Sib.leaf ~name:"c3" ~len:4 ] };
    ]

let u226 () = Itc02.rsn (Option.get (Itc02.find "u226"))

(* Verdict-derived fields of a metric result: everything except the
   volatile statistics (solver counters, steals, reduction/lane shapes),
   which legitimately differ between evaluation strategies. *)
let key (r : Metric.result) =
  ( r.Metric.worst_segments,
    r.Metric.avg_segments,
    r.Metric.worst_bits,
    r.Metric.avg_bits,
    r.Metric.faults,
    r.Metric.total_weight )

let check_same_result label a b =
  if key a <> key b then
    Alcotest.fail
      (Printf.sprintf "%s:\n  left  = %s\n  right = %s" label
         (Format.asprintf "%a" Metric.pp a)
         (Format.asprintf "%a" Metric.pp b))

(* ------------------------------------------------------------------ *)
(* Universe sanity per model                                           *)

let test_bridge_universe () =
  let net = small_sib () in
  let adj = Fault.bridge_adjacencies net in
  check bool_t "adjacencies exist" true (adj <> []);
  List.iter
    (fun (a, b) ->
      check bool_t "canonical a < b" true (a < b);
      check bool_t "segment indices" true
        (a >= 0 && b < Netlist.num_segments net))
    adj;
  check int_t "deduplicated" (List.length adj)
    (List.length (List.sort_uniq compare adj));
  let u = Fault.universe ~model:Fault.Bridge net in
  check int_t "two dominance variants per adjacency" (2 * List.length adj)
    (List.length u);
  List.iter
    (fun (f : Fault.t) ->
      match f.Fault.site with
      | Fault.Bridge_segs _ -> ()
      | _ -> Alcotest.fail "non-bridge site in bridge universe")
    u

let test_select_universe () =
  let net = small_sib () in
  let u = Fault.universe ~model:Fault.Select net in
  check bool_t "non-empty" true (u <> []);
  let has_tmr net =
    Array.exists (fun (m : Netlist.mux) -> m.Netlist.mux_tmr) net.Netlist.muxes
  in
  let voters net =
    List.filter
      (fun (f : Fault.t) ->
        match f.Fault.site with Fault.Mux_voter _ -> true | _ -> false)
      (Fault.universe ~model:Fault.Select net)
  in
  check bool_t "no voter faults without TMR muxes" true
    (has_tmr net || voters net = []);
  (* The fault-tolerant synthesis triplicates mux addressing, so its
     select universe gains voter faults — all masked under single fault
     (the other two replicas out-vote the broken voter). *)
  let ft = (Pipeline.synthesize net).Pipeline.ft in
  if has_tmr ft then begin
    let vs = voters ft in
    check bool_t "FT net has voter faults" true (vs <> []);
    List.iter
      (fun f ->
        check bool_t
          (Printf.sprintf "voter fault %s is masked" (Fault.to_string ft f))
          true
          (Fault.summary_benign (Fault.summarize ft f)))
      vs
  end

let test_transient_universe () =
  List.iter
    (fun net ->
      let u = Fault.universe ~model:Fault.Transient net in
      let shadow_bits =
        Array.fold_left
          (fun acc (s : Netlist.segment) -> acc + s.Netlist.seg_shadow)
          0 net.Netlist.segs
      in
      check int_t
        (net.Netlist.net_name ^ ": one glitch per shadow bit")
        shadow_bits (List.length u);
      List.iter
        (fun (f : Fault.t) ->
          match f.Fault.site with
          | Fault.Glitch_shadow (i, b) ->
              check bool_t "upset flips away from reset" true
                (f.Fault.stuck = not net.Netlist.segs.(i).Netlist.seg_reset.(b))
          | _ -> Alcotest.fail "non-glitch site in transient universe")
        u)
    [ small_sib (); u226 () ]

(* ------------------------------------------------------------------ *)
(* Brute per-fault oracle: for every fault of every model, a fresh
   structural context and a fresh one-shot BMC instance (no collapse,
   no cone, no lane, no session reuse) must return the same per-segment
   verdicts.  This is the model-generalized form of PR 4's agreement
   sweep, with the oracle deliberately rebuilt per fault. *)

let engines_agree_brutally ?(every = 1) net model =
  let faults =
    List.filteri (fun i _ -> i mod every = 0) (Fault.universe ~model net)
  in
  List.iter
    (fun fault ->
      (* fresh everything: the oracle must not share any state *)
      let v = Engine.analyze (Engine.make_ctx net) (Some fault) in
      let t = Bmc.Session.create (Bmc.create net) in
      for s = 0 to Netlist.num_segments net - 1 do
        let bw =
          match Bmc.Session.check_write t ~fault ~target:s () with
          | Bmc.Accessible _ -> true
          | Bmc.Inaccessible -> false
        in
        if bw <> v.Engine.writable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s/%s: writable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Fault.model_to_string model)
               (Netlist.segment_name net s)
               v.Engine.writable.(s) bw (Fault.to_string net fault));
        let br =
          match Bmc.Session.check_read t ~fault ~target:s () with
          | Bmc.Accessible _ -> true
          | Bmc.Inaccessible -> false
        in
        if br <> v.Engine.readable.(s) then
          Alcotest.fail
            (Printf.sprintf "%s/%s: readable(%s) engine=%b bmc=%b under %s"
               net.Netlist.net_name
               (Fault.model_to_string model)
               (Netlist.segment_name net s)
               v.Engine.readable.(s) br (Fault.to_string net fault))
      done)
    faults

let test_engines_agree_small () =
  List.iter
    (fun model -> engines_agree_brutally (small_sib ()) model)
    [ Fault.Bridge; Fault.Select; Fault.Transient ]

let test_engines_agree_small_ft () =
  let ft = (Pipeline.synthesize (small_sib ())).Pipeline.ft in
  List.iter
    (fun model -> engines_agree_brutally ~every:2 ft model)
    [ Fault.Bridge; Fault.Select; Fault.Transient ]

(* ------------------------------------------------------------------ *)
(* Reduced paths = brute enumeration, per model.  The reduced result
   (collapse + cone deltas + lane batching, sequential and 2-domain,
   both engines) must be bit-identical to the naive per-fault sweep in
   every verdict-derived field. *)

let reduced_equals_brute ?sample net model =
  let name which =
    Printf.sprintf "%s/%s: %s = brute" net.Netlist.net_name
      (Fault.model_to_string model)
      which
  in
  let paths =
    [
      ("reduced structural", fun () -> Metric.evaluate ?sample ~model net);
      ("2-domain", fun () -> Metric.evaluate ?sample ~model ~domains:2 net);
      ( "reduced BMC",
        fun () -> Metric.evaluate ?sample ~model ~engine:`Bmc net );
      ( "brute BMC",
        fun () -> Metric.evaluate ?sample ~model ~engine:`Bmc ~reduce:false net
      );
    ]
  in
  match Metric.evaluate ?sample ~model ~reduce:false net with
  | brute ->
      List.iter
        (fun (which, run) -> check_same_result (name which) brute (run ()))
        paths
  | exception Metric.Unsupported _ ->
      (* An empty universe: every path must reject it the same way. *)
      List.iter
        (fun (which, run) ->
          match run () with
          | exception Metric.Unsupported _ -> ()
          | _ -> Alcotest.fail (name which ^ ": brute raised Unsupported"))
        paths

let test_reduced_equals_brute_small () =
  List.iter (fun model -> reduced_equals_brute (small_sib ()) model)
    Fault.all_models

let test_reduced_equals_brute_small_ft () =
  let ft = (Pipeline.synthesize (small_sib ())).Pipeline.ft in
  List.iter (fun model -> reduced_equals_brute ft model) Fault.all_models

let test_u226_slice () =
  (* A thinned slice of the paper's smallest SoC, per model: brute
     structural vs reduced (seq + 2 domains) vs BMC.  Sampling is
     applied before collapsing, so each comparison is over exactly the
     same sampled universe. *)
  let net = u226 () in
  List.iter
    (fun model ->
      let sample =
        match model with
        | Fault.Stuck -> 40
        | Fault.Bridge -> 8
        | Fault.Select -> 16
        | Fault.Transient -> 2
      in
      reduced_equals_brute ~sample net model)
    Fault.all_models

(* Transient-specific semantics: a single upset on this SIB tree is
   always recoverable — the glitched configuration bit stays rewritable
   and its host segment stays reachable, so a reconfiguration sequence
   restores full access.  The worst case over the transient universe is
   therefore no loss at all. *)
let test_transient_recoverable () =
  let r = Metric.evaluate ~model:Fault.Transient (small_sib ()) in
  check bool_t "worst segments = 1.0" true (r.Metric.worst_segments = 1.0);
  check bool_t "worst bits = 1.0" true (r.Metric.worst_bits = 1.0)

(* The transient model on a network without shadow bits has an empty
   fault universe.  This net is the one QCHECK_SEED=874891189 draws for
   the random-net property below.  Both the library and the service
   must reject it with the typed error (service error [unsupported],
   exit 5), not an escaped [Invalid_argument]. *)
let test_empty_universe_unsupported () =
  let net = Ftrsn_rsn.Random_net.generate ~seed:730751 ~segments:6 () in
  check int_t "no transient sites" 0
    (List.length (Fault.universe ~model:Fault.Transient net));
  (match Metric.evaluate ~model:Fault.Transient net with
  | exception Metric.Unsupported _ -> ()
  | _ -> Alcotest.fail "an empty universe must raise Metric.Unsupported");
  let q =
    Ftrsn_service.Query.Metric
      {
        Ftrsn_service.Query.mq_net =
          {
            Ftrsn_service.Query.ns_source =
              `Inline (Ftrsn_rsn.Text.to_string net);
            ns_ft = false;
          };
        mq_sample = None;
        mq_domains = 1;
        mq_engine = `Structural;
        mq_model = Fault.Transient;
        mq_reduce = true;
        mq_inprocess = true;
        mq_with_stats = false;
      }
  in
  let r = Ftrsn_service.Exec.run (Ftrsn_service.Pool.create ()) q in
  (match r with
  | Ftrsn_service.Response.Error_r (Ftrsn_service.Response.Unsupported, _) ->
      ()
  | _ ->
      Alcotest.fail
        ("expected unsupported error: " ^ Ftrsn_service.Response.to_string r));
  check int_t "exit code 5" 5 (Ftrsn_service.Response.exit_code r)

(* ------------------------------------------------------------------ *)
(* Random-net properties (file-derived seed stream)                    *)

let prop_models_reduced_equals_brute =
  QCheck.Test.make
    ~name:"per model: reduced/lane/parallel/BMC metric = brute (random nets)"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:6 () in
      List.iter (fun model -> reduced_equals_brute net model)
        Fault.all_models;
      true)

let prop_models_engines_agree =
  QCheck.Test.make
    ~name:"per model: structural = BMC per-fault verdicts (random nets)"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:6 () in
      List.iter
        (fun model -> engines_agree_brutally ~every:3 net model)
        [ Fault.Bridge; Fault.Select; Fault.Transient ];
      true)

(* ------------------------------------------------------------------ *)
(* Certified mode per model                                            *)

let verdict_str = function
  | Bmc.Accessible n -> Printf.sprintf "accessible@%d" n
  | Bmc.Inaccessible -> "inaccessible"

let pi_stuck = { Fault.site = Fault.Primary_in; stuck = true }

(* Certified session = plain session over a model's universe; every
   UNSAT verdict's DRUP proof must pass the independent RUP checker.
   The sealing PI fault rides along to guarantee UNSAT verdicts exist on
   single-port networks even when the model's own faults are all
   recoverable (transient); on dual-port networks it is masked, and an
   inaccessible verdict may be decided statically (a kill_read/kill_write
   shortcut never reaches the solver, so it certifies nothing) — the
   counter assertions are therefore opt-out ([counters:false]) for the
   random-net property, whose real content is the verdict differential
   plus the no-rejected-proof guarantee ([Certification_failed] would
   abort the run). *)
let certified_model_agrees ?(every = 1) ?(counters = true) net model =
  let sess = Bmc.Session.create ~certify:true (Bmc.create net) in
  let plain = Bmc.Session.create (Bmc.create net) in
  let faults =
    pi_stuck
    :: List.filteri (fun i _ -> i mod every = 0) (Fault.universe ~model net)
  in
  for target = 0 to Netlist.num_segments net - 1 do
    let verdicts sess =
      List.map
        (fun fault -> Bmc.Session.check_access sess ~fault ~target ())
        faults
    in
    let cv = verdicts sess and pv = verdicts plain in
    List.iteri
      (fun i (c, p) ->
        if c <> p then
          Alcotest.fail
            (Printf.sprintf "%s/%s: target %d fault %d: certified=%s plain=%s"
               net.Netlist.net_name
               (Fault.model_to_string model)
               target i (verdict_str c) (verdict_str p)))
      (List.combine cv pv)
  done;
  match (Bmc.Session.stats sess).Bmc.Session.cert with
  | None -> Alcotest.fail "certified session must report cert stats"
  | Some c ->
      if counters then begin
        check bool_t "UNSAT verdicts were certified" true
          (c.Bmc.Session.cert_unsat > 0);
        check bool_t "proof lemmas were verified" true
          (c.Bmc.Session.cert_lemmas > 0)
      end

let test_certified_models_small () =
  List.iter
    (fun model -> certified_model_agrees (small_sib ()) model)
    [ Fault.Bridge; Fault.Select; Fault.Transient ]

let test_certified_models_u226 () =
  (* Certified = plain differential on a real ITC'02 SoC, through the
     full reduced metric path (collapse + cone-restricted certified SAT
     sweeps).  Thinned per model to keep the proof volume bounded. *)
  let net = u226 () in
  List.iter
    (fun model ->
      let sample =
        match model with
        | Fault.Stuck -> 80
        | Fault.Bridge -> 16
        | Fault.Select -> 32
        | Fault.Transient -> 4
      in
      let plain = Metric.evaluate ~sample ~model ~engine:`Bmc net in
      let certified =
        Metric.evaluate ~sample ~model ~engine:`Bmc ~certify:true net
      in
      check_same_result
        (Printf.sprintf "u226/%s: certified = plain"
           (Fault.model_to_string model))
        plain certified;
      match certified.Metric.solver with
      | None -> Alcotest.fail "BMC result must carry solver stats"
      | Some s ->
          check bool_t "certification happened" true
            (s.Metric.s_cert_unsat > 0 && s.Metric.s_cert_lemmas > 0))
    Fault.all_models

let prop_certified_models_random =
  QCheck.Test.make
    ~name:"per model: certified = plain session on random nets"
    ~count:3
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net = Ftrsn_rsn.Random_net.generate ~seed ~segments:5 () in
      List.iter
        (fun model -> certified_model_agrees ~every:3 ~counters:false net model)
        [ Fault.Bridge; Fault.Select; Fault.Transient ];
      true)

(* ------------------------------------------------------------------ *)
(* Pair sweeps                                                         *)

let test_pairs_models () =
  let net = small_sib () in
  List.iter
    (fun model ->
      let name leg =
        Printf.sprintf "pairs %s: %s = brute" (Fault.model_to_string model) leg
      in
      let brute =
        Metric.evaluate_pairs ~exhaustive:true ~reduce:false ~model net
      in
      let reduced = Metric.evaluate_pairs ~exhaustive:true ~model net in
      check_same_result (name "lane-reduced") brute reduced;
      (* the parallel scheduler reproduces the same bits per model *)
      let par = Metric.evaluate_pairs ~exhaustive:true ~domains:3 ~model net in
      check_same_result (name "lane-reduced, 3 domains") brute par)
    [ Fault.Bridge; Fault.Select ]

let test_pairs_transient_rejected () =
  (* Two glitches are not the set-wise union of their summaries, which
     the pair factorization rests on: the model is rejected up front
     with the typed error (service maps it to the [unsupported]
     response, exit 5) rather than silently mis-evaluated. *)
  match Metric.evaluate_pairs ~model:Fault.Transient (small_sib ()) with
  | exception Metric.Unsupported _ -> ()
  | _ -> Alcotest.fail "transient pairs must raise Metric.Unsupported"

(* ------------------------------------------------------------------ *)
(* Fault collapse against a naive reference                            *)

(* Collapse by linear search over the classes found so far: structural
   equality only, no hashing. *)
let collapse_reference net faults =
  let masked = Fault.port_mask_table net in
  let classes =
    List.fold_left
      (fun acc f ->
        let sm = Fault.summarize ~port_masked:masked net f in
        if List.exists (fun (sm', _) -> sm' = sm) acc then
          List.map
            (fun ((sm', fs) as c) -> if sm' = sm then (sm', f :: fs) else c)
            acc
        else (sm, [ f ]) :: acc)
      [] faults
  in
  List.rev_map
    (fun (sm, fs) ->
      let members = List.rev fs in
      { Fault.cls_rep = List.hd members; cls_members = members; cls_summary = sm })
    classes

let u226_ft () = (Pipeline.synthesize (u226 ())).Pipeline.ft

let test_collapse_reference () =
  List.iter
    (fun (name, net) ->
      List.iter
        (fun model ->
          let faults = Fault.universe ~model net in
          if Fault.collapse net faults <> collapse_reference net faults then
            Alcotest.failf "%s/%s: collapse differs from the reference" name
              (Fault.model_to_string model))
        Fault.all_models)
    [ ("u226", u226 ()); ("u226-ft", u226_ft ()) ]

(* The summary hash must separate the classes: at least 90% of them get
   a hash value of their own.  The polymorphic hash gives d695-ft's
   stuck-at classes 10 values and its bridge classes one. *)
let test_summary_hash_spread () =
  let net =
    (Pipeline.synthesize (Itc02.rsn (Option.get (Itc02.find "d695"))))
      .Pipeline.ft
  in
  List.iter
    (fun model ->
      let classes = Fault.collapse net (Fault.universe ~model net) in
      let hashes = Hashtbl.create 1024 in
      List.iter
        (fun c ->
          Hashtbl.replace hashes (Fault.summary_hash c.Fault.cls_summary) ())
        classes;
      let n = List.length classes and d = Hashtbl.length hashes in
      if 10 * d < 9 * n then
        Alcotest.failf "d695-ft/%s: %d hash values for %d classes"
          (Fault.model_to_string model) d n)
    [ Fault.Stuck; Fault.Bridge ]

(* ------------------------------------------------------------------ *)
(* Port masking against the route-based reference                      *)

(* The duplicated-port masking rule read off the dataflow edge routes:
   a mux is masked iff the consumer vertex of a route through it is the
   scan-out (1) or a direct successor of the scan-in (0). *)
let port_mask_reference net =
  if not net.Netlist.dual_ports then fun _ -> false
  else begin
    let routes = Netlist.edge_routes net in
    let consumer = Array.make (Netlist.num_muxes net) (-1) in
    let pi_succ = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (src, dst) rs ->
        if src = 0 then Hashtbl.replace pi_succ dst ();
        List.iter (List.iter (fun (m, _) -> consumer.(m) <- dst)) rs)
      routes;
    fun m -> consumer.(m) = 1 || Hashtbl.mem pi_succ consumer.(m)
  end

let test_port_mask_reference () =
  let soc name = Itc02.rsn (Option.get (Itc02.find name)) in
  let ft net = (Pipeline.synthesize net).Pipeline.ft in
  let itc =
    List.map (fun n -> (n ^ "-ft", ft (soc n)))
      [ "u226"; "d281"; "d695"; "x1331"; "q12710" ]
  in
  let random =
    List.filter_map
      (fun seed ->
        let net =
          Ftrsn_rsn.Random_net.generate ~seed ~segments:(4 + (seed mod 6)) ()
        in
        match ft net with
        | ft -> Some (Printf.sprintf "random %d ft" seed, ft)
        | exception Ftrsn_core.Augment.Infeasible _ -> None)
      (List.init 40 Fun.id)
  in
  check bool_t "some random nets synthesize" true (List.length random >= 20);
  List.iter
    (fun (name, net) ->
      let rule = Fault.port_mask_table net and reference = port_mask_reference net in
      for m = 0 to Netlist.num_muxes net - 1 do
        if rule m <> reference m then
          Alcotest.failf "%s: mux %d masked %b, reference %b" name m (rule m)
            (reference m)
      done)
    (itc @ random)

let suite =
  [
    Alcotest.test_case "bridge universe sanity" `Quick test_bridge_universe;
    Alcotest.test_case "select universe sanity (voters masked)" `Quick
      test_select_universe;
    Alcotest.test_case "transient universe sanity" `Quick
      test_transient_universe;
    Alcotest.test_case "brute oracle: engines agree (small SIB)" `Slow
      test_engines_agree_small;
    Alcotest.test_case "brute oracle: engines agree (small SIB, FT)" `Slow
      test_engines_agree_small_ft;
    Alcotest.test_case "reduced = brute (small SIB, all models)" `Quick
      test_reduced_equals_brute_small;
    Alcotest.test_case "reduced = brute (small SIB FT, all models)" `Slow
      test_reduced_equals_brute_small_ft;
    Alcotest.test_case "reduced = brute (u226 slice, all models)" `Slow
      test_u226_slice;
    Alcotest.test_case "transient faults recoverable on SIB tree" `Quick
      test_transient_recoverable;
    Alcotest.test_case "empty fault universe: typed Unsupported" `Quick
      test_empty_universe_unsupported;
    Testseed.to_alcotest_in ~file:seed_file prop_models_reduced_equals_brute;
    Testseed.to_alcotest_in ~file:seed_file prop_models_engines_agree;
    Alcotest.test_case "certified = plain per model (small SIB)" `Slow
      test_certified_models_small;
    Alcotest.test_case "certified = plain per model (u226, reduced path)"
      `Slow test_certified_models_u226;
    Testseed.to_alcotest_in ~file:seed_file prop_certified_models_random;
    Alcotest.test_case "pair sweep: reduced = brute (bridge, select)" `Slow
      test_pairs_models;
    Alcotest.test_case "pair sweep: transient rejected" `Quick
      test_pairs_transient_rejected;
    Alcotest.test_case "collapse = naive reference (u226, u226-ft)" `Quick
      test_collapse_reference;
    Alcotest.test_case "summary hash separates d695-ft classes" `Quick
      test_summary_hash_spread;
    Alcotest.test_case "port masking = route-based reference (FT, random)"
      `Quick test_port_mask_reference;
  ]
