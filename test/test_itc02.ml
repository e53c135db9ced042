(* Tests for the ITC'02 benchmark descriptors and generated SIB-based RSNs:
   exact Table I characteristics, determinism, and the full paper pipeline
   on the smaller SoCs. *)

module Itc02 = Ftrsn_itc02.Itc02
module Netlist = Ftrsn_rsn.Netlist
module Config = Ftrsn_rsn.Config
module Sib = Ftrsn_rsn.Sib
module Text = Ftrsn_rsn.Text
module Augment = Ftrsn_core.Augment
module Pipeline = Ftrsn_core.Pipeline
module Metric = Ftrsn_core.Metric
module Area = Ftrsn_core.Area

(* The SoCs of the benchmark's Table I workload (p22081 and p93791 are
   the two left out). *)
let table1_socs =
  [ "u226"; "d281"; "d695"; "h953"; "g1023"; "x1331"; "f2126"; "q12710";
    "t512505"; "a586710"; "p34392" ]

(* Dropped-edge variants checked per Table I SoC. *)
let variants = 2

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let test_thirteen_socs () =
  check int_t "Table I has 13 SoCs" 13 (List.length Itc02.all)

let test_characteristics_exact () =
  (* rsn itself raises if any of mux/segments/bits/levels disagrees with
     the descriptor, so building every SoC is the assertion. *)
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      check bool_t (soc.Itc02.soc_name ^ " validates") true
        (Netlist.validate net = Ok ()))
    Itc02.all

let test_find () =
  check bool_t "d695 found" true (Itc02.find "d695" <> None);
  check bool_t "unknown absent" true (Itc02.find "nonexistent" = None)

let test_deterministic () =
  List.iter
    (fun soc ->
      let a = Text.to_string (Itc02.rsn soc) in
      let b = Text.to_string (Itc02.rsn soc) in
      check bool_t (soc.Itc02.soc_name ^ " deterministic") true (a = b))
    [ Option.get (Itc02.find "u226"); Option.get (Itc02.find "p93791") ]

let test_reset_path_is_top_level () =
  List.iter
    (fun soc ->
      let net = Itc02.rsn soc in
      match Config.active_path net (Config.reset net) with
      | None -> Alcotest.fail "reset path must be valid"
      | Some path ->
          List.iter
            (fun s ->
              check int_t
                (soc.Itc02.soc_name ^ ": reset path at hierarchy level 1")
                1
                net.Netlist.segs.(s).Netlist.seg_hier)
            path)
    [ Option.get (Itc02.find "u226"); Option.get (Itc02.find "x1331") ]

let test_structure_identities () =
  List.iter
    (fun soc ->
      let specs = Itc02.generate soc in
      let leaves = soc.Itc02.soc_segments - soc.Itc02.soc_mux in
      let groups = soc.Itc02.soc_mux - leaves in
      check int_t
        (soc.Itc02.soc_name ^ " muxes = leaves + groups")
        (leaves + groups) (Sib.count_muxes specs);
      check int_t
        (soc.Itc02.soc_name ^ " depth matches levels")
        soc.Itc02.soc_levels (Sib.depth specs))
    Itc02.all

let result_t = Alcotest.(result unit string)

(* Every [k]-th element, at most [limit] of them. *)
let spread ~limit l =
  let n = List.length l in
  let k = max 1 ((n + limit - 1) / limit) in
  List.filteri (fun i _ -> i mod k = 0) l

let test_augmentation_all_socs () =
  (* The flow augmentation must be feasible on every SoC, and the
     dominator verification must give exactly the max-flow reference's
     result there and, for the Table I SoCs, on the bare original graph
     (whose SIB muxes fail the path checks) and on variants with one new
     edge dropped (which fail the degree checks).  The demands equal
     their quadratic definition. *)
  List.iter
    (fun soc ->
      let name = soc.Itc02.soc_name in
      let net = Itc02.rsn soc in
      let p = Augment.of_netlist net in
      check
        Alcotest.(pair (array int) (array int))
        (name ^ " demands = quadratic") (Augment_oracle.demands p)
        (Augment.demands p);
      let sol = Augment.solve p in
      let got = Augment.verify p sol.Augment.new_edges in
      check result_t
        (name ^ " verify = reference")
        (Augment_oracle.verify p sol.Augment.new_edges)
        got;
      check result_t (name ^ " verified") (Ok ()) got;
      (* One new in-edge per vertex except the root (paper SIV-C: at least
         one additional mux at every scan-in port). *)
      check bool_t
        (name ^ " edge count >= segments")
        true
        (List.length sol.Augment.new_edges >= soc.Itc02.soc_segments);
      if List.mem name table1_socs then begin
        check result_t (name ^ " bare graph")
          (Augment_oracle.verify p []) (Augment.verify p []);
        List.iter
          (fun e ->
            let kept = List.filter (fun e' -> e' <> e) sol.Augment.new_edges in
            let i, j = e in
            check result_t
              (Printf.sprintf "%s without (%d, %d)" name i j)
              (Augment_oracle.verify p kept) (Augment.verify p kept))
          (spread ~limit:variants sol.Augment.new_edges)
      end)
    Itc02.all

let test_full_row_q12710 () =
  (* Full Table I row for the smallest SoC: SIB worst 0, FT worst all but
     one segment, FT avg > 0.99, area ratios within the paper's bands. *)
  let soc = Option.get (Itc02.find "q12710") in
  let net = Itc02.rsn soc in
  let r = Pipeline.synthesize net in
  let mo = Metric.evaluate net in
  let mf = Metric.evaluate r.Pipeline.ft in
  check (Alcotest.float 1e-9) "SIB worst = 0" 0.0 mo.Metric.worst_segments;
  check bool_t "SIB avg in (0.5, 1)" true
    (mo.Metric.avg_segments > 0.5 && mo.Metric.avg_segments < 1.0);
  let n = float_of_int soc.Itc02.soc_segments in
  check bool_t "FT worst >= all but one" true
    (mf.Metric.worst_segments >= ((n -. 1.) /. n) -. 1e-9);
  check bool_t "FT avg > 0.99" true (mf.Metric.avg_segments > 0.99);
  let rt = r.Pipeline.area_ratios in
  check bool_t "mux ratio in (2, 4.5)" true
    (rt.Area.r_mux > 2.0 && rt.Area.r_mux < 4.5);
  check bool_t "bits ratio < mux ratio" true (rt.Area.r_bits < rt.Area.r_mux);
  check bool_t "area ratio moderate" true
    (rt.Area.r_area > 1.0 && rt.Area.r_area < 1.6)

let test_sampled_metric_consistent () =
  (* Sampling keeps the exact worst case for port-dominated RSNs and stays
     close on the average. *)
  let soc = Option.get (Itc02.find "u226") in
  let net = Itc02.rsn soc in
  let full = Metric.evaluate net in
  let sampled = Metric.evaluate ~sample:4 net in
  check (Alcotest.float 1e-9) "worst preserved" full.Metric.worst_segments
    sampled.Metric.worst_segments;
  check bool_t "avg close" true
    (abs_float (full.Metric.avg_segments -. sampled.Metric.avg_segments) < 0.05)

let suite =
  [
    Alcotest.test_case "thirteen SoCs" `Quick test_thirteen_socs;
    Alcotest.test_case "Table I characteristics exact" `Quick
      test_characteristics_exact;
    Alcotest.test_case "find by name" `Quick test_find;
    Alcotest.test_case "generation deterministic" `Quick test_deterministic;
    Alcotest.test_case "reset path at top level" `Quick
      test_reset_path_is_top_level;
    Alcotest.test_case "structure identities" `Quick test_structure_identities;
    Alcotest.test_case "augmentation on SoCs" `Slow test_augmentation_all_socs;
    Alcotest.test_case "full Table I row (q12710)" `Slow test_full_row_q12710;
    Alcotest.test_case "sampled metric consistent" `Slow
      test_sampled_metric_consistent;
  ]
