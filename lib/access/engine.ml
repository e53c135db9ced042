module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Bitset = Ftrsn_topo.Bitset
module Lanes = Ftrsn_topo.Lanes
module Digraph = Ftrsn_topo.Digraph
module Order = Ftrsn_topo.Order

(* Dataflow vertex ids follow Netlist.dataflow_graph: 0 = scan-in,
   1 = scan-out, 2 + i = segment i. *)
let v_pi = 0
let v_po = 1
let v_of_seg i = 2 + i
let seg_of_v v = v - 2

type edge = {
  e_src : int;
  e_dst : int;
  e_route : (int * int) list;  (* (mux, input index) pairs, consumer first *)
  (* Compiled steering requirements (performance: the metric evaluates the
     whole fault universe, so the per-edge checks must be flat arrays). *)
  e_dead : bool;  (* a constant address bit contradicts the requirement *)
  e_shadow_reqs : ((int * int) * int * int * bool * bool) array;
      (* ((mux, addr bit), seg, bit, required, reset_matches) for
         shadow-driven addresses *)
  e_addr_ports : (int * int * bool) array;
      (* (mux, addr bit, required) for lock checks, incl. primary/const *)
  e_muxes : (int * int) array;  (* (mux, input) for data-corruption checks *)
  e_detour : bool;
      (* the route steers an augmentation mux away from its default input:
         a redundant detour, only taken when the default routes fail *)
}

type ctx = {
  net : Netlist.t;
  nsegs : int;
  nv : int;
  edges : edge array;
  out_edges : int list array;  (* edge indices by source vertex *)
  in_edges : int list array;   (* edge indices by destination vertex *)
  port_masked : int -> bool;   (* [Fault.port_mask_table] of the netlist *)
}

let netlist ctx = ctx.net

let compile_edge (net : Netlist.t) src dst route =
  let dead = ref false in
  let detour = ref false in
  let shadow_reqs = ref [] in
  let addr_ports = ref [] in
  List.iter
    (fun (m, k) ->
      let mx = net.Netlist.muxes.(m) in
      if k >= mx.Netlist.mux_rescue_from then detour := true;
      Array.iteri
        (fun b ctrl ->
          let required = k land (1 lsl b) <> 0 in
          addr_ports := (m, b, required) :: !addr_ports;
          match ctrl with
          | Netlist.Ctrl_const c -> if c <> required then dead := true
          | Netlist.Ctrl_primary _ -> ()
          | Netlist.Ctrl_shadow { cseg; cbit } ->
              let reset_matches =
                net.Netlist.segs.(cseg).Netlist.seg_reset.(cbit) = required
              in
              shadow_reqs :=
                ((m, b), cseg, cbit, required, reset_matches) :: !shadow_reqs)
        mx.mux_addr)
    route;
  {
    e_src = src;
    e_dst = dst;
    e_route = route;
    e_dead = !dead;
    e_shadow_reqs = Array.of_list !shadow_reqs;
    e_addr_ports = Array.of_list !addr_ports;
    (* Canonical input indices: duplicated data ports are one fault site. *)
    e_muxes =
      Array.of_list
        (List.map (fun (m, k) -> (m, Netlist.mux_input_class net m k)) route);
    e_detour = !detour;
  }

let make_ctx (net : Netlist.t) =
  let nsegs = Netlist.num_segments net in
  let nv = 2 + nsegs in
  let routes = Netlist.edge_routes net in
  let edges =
    Hashtbl.fold
      (fun (src, dst) rs acc ->
        List.rev_append (List.map (compile_edge net src dst) rs) acc)
      routes []
    |> Array.of_list
  in
  let out_edges = Array.make nv [] in
  let in_edges = Array.make nv [] in
  Array.iteri
    (fun i e ->
      out_edges.(e.e_src) <- i :: out_edges.(e.e_src);
      in_edges.(e.e_dst) <- i :: in_edges.(e.e_dst))
    edges;
  { net; nsegs; nv; edges; out_edges; in_edges;
    port_masked = Fault.port_mask_table net }

type verdict = {
  writable : bool array;
  readable : bool array;
  accessible : bool array;
}

(* Static per-fault effects, independent of the writability fixpoint. *)
type effects = {
  hard_block : bool array;      (* segment cannot shift at all *)
  corrupt_vertex : bool array;  (* data through the segment is corrupted *)
  corrupt_in : bool array;      (* data entering the segment is corrupted *)
  corrupt_out : bool array;     (* data leaving the segment is corrupted *)
  kill_write : bool array;      (* local write capability lost *)
  kill_read : bool array;       (* local read capability lost *)
  mux_out_bad : bool array;     (* per mux: output corrupts data *)
  mutable mux_in_bad : (int * int) list;  (* (mux, input) data faults *)
  mutable locked_addr : (int * int * bool) list; (* mux addr bits forced *)
  mutable stuck_shadow : (int * int * bool) list; (* shadow bits pinned *)
  mutable glitch_shadow : (int * int * bool) list;
      (* shadow bits whose INITIAL value is upset (transient faults): the
         bit starts at the given value instead of its reset state but
         remains rewritable — it only changes [edge_steerable]'s
         reset-value fallback, never pins *)
  mutable pi_dead : bool;
  mutable po_dead : bool;
}

let no_effects ctx =
  {
    hard_block = Array.make ctx.nsegs false;
    corrupt_vertex = Array.make ctx.nsegs false;
    corrupt_in = Array.make ctx.nsegs false;
    corrupt_out = Array.make ctx.nsegs false;
    kill_write = Array.make ctx.nsegs false;
    kill_read = Array.make ctx.nsegs false;
    mux_out_bad = Array.make (Netlist.num_muxes ctx.net) false;
    mux_in_bad = [];
    locked_addr = [];
    stuck_shadow = [];
    glitch_shadow = [];
    pi_dead = false;
    po_dead = false;
  }

(* Folds one fault's canonical semantic summary (see {!Fault.summarize} —
   the single place the stuck-at case analysis lives; the BMC engine
   derives its predicates from the same summaries) into [e]; composable,
   so the same machinery analyzes multi-fault scenarios (beyond the
   paper's single stuck-at scope). *)
let add_summary_effects e (sm : Fault.summary) =
  let set a i = a.(i) <- true in
  List.iter (set e.hard_block) sm.Fault.sm_hard_block;
  List.iter (set e.corrupt_vertex) sm.Fault.sm_corrupt_vertex;
  List.iter (set e.corrupt_in) sm.Fault.sm_corrupt_in;
  List.iter (set e.corrupt_out) sm.Fault.sm_corrupt_out;
  List.iter (set e.kill_write) sm.Fault.sm_kill_write;
  List.iter (set e.kill_read) sm.Fault.sm_kill_read;
  List.iter (set e.mux_out_bad) sm.Fault.sm_mux_out;
  e.mux_in_bad <- sm.Fault.sm_mux_in @ e.mux_in_bad;
  e.locked_addr <- sm.Fault.sm_locked_addr @ e.locked_addr;
  e.stuck_shadow <- sm.Fault.sm_stuck_shadow @ e.stuck_shadow;
  e.glitch_shadow <- sm.Fault.sm_glitch_shadow @ e.glitch_shadow;
  if sm.Fault.sm_pi_dead then e.pi_dead <- true;
  if sm.Fault.sm_po_dead then e.po_dead <- true;
  e

let summarize ctx f =
  Fault.summarize ~port_masked:ctx.port_masked ctx.net f

let add_fault_effects ctx e (f : Fault.t) =
  add_summary_effects e (summarize ctx f)

let effects_of_faults ctx faults =
  List.fold_left (add_fault_effects ctx) (no_effects ctx) faults

let effects_of_fault ctx (f : Fault.t option) =
  effects_of_faults ctx (Option.to_list f)

(* Is an edge's data corrupted by the fault (mux data faults and the
   endpoint port faults)? *)
let edge_corrupt eff edge =
  (let bad = ref false in
   Array.iter
     (fun (m, k) ->
       if eff.mux_out_bad.(m) then bad := true
       else if List.mem (m, k) eff.mux_in_bad then bad := true)
     edge.e_muxes;
   !bad)
  || (edge.e_src >= 2 && eff.corrupt_out.(seg_of_v edge.e_src))
  || (edge.e_dst >= 2 && eff.corrupt_in.(seg_of_v edge.e_dst))

(* Can the muxes along an edge's route be steered to sensitize it, given
   the current set of writable segments?  A driver not (yet) writable must
   already hold the required value in its reset state (or be pinned to it
   by the fault). *)
let edge_steerable eff writable edge =
  (not edge.e_dead)
  && (eff.locked_addr = []
     ||
     let ok = ref true in
     Array.iter
       (fun (m', b', required) ->
         List.iter
           (fun (m, b, v) -> if m = m' && b = b' && v <> required then ok := false)
           eff.locked_addr)
       edge.e_addr_ports;
     !ok)
  &&
  let ok = ref true in
  Array.iter
    (fun (port, cseg, cbit, required, reset_matches) ->
      (* A port locked to the required value overrides its driver. *)
      let locked_right =
        List.exists (fun (m, b, v) -> (m, b) = port && v = required)
          eff.locked_addr
      in
      if not locked_right then begin
        (* Multi-fault effects can pin the same bit more than once — even
           to both values.  The check must not depend on effect order (the
           pair reduction relies on commutativity), so scan every entry:
           any pin to the wrong value defeats the requirement (two
           conflicting pins therefore kill the mux for both polarities), a
           pin to the required value satisfies it, and an unpinned bit
           falls back to the writability/reset rule. *)
        let pinned = ref false and wrong = ref false in
        List.iter
          (fun (s', b', v) ->
            if s' = cseg && b' = cbit then begin
              pinned := true;
              if v <> required then wrong := true
            end)
          eff.stuck_shadow;
        if !wrong then ok := false
        else if not !pinned then begin
          (* A transient upset replaces the bit's INITIAL value: a
             not-yet-writable host satisfies the requirement iff the
             value the bit actually starts at matches (the glitched
             value if upset, the reset value otherwise). *)
          let starts_right = ref reset_matches in
          (match eff.glitch_shadow with
          | [] -> ()
          | gl ->
              List.iter
                (fun (s', b', v) ->
                  if s' = cseg && b' = cbit then starts_right := v = required)
                gl);
          if (not writable.(cseg)) && not !starts_right then ok := false
        end
      end)
    edge.e_shadow_reqs;
  !ok

(* Vertex can shift data through (ports always; segments unless hard
   blocked). *)
let shiftable eff v = v < 2 || not eff.hard_block.(seg_of_v v)

(* Vertex passes data through uncorrupted. *)
let clean_through eff v = v < 2 || not (eff.corrupt_vertex.(seg_of_v v))

(* The one edge-admission rule of the scalar traversals: may a traversal
   towards scan-out ([fwd]) or towards scan-in cross edge [ei] into its
   far end?  Every traversal needs the edge steerable.  A [clean] one
   carries data that must arrive intact: the edge uncorrupted and the far
   vertex shiftable, and the edge's source passing data through clean —
   the near vertex forward (membership only needs clean data INTO a
   vertex; its own through-corruption matters when extending beyond it),
   the far vertex backward.  The non-clean prefix or suffix of an access
   only has to exist topologically: segments behind the target may hold
   frozen or corrupted data without affecting it. *)
let admits ctx eff writable ~fwd ~clean ei =
  let e = ctx.edges.(ei) in
  ((not clean)
  || (not (edge_corrupt eff e))
     && shiftable eff (if fwd then e.e_dst else e.e_src)
     && clean_through eff e.e_src)
  && edge_steerable eff writable e

(* Depth-first traversal from scan-in ([fwd]) or back from scan-out over
   the edges [admits] lets through: a stack, adjacency-list order, a
   vertex marked when pushed.  Forward traversals never enter scan-out,
   backward ones never scan-in (direct port-to-port edges don't matter
   for segment access), and a clean one reaches nothing from a dead
   port.  Returns the reached set and, per vertex, the edge it was
   reached by (-1 for the root and off-tree). *)
let traverse ctx eff writable ~fwd ~clean =
  let seen = Array.make ctx.nv false and parent = Array.make ctx.nv (-1) in
  let root, skip = if fwd then (v_pi, v_po) else (v_po, v_pi) in
  let rec go = function
    | [] -> ()
    | u :: stack ->
        go
          (List.fold_left
             (fun stack ei ->
               let e = ctx.edges.(ei) in
               let v = if fwd then e.e_dst else e.e_src in
               if (not seen.(v)) && v <> skip
                  && admits ctx eff writable ~fwd ~clean ei
               then begin
                 seen.(v) <- true;
                 parent.(v) <- ei;
                 v :: stack
               end
               else stack)
             stack
             (if fwd then ctx.out_edges.(u) else ctx.in_edges.(u)))
  in
  if not (clean && if fwd then eff.pi_dead else eff.po_dead) then begin
    seen.(root) <- true;
    go [ root ]
  end;
  (seen, parent)

let reached ctx eff writable ~fwd ~clean =
  fst (traverse ctx eff writable ~fwd ~clean)

(* The writability least fixpoint under [eff], with its founded
   certificate forest: each round runs a clean forward traversal from
   scan-in and an any-data backward one to scan-out under the writable
   set of the PREVIOUS rounds, and promotes every segment both reach
   (unless its write is killed).  A round's two trees are a concrete
   clean prefix and any-data suffix for each segment it promotes, and
   every not-reset-matching steering requirement on a round-k tree edge
   is hosted by a segment promoted at a round < k — the recursion the
   pair probe's fragility check relies on is well founded by
   construction. *)
type fixpoint = {
  fp_writable : bool array;
  fp_round_of : int array;  (* per segment, its round; -1 never writable *)
  fp_rounds : (int array * int array) array;
      (* per round, the forward and backward trees: per vertex, the edge
         into / out of it ([traverse]'s parents) *)
}

let fixpoint ctx eff =
  let w = Array.make ctx.nsegs false in
  let round_of = Array.make ctx.nsegs (-1) in
  let rec go round rounds =
    let rw, pre = traverse ctx eff w ~fwd:true ~clean:true in
    let s_any, suf = traverse ctx eff w ~fwd:false ~clean:false in
    let promoted = ref false in
    for s = 0 to ctx.nsegs - 1 do
      if (not w.(s)) && (not eff.kill_write.(s))
         && rw.(v_of_seg s) && s_any.(v_of_seg s)
      then begin
        w.(s) <- true;
        round_of.(s) <- round;
        promoted := true
      end
    done;
    if !promoted then go (round + 1) ((pre, suf) :: rounds)
    else Array.of_list (List.rev rounds)
  in
  let fp_rounds = go 0 [] in
  { fp_writable = w; fp_round_of = round_of; fp_rounds }

(* Readable: reached by any data from scan-in, a clean path on to
   scan-out, and the segment's own read and contents intact. *)
let readable_at eff ~r_any ~s_clean i =
  r_any.(v_of_seg i) && s_clean.(v_of_seg i)
  && (not eff.kill_read.(i))
  && not eff.corrupt_vertex.(i)

let verdict_of ctx eff writable ~r_any ~s_clean =
  let readable = Array.init ctx.nsegs (readable_at eff ~r_any ~s_clean) in
  let accessible = Array.init ctx.nsegs (fun i -> writable.(i) && readable.(i)) in
  { writable; readable; accessible }

let verdict_of_effects ctx eff =
  let writable = (fixpoint ctx eff).fp_writable in
  verdict_of ctx eff writable
    ~r_any:(reached ctx eff writable ~fwd:true ~clean:false)
    ~s_clean:(reached ctx eff writable ~fwd:false ~clean:true)

let analyze_multi ctx faults =
  verdict_of_effects ctx (effects_of_faults ctx faults)

let analyze ctx fault = analyze_multi ctx (Option.to_list fault)

let accessible_count v =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 v.accessible

let accessible_bits ctx v =
  let total = ref 0 in
  Array.iteri
    (fun i b -> if b then total := !total + Netlist.seg_len ctx.net i)
    v.accessible;
  !total

(* Dijkstra over dataflow vertices minimizing the scan-bit length of the
   path (the per-CSU shift-cycle count).  [edge_ok] filters usable edges
   by index.  Returns the predecessor array, or distances of unreached
   vertices as max_int. *)
let shortest_paths ctx ~src ~edge_ok =
  let n = ctx.nv in
  (* Detour edges carry a dominating penalty so that witnesses use the
     original routes whenever possible — this keeps fault-free retargeting
     plans (and access latency) identical to the original RSN's, as §IV of
     the paper requires. *)
  let detour_penalty = (4 * Netlist.total_bits ctx.net) + 16 in
  let weight v =
    if v < 2 then 0 else Netlist.seg_len ctx.net (seg_of_v v)
  in
  let dist = Array.make n max_int in
  let prev = Array.make n (-1) in
  (* prev_edge.(v) is the edge index used to reach v *)
  let prev_edge = Array.make n (-1) in
  let done_ = Array.make n false in
  dist.(src) <- 0;
  let continue = ref true in
  while !continue do
    (* O(V^2) selection: dataflow graphs here have a few thousand
       vertices at most. *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not done_.(v)) && dist.(v) < max_int
         && (!best < 0 || dist.(v) < dist.(!best))
      then best := v
    done;
    if !best < 0 then continue := false
    else begin
      let u = !best in
      done_.(u) <- true;
      List.iter
        (fun ei ->
          let e = ctx.edges.(ei) in
          let v = e.e_dst in
          if (not done_.(v)) && edge_ok ei then begin
            let d =
              dist.(u) + weight v
              + if e.e_detour then detour_penalty else 0
            in
            if d < dist.(v) then begin
              dist.(v) <- d;
              prev.(v) <- u;
              prev_edge.(v) <- ei
            end
          end)
        ctx.out_edges.(u)
    end
  done;
  (dist, prev, prev_edge)

type witness = {
  w_vertices : int list;             (** scan-in .. scan-out *)
  w_routes : (int * int) list list;  (** steering route per edge, in order *)
}

(* The witness through [target]: a minimum-bit prefix from scan-in to
   the target, then a minimum-bit suffix from the target to scan-out.
   Each leg is [(reached, clean)]: its edges join two vertices of the
   leg's traversal ([reached], forward for the prefix, backward for the
   suffix) and pass [admits] with the leg's cleanness. *)
let witness_path ctx eff writable ~target ~prefix ~suffix =
  let leg ~fwd (reached, clean) ei =
    let e = ctx.edges.(ei) in
    reached.(e.e_src) && reached.(e.e_dst)
    && admits ctx eff writable ~fwd ~clean ei
  in
  let _, pre_prev, pre_edge =
    shortest_paths ctx ~src:v_pi ~edge_ok:(leg ~fwd:true prefix)
  in
  let _, suf_prev, suf_edge =
    shortest_paths ctx ~src:target ~edge_ok:(leg ~fwd:false suffix)
  in
  let rec unwind prev prev_e v acc_v acc_e =
    if prev.(v) < 0 then
      if v = v_pi || v = target then Some (v :: acc_v, acc_e) else None
    else
      unwind prev prev_e prev.(v) (v :: acc_v)
        (ctx.edges.(prev_e.(v)).e_route :: acc_e)
  in
  match
    (unwind pre_prev pre_edge target [] [], unwind suf_prev suf_edge v_po [] [])
  with
  | Some (pre_v, pre_r), Some (_ :: suf_v, suf_r) ->
      Some { w_vertices = pre_v @ suf_v; w_routes = pre_r @ suf_r }
  | _ -> None

(* Write witness: a clean prefix into the target and an any-data suffix.
   It must be realizable BEFORE the target has ever been written, so its
   routes may not be steered by bits hosted in the target itself.  The
   fixpoint guarantees such a path exists: the target entered the
   writable set using only previously-writable hosts. *)
let access_witness ctx fault s =
  let eff = effects_of_fault ctx fault in
  let writable = Array.copy (fixpoint ctx eff).fp_writable in
  if not writable.(s) then None
  else begin
    writable.(s) <- false;
    let reach ~fwd ~clean = (reached ctx eff writable ~fwd ~clean, clean) in
    witness_path ctx eff writable ~target:(v_of_seg s)
      ~prefix:(reach ~fwd:true ~clean:true)
      ~suffix:(reach ~fwd:false ~clean:false)
  end

(* Read counterpart: an any-data prefix and a clean suffix.  Unlike the
   write witness, steering by the target's own bits is allowed here
   whenever the target is writable: the bit can be pre-written (a write
   needs no clean suffix), then the read follows.  An unwritable target
   is already excluded by the fixpoint. *)
let read_witness ctx fault s =
  let eff = effects_of_fault ctx fault in
  let writable = (fixpoint ctx eff).fp_writable in
  let r_any = reached ctx eff writable ~fwd:true ~clean:false in
  let s_clean = reached ctx eff writable ~fwd:false ~clean:true in
  if not (readable_at eff ~r_any ~s_clean s) then None
  else
    witness_path ctx eff writable ~target:(v_of_seg s)
      ~prefix:(r_any, false) ~suffix:(s_clean, true)

(* ---- fault-free baseline and cone-of-influence deltas ----

   The metric evaluates every fault of the universe against the same
   context, and most faults disturb only a small cone of the dataflow
   graph.  [baseline] precomputes the fault-free verdict plus the static
   reachability and dependency tables from which each fault's cone is
   derived; the lane kernel below seeds its fixpoint with the fault-free
   writable set minus the cone.  Exactness, not approximation: outside
   the cone the faulty least fixpoint provably coincides with the
   fault-free one, so the seeded verdict is bit-identical to
   [analyze]'s. *)

type baseline = {
  b_verdict : verdict;           (* fault-free analyze *)
  b_reach : Bitset.t array;
  b_coreach : Bitset.t array;
      (* per vertex v: the vertices reachable from v (reaching v), closed
         under the writability cascade — see [baseline] *)
  b_host_edges_all : int list array;
      (* per segment: edges with a shadow steering requirement hosted in
         the segment (any reset polarity) *)
  b_host_edges_nonreset : int list array;
      (* per segment: edges with a hosted requirement whose reset value
         does NOT match — the only requirements that consult the host's
         writability *)
  b_mux_edges : int list array;  (* per mux: edges routed through it *)
  b_steer : bool array;
      (* per edge: steerability in the fault-free network under the final
         fault-free writability — the "live" edges *)
  b_cyclic : bool;
      (* dataflow graph has a cycle: every tight analysis falls back to
         the coarse static cone *)
  b_live_out : int list array;
  b_live_in : int list array;
      (* per vertex: the baseline-steerable ("live") edges leaving /
         entering it — the subgraph every fault-free access uses *)
  b_live_reach : bool array;
      (* per vertex: reachable from scan-in over live edges.  In the
         fault-free network nothing is corrupted or blocked, so this is
         simultaneously the clean and the any-data forward traversal. *)
  b_live_coreach : bool array;  (* per vertex: reaches scan-out, ditto *)
  b_cert : fixpoint;
      (* the fault-free fixpoint's founded certificate forest: each
         segment's canonical prefix and suffix live in the trees of its
         round.  The probe replays it to decide which segments keep
         their baseline-canonical access under a fault. *)
  b_gain_pins : (int * int * bool, unit) Hashtbl.t;
  b_gain_locks : (int * int * bool, unit) Hashtbl.t;
      (* steering gains: the (segment, bit, value) pins and the (mux,
         address bit, value) locks that satisfy a not-reset-matching
         requirement whose host the baseline cannot write.  Such a pin
         or lock can turn a baseline-dead edge live.  Empty when the
         baseline writes every segment.  Read-only once built. *)
}

let baseline_verdict b = b.b_verdict

let baseline ctx =
  let eff0 = no_effects ctx in
  let b_cert = fixpoint ctx eff0 in
  let w = b_cert.fp_writable in
  let nv = ctx.nv in
  let b_host_edges_all = Array.make ctx.nsegs [] in
  let b_host_edges_nonreset = Array.make ctx.nsegs [] in
  let b_mux_edges = Array.make (Netlist.num_muxes ctx.net) [] in
  let b_gain_pins = Hashtbl.create 8 and b_gain_locks = Hashtbl.create 8 in
  Array.iteri
    (fun ei e ->
      let seen_all = ref [] and seen_nr = ref [] in
      Array.iter
        (fun ((m, b), cseg, cbit, required, reset_matches) ->
          if (not reset_matches) && not w.(cseg) then begin
            Hashtbl.replace b_gain_pins (cseg, cbit, required) ();
            Hashtbl.replace b_gain_locks (m, b, required) ()
          end;
          if not (List.mem cseg !seen_all) then begin
            seen_all := cseg :: !seen_all;
            b_host_edges_all.(cseg) <- ei :: b_host_edges_all.(cseg)
          end;
          if (not reset_matches) && not (List.mem cseg !seen_nr) then begin
            seen_nr := cseg :: !seen_nr;
            b_host_edges_nonreset.(cseg) <- ei :: b_host_edges_nonreset.(cseg)
          end)
        e.e_shadow_reqs;
      let seen_m = ref [] in
      Array.iter
        (fun (m, _) ->
          if not (List.mem m !seen_m) then begin
            seen_m := m :: !seen_m;
            b_mux_edges.(m) <- ei :: b_mux_edges.(m)
          end)
        e.e_muxes)
    ctx.edges;
  (* Cone tables.  The coarse cone of a fault (see [coarse_cone]) is the
     reach ∪ co-reach of its disturbed vertices, closed under the
     writability cascade: a cone segment i may change writability, which
     re-steers every edge e hosting a not-reset-matching requirement in
     i, so reach(dst e) ∪ co-reach(src e) joins the cone.  The rule fires
     per element, so the closure of a union is the union of the
     closures, and the closures of the per-vertex tables are the least
     solution of
       R*(v) = {v} ∪ K(v) ∪ ⋃ R*(succ v)
       C*(v) = {v} ∪ K(v) ∪ ⋃ C*(pred v)
       K(i)  = ⋃ over e hosted non-reset in i of R*(dst e) ∪ C*(src e).
     Kleene iteration from the plain reach tables: each pass unions K
     into the host vertices, then re-runs the topological DPs, until the
     total cardinality stops growing. *)
  let g =
    Digraph.of_edges ~n:nv
      (Array.to_list (Array.map (fun e -> (e.e_src, e.e_dst)) ctx.edges))
  in
  let b_reach = Array.init nv (fun _ -> Bitset.create nv) in
  let b_coreach = Array.init nv (fun _ -> Bitset.create nv) in
  let order_opt = Order.sort g in
  (match order_opt with
  | Some order ->
      (* Successors first for reach, predecessors first for co-reach. *)
      let dp () =
        for idx = nv - 1 downto 0 do
          let v = order.(idx) in
          Bitset.add b_reach.(v) v;
          List.iter
            (fun w -> Bitset.union_into b_reach.(v) b_reach.(w))
            (Digraph.succ g v)
        done;
        for idx = 0 to nv - 1 do
          let v = order.(idx) in
          Bitset.add b_coreach.(v) v;
          List.iter
            (fun u -> Bitset.union_into b_coreach.(v) b_coreach.(u))
            (Digraph.pred g v)
        done
      in
      let size () =
        Array.fold_left (fun n s -> n + Bitset.cardinal s) 0 b_reach
        + Array.fold_left (fun n s -> n + Bitset.cardinal s) 0 b_coreach
      in
      let k = Bitset.create nv in
      let rec close n =
        Array.iteri
          (fun i hosted ->
            if hosted <> [] then begin
              Bitset.clear k;
              List.iter
                (fun ei ->
                  let e = ctx.edges.(ei) in
                  Bitset.union_into k b_reach.(e.e_dst);
                  Bitset.union_into k b_coreach.(e.e_src))
                hosted;
              Bitset.union_into b_reach.(v_of_seg i) k;
              Bitset.union_into b_coreach.(v_of_seg i) k
            end)
          b_host_edges_nonreset;
        dp ();
        let n' = size () in
        if n' > n then close n'
      in
      dp ();
      close (size ())
  | None ->
      (* Cyclic dataflow (never produced by the synthesizer, but stay
         sound): every cone degenerates to the full network. *)
      Array.iter Bitset.fill b_reach;
      Array.iter Bitset.fill b_coreach);
  let b_steer = Array.map (edge_steerable eff0 w) ctx.edges in
  let b_live_out = Array.make nv [] in
  let b_live_in = Array.make nv [] in
  for ei = Array.length ctx.edges - 1 downto 0 do
    if b_steer.(ei) then begin
      let e = ctx.edges.(ei) in
      b_live_out.(e.e_src) <- ei :: b_live_out.(e.e_src);
      b_live_in.(e.e_dst) <- ei :: b_live_in.(e.e_dst)
    end
  done;
  (* With no corruption and no blocks the clean and the any-data
     traversals coincide, over exactly the live edges. *)
  let b_live_reach = reached ctx eff0 w ~fwd:true ~clean:false in
  let b_live_coreach = reached ctx eff0 w ~fwd:false ~clean:false in
  let b_verdict =
    verdict_of ctx eff0 w ~r_any:b_live_reach ~s_clean:b_live_coreach
  in
  {
    b_verdict;
    b_reach;
    b_coreach;
    b_host_edges_all;
    b_host_edges_nonreset;
    b_mux_edges;
    b_steer;
    b_cyclic = order_opt = None;
    b_live_out;
    b_live_in;
    b_live_reach;
    b_live_coreach;
    b_cert;
    b_gain_pins;
    b_gain_locks;
  }

(* Coarse static cone, as a set of dataflow vertices: data/steering
   damage at a vertex or edge taints everything downstream (reach) and
   upstream (co-reach); local interface damage (kill_write / kill_read)
   taints only the segment itself.  Through the writability cascade any
   edge steered by a not-reset-matching bit hosted in a tainted segment
   is damage too, because that segment's writability may have changed;
   the baseline tables are already closed under the cascade, so each
   contribution is a union of closed tables and the cone needs no
   iteration.  A sound over-approximation under ANY base state (the
   tables are static), which the tight probe below is not: it seeds
   every lane of the kernel, and it is the probe's answer for the
   summaries the probe refuses. *)
let coarse_cone ctx base (sm : Fault.summary) =
  let cv = Bitset.create ctx.nv in
  if sm.Fault.sm_pi_dead || sm.Fault.sm_po_dead then Bitset.fill cv
  else begin
    let add_edge ei =
      let e = ctx.edges.(ei) in
      Bitset.union_into cv base.b_reach.(e.e_dst);
      Bitset.union_into cv base.b_coreach.(e.e_src)
    in
    let through i =
      Bitset.union_into cv base.b_reach.(v_of_seg i);
      Bitset.union_into cv base.b_coreach.(v_of_seg i)
    in
    let local i =
      Bitset.add cv (v_of_seg i);
      List.iter add_edge base.b_host_edges_nonreset.(i)
    in
    List.iter through sm.Fault.sm_hard_block;
    List.iter through sm.Fault.sm_corrupt_vertex;
    List.iter through sm.Fault.sm_corrupt_in;
    List.iter through sm.Fault.sm_corrupt_out;
    List.iter local sm.Fault.sm_kill_write;
    List.iter local sm.Fault.sm_kill_read;
    let mux_edges m = List.iter add_edge base.b_mux_edges.(m) in
    List.iter mux_edges sm.Fault.sm_mux_out;
    List.iter (fun (m, _) -> mux_edges m) sm.Fault.sm_mux_in;
    List.iter (fun (m, _, _) -> mux_edges m) sm.Fault.sm_locked_addr;
    List.iter
      (fun (i, _, _) -> List.iter add_edge base.b_host_edges_all.(i))
      sm.Fault.sm_stuck_shadow
  end;
  cv

(* ---- what a summary needs: the one case analysis of fault shapes ----

   Every entry point (the single delta, the lane plan, the probe and the
   BMC cones) dispatches on [classify]:

   - [Benign]: the verdict is the baseline's, the cone empty;
   - [Kill]: the summary only kills readability ([read]), or only kills
     the writability of segments that host no not-reset-matching steering
     requirement.  kill_read is consulted only by the readable formula,
     and writability is consulted by steering only through those hosted
     requirements, so no traversal changes: the verdict is the baseline's
     with the killed segments cleared, and the cone is [segs];
   - [Glitch]: transient upsets can produce steering GAINS (a bit
     starting at the required value with an unwritable host) that the
     cone tables and the lane kernel do not model: they were built for
     faults that only ever degrade steering.  A full fixpoint gives the
     verdict, the exact verdict diff the cone, and the probe's
     interaction machinery is voided.  The transient universes are small
     (one class per shadow bit), so the fallback never dominates a sweep;
   - [Refused]: a lane fixpoint gives the verdict, but the probe's region
     analysis does not hold (dead scan ports, steering-improving pins or
     locks on unwritable hosts, cyclic dataflow) and the probe falls back
     to the coarse cone.  Dead-port classes ([port]), whose cones are the
     whole network and need extra rounds, batch apart from the rest.  A
     steering gain ([gain]) can make segments accessible that the
     baseline cannot reach, so its verdict is no pointwise bound on a
     pair's and its gate composes with nothing;
   - [Lane]: a lane fixpoint gives the verdict, and the probe is exact.

   The first three never occupy a lane. *)
type kind =
  | Benign
  | Kill of { read : bool; segs : int list }
  | Glitch
  | Refused of { port : bool; gain : bool }
  | Lane

let classify base (sm : Fault.summary) =
  if Fault.summary_benign sm then Benign
  else if sm.Fault.sm_glitch_shadow <> [] then Glitch
  else if
    sm.Fault.sm_kill_read <> []
    && Fault.summary_benign { sm with Fault.sm_kill_read = [] }
  then Kill { read = true; segs = sm.Fault.sm_kill_read }
  else if
    sm.Fault.sm_kill_write <> []
    && Fault.summary_benign { sm with Fault.sm_kill_write = [] }
    && List.for_all
         (fun i -> base.b_host_edges_nonreset.(i) = [])
         sm.Fault.sm_kill_write
  then Kill { read = false; segs = sm.Fault.sm_kill_write }
  else if sm.Fault.sm_pi_dead || sm.Fault.sm_po_dead then
    Refused { port = true; gain = false }
  else if
    List.exists (Hashtbl.mem base.b_gain_pins) sm.Fault.sm_stuck_shadow
    || List.exists (Hashtbl.mem base.b_gain_locks) sm.Fault.sm_locked_addr
  then Refused { port = false; gain = true }
  else if base.b_cyclic then Refused { port = false; gain = false }
  else Lane

(* ---- lanes ----

   A lane of the kernel below is a fault SET: the summaries of its
   faults (one for a single fault, two for a pair) and its coarse cone.
   The cone of a set is the union of its members' cones: [coarse_cone]
   fires per element (a union of closed tables per damaged site, a full
   set for a dead port on either side), so
   [coarse_cone (summary_union a b) = coarse_cone a ∪ coarse_cone b],
   and a sweep computes each class's cone once and unions per lane. *)

type lane = { ln_sms : Fault.summary list; ln_cone : Bitset.t }

let lane ctx base sm = { ln_sms = [ sm ]; ln_cone = coarse_cone ctx base sm }

let lane_union a b =
  let cone = Bitset.copy a.ln_cone in
  Bitset.union_into cone b.ln_cone;
  { ln_sms = a.ln_sms @ b.ln_sms; ln_cone = cone }

(* ---- lane-parallel batch sweeps: the cone-restricted kernel ----

   The metric evaluates thousands of collapsed classes against one
   context, and most classes disturb only a small cone of the dataflow
   graph.  One kernel computes every cone-restricted verdict: up to
   [Lanes.width] classes share ONE seeded fixpoint, every per-vertex /
   per-edge predicate becomes a machine word whose bit L answers lane
   L, and word-level AND/OR/ANDN replace the per-class boolean
   evaluation.  A single class is a one-lane call.  The word operations
   act lane-wise independently, so each lane runs exactly the
   semantics of [verdict_of_effects]:

   - the per-lane static effect masks below are the word transposition
     of [effects] ([add_summary_effects] projected onto segments,
     edges and the two port flags);
   - [steer_word] is [edge_steerable] lane-wise: a wrong lock or a
     constant contradiction kills the lane's edge outright, a lock on
     the required value waives the hosted requirement, a wrong pin
     defeats it even when the reset matches, a right pin satisfies it,
     and an untouched requirement falls back to the host's writability
     (or the reset value) — the pin/lock masks live in a sparse
     per-(edge, requirement) table materialized only for the edges the
     batch actually touches;
   - each lane's writability is seeded with the baseline writable set
     minus the lane's coarse cone ([coarse_cone]).  Outside the cone
     the faulty least fixpoint provably equals the baseline, so each
     seed starts at or below its lane's least fixpoint, and the
     monotone word iteration (writability and steerability only grow)
     converges to exactly the per-lane least fixpoints — lanes whose
     seed is already settled simply never promote (counted as
     [ls_masked]);
   - the two fixpoint traversals (clean forward reach, any-data
     backward co-reach) run once and are then only EXTENDED: steering
     only grows, so a round keeps the previous round's words and
     relaxes just the edges whose steering gained lanes.  Each round
     sees exactly the words a from-scratch pass would compute, so the
     rounds and promotions are those of the plain iteration, while a
     deep SIB hierarchy (one round per level) costs about two
     traversals instead of two per level;
   - the two final traversals produce all lanes' readable sets at once,
     and with the writable words one accessible-lane word per segment,
     from which a sweep counts every lane's accessible segments and bits
     without building per-lane verdicts ([fix_counts]).

   The per-lane verdicts are bit-identical to [analyze]'s —
   property-tested against it. *)

let lane_width = Lanes.width

type lane_stats = {
  ls_batches : int;  (* batch sweeps run *)
  ls_lanes : int;    (* lanes occupied across all batches *)
  ls_masked : int;   (* lanes settled at their cone seed: no promotion *)
  ls_fast : int;     (* classes answered by the O(1) fast paths instead *)
  ls_rounds : int;   (* fixpoint rounds across all batches *)
}

let lane_stats_zero =
  { ls_batches = 0; ls_lanes = 0; ls_masked = 0; ls_fast = 0; ls_rounds = 0 }

let lane_stats_add a b =
  {
    ls_batches = a.ls_batches + b.ls_batches;
    ls_lanes = a.ls_lanes + b.ls_lanes;
    ls_masked = a.ls_masked + b.ls_masked;
    ls_fast = a.ls_fast + b.ls_fast;
    ls_rounds = a.ls_rounds + b.ls_rounds;
  }

(* For a class [analyze_delta] answers without any traversal, the
   segments it kills: such a class changes any verdict only by clearing
   them.  [None] for the classes that need a fixpoint. *)
let lane_fast base sm =
  match classify base sm with
  | Benign -> Some [||]
  | Kill { segs; _ } -> Some (Array.of_list (List.sort_uniq compare segs))
  | Glitch | Refused _ | Lane -> None

(* The indices of a REVERSED list, in input order, in arrays of at most
   [lane_width]. *)
let chunk_lanes rev =
  let rec go acc cur n = function
    | [] -> if cur = [] then acc else List.rev cur :: acc
    | x :: rest ->
        if n = lane_width then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  List.rev_map Array.of_list (go [] [] 0 (List.rev rev))

(* Batch formation: the kinds that need no lane aside, the rest grouped
   so the dead-port classes (full-network cones, extra fixpoint rounds)
   don't drag the shallow batches, then chunked [lane_width] wide in
   input order (deterministic). *)
let lane_plan base (sms : Fault.summary array) =
  let fast = ref [] and general = ref [] and port = ref [] in
  Array.iteri
    (fun i sm ->
      let q =
        match classify base sm with
        | Benign | Kill _ | Glitch -> fast
        | Refused { port = true; _ } -> port
        | Refused { port = false; _ } | Lane -> general
      in
      q := i :: !q)
    sms;
  (List.rev !fast, chunk_lanes !general @ chunk_lanes !port)

(* One lane fixpoint over up to [lane_width] fault sets, rooted at the
   fault-free baseline.  Each lane's summaries fold at its own bit (the
   word transposition of [effects_of_faults]: [edge_steerable]'s entry
   checks are order-independent, so OR accumulation is exact even when
   two summaries of a lane pin the same shadow bit), and each lane's
   writability seed is the baseline writable set minus the lane's cone.
   Outside [coarse_cone] of the lane's union summary the faulty least
   fixpoint equals the baseline, so each seed starts at or below its
   lane's least fixpoint and the monotone word iteration converges to
   exactly it — whichever fault sets share the batch.  Besides the
   per-lane verdicts, the result exposes the per-segment accessible
   words and cone sizes, from which the sweeps count without building
   any verdict, and the settled per-edge steering and corruption words
   and the four final traversals, from which [probe_lane] reads a
   class's exact faulty state. *)
type lane_fix = {
  lf_verdict : int -> verdict * int;  (* lane -> verdict, cone size *)
  lf_acc : int array;      (* per segment, the lanes it is accessible in *)
  lf_cones : int array;    (* per lane, the cone size *)
  lf_stats : lane_stats;
  lf_steer : int array;    (* per edge, under the settled writability *)
  lf_corrupt : int array;  (* per edge *)
  lf_rw : Lanes.t;         (* clean reach from scan-in *)
  lf_r_any : Lanes.t;      (* any-data reach from scan-in *)
  lf_s_clean : Lanes.t;    (* clean co-reach to scan-out *)
  lf_s_any : Lanes.t;      (* any-data co-reach to scan-out *)
}

let lane_fix ctx base (lanes : lane array) =
  let k = Array.length lanes in
  if k = 0 || k > lane_width then
    invalid_arg "Engine.lane_fix: batch size";
  Array.iter
    (fun ln ->
      if List.exists (fun sm -> sm.Fault.sm_glitch_shadow <> []) ln.ln_sms
      then invalid_arg "Engine.lane_fix: glitch summary (full fixpoint only)")
    lanes;
  let occ = Lanes.lane_mask k in
  let nsegs = ctx.nsegs and nv = ctx.nv in
  let nedges = Array.length ctx.edges in
  (* Per-lane static effect masks: bit L set = the effect holds in lane
     L (the word transposition of [effects]). *)
  let hard_block_w = Array.make nsegs 0 in
  let corrupt_vertex_w = Array.make nsegs 0 in
  let kill_write_w = Array.make nsegs 0 in
  let kill_read_w = Array.make nsegs 0 in
  let corrupt_e = Array.make nedges 0 in
  let dead_e = Array.make nedges 0 in
  let pi_dead_w = ref 0 and po_dead_w = ref 0 in
  for ei = 0 to nedges - 1 do
    if ctx.edges.(ei).e_dead then dead_e.(ei) <- occ
  done;
  (* Sparse per-(edge, requirement) pin/lock masks, materialized only
     for the edges the batch's locks or pins touch. *)
  let req_masks = Array.make nedges None in
  let touch ei =
    match req_masks.(ei) with
    | Some m -> m
    | None ->
        let nr = Array.length ctx.edges.(ei).e_shadow_reqs in
        let m = (Array.make nr 0, Array.make nr 0, Array.make nr 0) in
        req_masks.(ei) <- Some m;
        m
  in
  let fold_summary bit (sm : Fault.summary) =
    let set_w a i = a.(i) <- a.(i) lor bit in
      List.iter (set_w hard_block_w) sm.Fault.sm_hard_block;
      List.iter (set_w corrupt_vertex_w) sm.Fault.sm_corrupt_vertex;
      List.iter (set_w kill_write_w) sm.Fault.sm_kill_write;
      List.iter (set_w kill_read_w) sm.Fault.sm_kill_read;
      List.iter
        (fun i -> List.iter (set_w corrupt_e) ctx.in_edges.(v_of_seg i))
        sm.Fault.sm_corrupt_in;
      List.iter
        (fun i -> List.iter (set_w corrupt_e) ctx.out_edges.(v_of_seg i))
        sm.Fault.sm_corrupt_out;
      List.iter
        (fun m -> List.iter (set_w corrupt_e) base.b_mux_edges.(m))
        sm.Fault.sm_mux_out;
      List.iter
        (fun (m, kk) ->
          List.iter
            (fun ei ->
              if
                Array.exists
                  (fun (m', k') -> m' = m && k' = kk)
                  ctx.edges.(ei).e_muxes
              then set_w corrupt_e ei)
            base.b_mux_edges.(m))
        sm.Fault.sm_mux_in;
      List.iter
        (fun (m, b, v) ->
          List.iter
            (fun ei ->
              let e = ctx.edges.(ei) in
              (* A lock to the wrong value kills the lane's edge
                 outright (the scalar check scans every addressed
                 port, shadow-driven or not). *)
              if
                Array.exists
                  (fun (m', b', required) -> m' = m && b' = b && required <> v)
                  e.e_addr_ports
              then set_w dead_e ei;
              (* A lock to the required value waives the hosted
                 requirement on that port. *)
              let lockr, _, _ = touch ei in
              Array.iteri
                (fun r ((m', b'), _, _, required, _) ->
                  if m' = m && b' = b && required = v then
                    lockr.(r) <- lockr.(r) lor bit)
                e.e_shadow_reqs)
            base.b_mux_edges.(m))
        sm.Fault.sm_locked_addr;
      List.iter
        (fun (cseg, cbit, v) ->
          List.iter
            (fun ei ->
              let e = ctx.edges.(ei) in
              let _, pinw, pinr = touch ei in
              Array.iteri
                (fun r (_, cseg', cbit', required, _) ->
                  if cseg' = cseg && cbit' = cbit then
                    if v <> required then pinw.(r) <- pinw.(r) lor bit
                    else pinr.(r) <- pinr.(r) lor bit)
                e.e_shadow_reqs)
            base.b_host_edges_all.(cseg))
        sm.Fault.sm_stuck_shadow;
      if sm.Fault.sm_pi_dead then pi_dead_w := !pi_dead_w lor bit;
      if sm.Fault.sm_po_dead then po_dead_w := !po_dead_w lor bit
  in
  (* Writability seeds: baseline writable everywhere, each lane's cone
     cleared, so each seed is at or below its lane's least fixpoint. *)
  let writable_w = Array.make nsegs 0 in
  let writable0 = base.b_verdict.writable in
  for i = 0 to nsegs - 1 do
    if writable0.(i) then writable_w.(i) <- occ
  done;
  let cone_lens = Array.make k 0 in
  Array.iteri
    (fun l ln ->
      let bit = 1 lsl l in
      List.iter (fold_summary bit) ln.ln_sms;
      let clear = lnot bit in
      let n = ref 0 in
      Bitset.iter
        (fun v ->
          if v >= 2 then begin
            let i = seg_of_v v in
            writable_w.(i) <- writable_w.(i) land clear;
            incr n
          end)
        ln.ln_cone;
      cone_lens.(l) <- !n)
    lanes;
  (* [edge_steerable] lane-wise, under the current writability words. *)
  let steer = Array.make nedges 0 in
  let steer_word ei =
    let e = ctx.edges.(ei) in
    let s = ref (occ land lnot dead_e.(ei)) in
    (match req_masks.(ei) with
    | None ->
        Array.iter
          (fun (_, cseg, _, _, reset_matches) ->
            if not reset_matches then s := !s land writable_w.(cseg))
          e.e_shadow_reqs
    | Some (lockr, pinw, pinr) ->
        Array.iteri
          (fun r (_, cseg, _, _, reset_matches) ->
            let sat =
              lockr.(r)
              lor (lnot pinw.(r)
                  land
                  if reset_matches then occ else pinr.(r) lor writable_w.(cseg))
            in
            s := !s land sat)
          e.e_shadow_reqs);
    !s
  in
  for ei = 0 to nedges - 1 do
    steer.(ei) <- steer_word ei
  done;
  (* Word-parallel worklist traversals.  A vertex re-enters the stack
     whenever its word grows, so one drain settles all lanes at once. *)
  let stack = Array.make nv 0 in
  let sp = ref 0 in
  let inq = Array.make nv false in
  let push v =
    if not inq.(v) then begin
      inq.(v) <- true;
      stack.(!sp) <- v;
      incr sp
    end
  in
  (* Lanes in which a vertex shifts / passes data through uncorrupted
     (ports always). *)
  let shift v = if v >= 2 then lnot hard_block_w.(seg_of_v v) else -1 in
  let pass v = if v >= 2 then lnot corrupt_vertex_w.(seg_of_v v) else -1 in
  (* The lanes that may leave vertex [u] along a traversal: in clean
     forward reach membership needs clean data INTO the vertex,
     extension beyond it also its through-cleanness ([admits] lane-wise,
     split between the near and the far end). *)
  let leaving ~fwd ~clean words u =
    let x = Lanes.get words u in
    if fwd && clean then x land pass u else x
  in
  (* Relax edge [ei] from its near end (source forward, destination
     backward), whose leaving lanes are [x], into its far end.  Forward
     traversals never enter scan-out, backward ones never scan-in; clean
     ones also need the edge uncorrupted and the far vertex shiftable,
     and backward its through-cleanness. *)
  let relax ~fwd ~clean words x ei =
    let e = ctx.edges.(ei) in
    let v = if fwd then e.e_dst else e.e_src in
    if v <> (if fwd then v_po else v_pi) then begin
      let add = x land steer.(ei) in
      let add =
        if not clean then add
        else
          add land lnot corrupt_e.(ei) land shift v
          land if fwd then -1 else pass v
      in
      if add <> 0 && Lanes.or_in words v add <> 0 then push v
    end
  in
  let drain ~fwd ~clean words =
    while !sp > 0 do
      decr sp;
      let u = stack.(!sp) in
      inq.(u) <- false;
      let x = leaving ~fwd ~clean words u in
      if x <> 0 then
        List.iter
          (fun ei -> relax ~fwd ~clean words x ei)
          (if fwd then ctx.out_edges.(u) else ctx.in_edges.(u))
    done
  in
  let traverse ~fwd ~clean start =
    let words = Lanes.create nv in
    let root = if fwd then v_pi else v_po in
    if start <> 0 then begin
      ignore (Lanes.or_in words root start);
      push root
    end;
    drain ~fwd ~clean words;
    words
  in
  (* Steering only grows, so a settled traversal stays valid: extend it
     across the edges whose steering gained lanes, then drain. *)
  let extend ~fwd ~clean words eis =
    List.iter
      (fun ei ->
        let e = ctx.edges.(ei) in
        let u = if fwd then e.e_src else e.e_dst in
        relax ~fwd ~clean words (leaving ~fwd ~clean words u) ei)
      eis;
    drain ~fwd ~clean words
  in
  let rw = traverse ~fwd:true ~clean:true (occ land lnot !pi_dead_w) in
  let s_any = traverse ~fwd:false ~clean:false occ in
  let promoted = ref 0 in
  let rounds = ref 0 in
  let not_pi = lnot !pi_dead_w in
  let rec settle () =
    incr rounds;
    let changed = ref false and grown = ref [] in
    for i = 0 to nsegs - 1 do
      let nw =
        Lanes.get rw (v_of_seg i)
        land Lanes.get s_any (v_of_seg i)
        land lnot kill_write_w.(i)
        land not_pi
        land lnot writable_w.(i)
        land occ
      in
      if nw <> 0 then begin
        writable_w.(i) <- writable_w.(i) lor nw;
        promoted := !promoted lor nw;
        changed := true;
        (* Only the not-reset-matching hosted requirements consult the
           host's writability — refresh exactly their edges. *)
        List.iter
          (fun ei ->
            let s = steer_word ei in
            if s <> steer.(ei) then begin
              steer.(ei) <- s;
              grown := ei :: !grown
            end)
          base.b_host_edges_nonreset.(i)
      end
    done;
    if !changed then begin
      extend ~fwd:true ~clean:true rw !grown;
      extend ~fwd:false ~clean:false s_any !grown;
      settle ()
    end
  in
  settle ();
  (* Final traversals under the settled steering: any-data forward
     reach (ignores dead ports), clean backward co-reach. *)
  let r_any = traverse ~fwd:true ~clean:false occ in
  let s_clean = traverse ~fwd:false ~clean:true (occ land lnot !po_dead_w) in
  let not_po = lnot !po_dead_w in
  let readable_w =
    Array.init nsegs (fun i ->
        Lanes.get r_any (v_of_seg i)
        land Lanes.get s_clean (v_of_seg i)
        land lnot kill_read_w.(i)
        land lnot corrupt_vertex_w.(i)
        land not_po land occ)
  in
  let acc_w = Array.mapi (fun i r -> writable_w.(i) land r) readable_w in
  let verdict l =
    let lane w = Array.map (fun x -> x land (1 lsl l) <> 0) w in
    ( {
        writable = lane writable_w;
        readable = lane readable_w;
        accessible = lane acc_w;
      },
      cone_lens.(l) )
  in
  {
    lf_verdict = verdict;
    lf_acc = acc_w;
    lf_cones = cone_lens;
    lf_stats =
      {
        ls_batches = 1;
        ls_lanes = k;
        ls_masked = Lanes.popcount (occ land lnot !promoted);
        ls_fast = 0;
        ls_rounds = !rounds;
      };
    lf_steer = steer;
    lf_corrupt = corrupt_e;
    lf_rw = rw;
    lf_r_any = r_any;
    lf_s_clean = s_clean;
    lf_s_any = s_any;
  }

(* The exact taint: segments whose verdict differs from the baseline's. *)
let verdict_diff ctx base v =
  let cs = Bitset.create ctx.nsegs in
  let v0 = base.b_verdict in
  for i = 0 to ctx.nsegs - 1 do
    if v.writable.(i) <> v0.writable.(i) || v.readable.(i) <> v0.readable.(i)
    then Bitset.add cs i
  done;
  cs

(* The verdict and cone size under summary [sm] of kind [k]: the
   baseline for a benign summary, the baseline with the killed segments
   cleared for a kill, a full fixpoint for a glitch, and a one-lane
   fixpoint otherwise.  Bit-identical to [analyze]. *)
let delta ctx base sm k =
  let v0 = base.b_verdict in
  match k with
  | Benign -> (v0, 0)
  | Kill { read; segs } ->
      let clear a =
        let a = Array.copy a in
        List.iter (fun i -> a.(i) <- false) segs;
        a
      in
      let accessible = clear v0.accessible in
      ( (if read then { v0 with readable = clear v0.readable; accessible }
         else { v0 with writable = clear v0.writable; accessible }),
        List.length segs )
  | Glitch ->
      let v =
        verdict_of_effects ctx (add_summary_effects (no_effects ctx) sm)
      in
      (v, Bitset.cardinal (verdict_diff ctx base v))
  | Refused _ | Lane -> (lane_fix ctx base [| lane ctx base sm |]).lf_verdict 0

let analyze_delta ctx base sm = delta ctx base sm (classify base sm)

let batch_verdicts fix = Array.init (Array.length fix.lf_cones) fix.lf_verdict

let analyze_batch ctx base lanes =
  let fix = lane_fix ctx base lanes in
  (batch_verdicts fix, fix.lf_stats)

type lane_count = { lc_segs : int; lc_bits : int; lc_cone : int }

let verdict_count ctx (v, cone) =
  {
    lc_segs = accessible_count v;
    lc_bits = accessible_bits ctx v;
    lc_cone = cone;
  }

(* Every lane's counts from the accessible words: a segment accessible
   in any lane is credited to all of them and debited from the lanes
   that miss it, so a segment settled alike in every lane costs one
   test. *)
let fix_counts ctx fix =
  let k = Array.length fix.lf_cones in
  let occ = Lanes.lane_mask k in
  let segs = Array.make k 0 and bits = Array.make k 0 in
  let all_segs = ref 0 and all_bits = ref 0 in
  Array.iteri
    (fun i w ->
      if w <> 0 then begin
        let len = Netlist.seg_len ctx.net i in
        incr all_segs;
        all_bits := !all_bits + len;
        let miss = ref (occ land lnot w) and l = ref 0 in
        while !miss <> 0 do
          if !miss land 1 <> 0 then begin
            segs.(!l) <- segs.(!l) + 1;
            bits.(!l) <- bits.(!l) + len
          end;
          miss := !miss lsr 1;
          incr l
        done
      end)
    fix.lf_acc;
  Array.init k (fun l ->
      {
        lc_segs = !all_segs - segs.(l);
        lc_bits = !all_bits - bits.(l);
        lc_cone = fix.lf_cones.(l);
      })

let count_batch ctx base lanes =
  let fix = lane_fix ctx base lanes in
  (fix_counts ctx fix, fix.lf_stats)

(* Lane sweep of many summaries: the kinds that need no lane through
   [analyze_delta], the rest batched by [lane_plan].  The two views
   share this dispatch: [fast] reads one [analyze_delta] result, [batch]
   runs one batch ([analyze_batch] or [count_batch]). *)
let lanes_of ctx base (sms : Fault.summary array) ~fast ~batch =
  let fast_idx, batches = lane_plan base sms in
  let fast_res =
    List.map (fun i -> (i, fast (analyze_delta ctx base sms.(i)))) fast_idx
  in
  let batches =
    List.map
      (fun idxs ->
        let xs, st =
          batch ctx base (Array.map (fun i -> lane ctx base sms.(i)) idxs)
        in
        (idxs, xs, st))
      batches
  in
  (* The result array is made last: filled while a batch allocates, it
     would be promoted by a minor collection and drag every result
     stored into it to the major heap. *)
  let out =
    match (fast_res, batches) with
    | [], [] -> [||]
    | (_, x) :: _, _ -> Array.make (Array.length sms) x
    | [], (_, xs, _) :: _ -> Array.make (Array.length sms) xs.(0)
  in
  List.iter (fun (i, x) -> out.(i) <- x) fast_res;
  let stats =
    List.fold_left
      (fun st (idxs, xs, bst) ->
        Array.iteri (fun j i -> out.(i) <- xs.(j)) idxs;
        lane_stats_add st bst)
      { lane_stats_zero with ls_fast = List.length fast_res }
      batches
  in
  (out, stats)

let analyze_lanes ctx base sms =
  lanes_of ctx base sms ~fast:Fun.id ~batch:analyze_batch

let count_lanes ctx base sms =
  lanes_of ctx base sms ~fast:(verdict_count ctx) ~batch:count_batch

let analyze_lanes_stats ctx ?base (classes : Fault.clas array) =
  let base = match base with Some b -> b | None -> baseline ctx in
  let out, stats =
    analyze_lanes ctx base (Array.map (fun c -> c.Fault.cls_summary) classes)
  in
  (Array.map fst out, stats)

(* ---- pair probes: exact taints and interaction regions ----

   The double-fault factorization needs, per fault class, (a) the EXACT
   set of segments whose verdict differs from the baseline (the tight
   cone — the coarse one is usually the whole network on scan
   topologies), and (b) a certificate region such that two classes with
   disjoint regions compose POINTWISE: every traversal under both faults
   is the AND of the single-fault traversals, hence every verdict bit is
   the AND of the single-fault verdict bits.

   The taint comes for free by diffing the class's verdict against the
   baseline.  The one-lane kernel run that computes the verdict also
   hands back the settled per-edge steerability/corruption words and
   its four final traversals, i.e. the exact faulty state — so the
   exact set of KILLED live edges (including the ones that died because a
   steering host lost its writability, transitively) is a linear scan,
   and the four access traversals under the fault need no traversal of
   their own.

   The region certifies non-interaction by induction along each
   traversal: for a vertex surviving both faults separately, one of its
   surviving in-edges must also survive the other fault — unless that
   edge was damaged by it (endpoints are in the region) or its tail lost
   the other traversal while the head survived (the head is then in the
   region as a traversal BOUNDARY).  So the region contains

   - both endpoints of every live edge the fault killed or corrupted,
   - the live neighborhoods of blocked / data-corrupting segments,
   - per traversal kind, every surviving vertex adjacent to a vertex
     that lost the traversal (the boundary — NOT the lost interior, so a
     trunk fault that wipes a whole co-reach cone exposes only the rim),
   - both endpoints of every live edge one of whose not-reset-matching
     steering requirements the fault PINS to its required value: such a
     pin changes nothing alone (the host is baseline-writable, else the
     probe refuses), but it can keep the edge alive when the OTHER fault
     kills the host's writability, making the combination strictly
     better than the AND.

   Purely local kill_write / kill_read summaries get an EMPTY region:
   they touch no traversal, their verdict change is already a pointwise
   conjunction, and it composes with any other fault.

   Note the taint is deliberately NOT part of the region: two faults may
   taint the same segment (say both kill its readability through distant
   damage) and still compose pointwise.  The pair sweep therefore
   combines counts with lost-list arithmetic rather than splicing.

   Disjoint regions alone do NOT suffice: writability is a least
   fixpoint, and two faults can each destroy the other's last FOUNDED
   support while every segment stays writable under either fault alone —
   fault i kills segment a's canonical derivation (a re-routes through an
   edge hosted by b), fault j kills b's (b re-routes through an edge
   hosted by a); under both, the two re-routes support only each other
   and the least fixpoint drops both, with no damage and no traversal
   boundary anywhere near a or b.  W_i AND W_j is a post-fixpoint of the
   combined steering operator but not the least one.

   The probe therefore also reports which segments became FRAGILE: still
   writable, but their baseline-canonical certificate (the founded
   prefix/suffix forest recorded in the baseline) was damaged, so their
   writability rests on a re-route whose foundedness the region argument
   cannot see.  A segment that keeps its canonical certificate under
   fault i AND under fault j keeps it under both (the certificate is
   shared and its hosts recurse at strictly smaller certificate rank),
   so it stays writable in the combined least fixpoint.

   For the fragile segments themselves the probe materializes a founded
   certificate under ITS OWN fault (the faulty fixpoint owns one — its
   rounds strictly decrease) and publishes the certificate paths' vertex
   footprint [pr_supp] and the set of steering hosts they rest on
   [pr_rhosts].  Such a re-route survives the PARTNER fault j too when
   (a) j's exact damage avoids the footprint — the certificate edges
   miss every baseline-live edge j kills or corrupts ([pr_dead_edges])
   and the certificate vertices miss every segment j blocks or turns
   corrupting ([pr_dmg]), so each re-route edge stays steerable and
   clean under j — and (b) every host stays writable under j with its
   canonical certificate intact (host not in j's writability losses and
   not in fragile_j), which by the shared-canonical argument keeps the
   host writable under BOTH.  Gating against j's exact damage rather
   than its whole region matters: region_j also collects undamaged rim
   vertices (traversal boundaries, endpoints of killed edges, pin
   guards) that a re-route may freely pass through.  Fragile hosts of
   re-routes are themselves fragile, so their own re-routes are in the
   footprint and the recursion stays founded by the faulty fixpoint's
   ranks.

   Hence the pair gate ([composes] below, over the probe's [gate]
   record): regions disjoint, each fault's [g_supp_edges] disjoint from
   the partner's [g_dead_edges], each fault's [g_supp] disjoint from the
   partner's [g_dmg], and each fault's [g_rhosts] disjoint from both the
   partner's fragile set and the partner's writability losses
   ([g_wlost]) — then W_combined =
   W_i AND W_j, the combined edge deaths are the union of the
   single-fault deaths, and the boundary induction above applies to
   every traversal. *)

type gate = {
  g_region : Bitset.t;
  g_fragile : Bitset.t;
  g_supp : Bitset.t;
  g_supp_edges : Bitset.t;
  g_rhosts : Bitset.t;
  g_dead_edges : Bitset.t;
  g_dmg : Bitset.t;
  g_wlost : Bitset.t;
  g_gain : bool;
}

type probe = {
  pr_verdict : verdict;
  pr_cone : Bitset.t;
  pr_coarse : bool;
  pr_gate : gate;
}

let composes a b =
  Bitset.disjoint a.g_region b.g_region
  && (not (a.g_gain || b.g_gain))
  && Bitset.disjoint a.g_supp_edges b.g_dead_edges
  && Bitset.disjoint b.g_supp_edges a.g_dead_edges
  && Bitset.disjoint a.g_supp b.g_dmg
  && Bitset.disjoint b.g_supp a.g_dmg
  && Bitset.disjoint a.g_rhosts b.g_fragile
  && Bitset.disjoint b.g_rhosts a.g_fragile
  && Bitset.disjoint a.g_rhosts b.g_wlost
  && Bitset.disjoint b.g_rhosts a.g_wlost

(* Baseline-writable segments the verdict no longer writes. *)
let wlost ctx base v =
  let w = Bitset.create ctx.nsegs in
  for s = 0 to ctx.nsegs - 1 do
    if base.b_verdict.writable.(s) && not v.writable.(s) then Bitset.add w s
  done;
  w

let seg_bitset ctx cv =
  let cs = Bitset.create ctx.nsegs in
  Bitset.iter (fun v -> if v >= 2 then Bitset.add cs (seg_of_v v)) cv;
  cs

(* The probes that need no lane of their own: a verdict and cone whose
   footprints are all empty (benign and purely local summaries: no
   edge, traversal or certificate is touched, so nothing is fragile)
   or, when [coarse], all full (the interaction machinery is voided).
   [None] for the summaries [probe_lane] answers. *)
let probe_short ctx base (sm : Fault.summary) =
  let k = classify base sm in
  let short ?(gain = false) ~coarse cone =
    let v = fst (delta ctx base sm k) in
    let fp n =
      let b = Bitset.create n in
      if coarse then Bitset.fill b;
      b
    in
    let nedges = Array.length ctx.edges in
    Some {
      pr_verdict = v;
      pr_cone = cone v;
      pr_coarse = coarse;
      pr_gate =
        {
          g_region = fp ctx.nv;
          g_fragile = fp ctx.nsegs;
          g_supp = fp ctx.nv;
          g_supp_edges = fp nedges;
          g_rhosts = fp ctx.nsegs;
          g_dead_edges = fp nedges;
          g_dmg = fp ctx.nv;
          g_wlost = wlost ctx base v;
          g_gain = gain;
        };
    }
  in
  match k with
  | Benign -> short ~coarse:false (fun _ -> Bitset.create ctx.nsegs)
  | Kill { segs; _ } ->
      short ~coarse:false (fun _ -> Bitset.of_list ctx.nsegs segs)
  | Glitch ->
      (* The interaction machinery is conservatively voided: upsets may
         create steering gains the no-gain certificate reasoning below
         assumes away.  Pair sweeps reject the transient model anyway
         ([Metric.evaluate_pairs]). *)
      short ~coarse:true (verdict_diff ctx base)
  | Refused { gain; _ } ->
      short ~gain ~coarse:true (fun _ ->
          seg_bitset ctx (coarse_cone ctx base sm))
  | Lane -> None

(* The probe of a summary that ran as lane [l] of [fix], unpacked from
   that lane: the verdict, the settled per-edge steerability /
   corruption, and the four access traversals under the faulty state
   (exact here: the probe refuses dead ports, which only the traversal
   roots would consult).  The lanes of a batch are independent, so lane
   [l] of a shared batch reads exactly what a one-lane call would. *)
let probe_lane ctx base (sm : Fault.summary) fix l =
  begin
    let eff = add_summary_effects (no_effects ctx) sm in
    let v, _ = fix.lf_verdict l in
    let bit x = (x lsr l) land 1 <> 0 in
    let edge_bits w = Array.map bit w in
    let vertex_bits t = Array.init ctx.nv (fun x -> bit (Lanes.get t x)) in
    let steer = edge_bits fix.lf_steer and corrupt = edge_bits fix.lf_corrupt in
    let rw = vertex_bits fix.lf_rw and r_any = vertex_bits fix.lf_r_any in
    let s_clean = vertex_bits fix.lf_s_clean in
    let s_any = vertex_bits fix.lf_s_any in
    let nedges = Array.length ctx.edges in
    let cs = verdict_diff ctx base v in
    let region = Bitset.create ctx.nv in
    let add_ei ei =
      let e = ctx.edges.(ei) in
      Bitset.add region e.e_src;
      Bitset.add region e.e_dst
    in
    (* Killed or corrupted live edges — [steer] is the exact faulty
       steerability, so writability-cascade deaths are included.
       [dead_edges] keeps the edge-granular set for the partner's
       re-route check. *)
    let dead_edges = Bitset.create nedges in
    for ei = 0 to nedges - 1 do
      if base.b_steer.(ei) && ((not steer.(ei)) || corrupt.(ei)) then begin
        Bitset.add dead_edges ei;
        add_ei ei
      end
    done;
    let dmg = Bitset.create ctx.nv in
    let vertex_damage w =
      Bitset.add region w;
      Bitset.add dmg w;
      List.iter
        (fun ei -> Bitset.add region ctx.edges.(ei).e_src)
        base.b_live_in.(w);
      List.iter
        (fun ei -> Bitset.add region ctx.edges.(ei).e_dst)
        base.b_live_out.(w)
    in
    List.iter (fun i -> vertex_damage (v_of_seg i)) sm.Fault.sm_hard_block;
    List.iter
      (fun i -> vertex_damage (v_of_seg i))
      sm.Fault.sm_corrupt_vertex;
    (* Traversal boundaries: surviving vertices adjacent (along a live
       edge) to a vertex that lost the traversal. *)
    for ei = 0 to nedges - 1 do
      if base.b_steer.(ei) then begin
        let e = ctx.edges.(ei) in
        let u = e.e_src and w = e.e_dst in
        if base.b_live_reach.(u) && w <> v_po then begin
          if (not rw.(u)) && rw.(w) then Bitset.add region w;
          if (not r_any.(u)) && r_any.(w) then Bitset.add region w
        end;
        if base.b_live_coreach.(w) && u <> v_pi then begin
          if (not s_any.(w)) && s_any.(u) then Bitset.add region u;
          if (not s_clean.(w)) && s_clean.(u) then Bitset.add region u
        end
      end
    done;
    (* Pinned-right steering requirements on live edges (see above). *)
    List.iter
      (fun (s, b, vv) ->
        List.iter
          (fun ei ->
            if base.b_steer.(ei) then begin
              let keep = ref false in
              Array.iter
                (fun (_, cseg, cbit, required, reset_matches) ->
                  if
                    cseg = s && cbit = b && required = vv
                    && not reset_matches
                  then keep := true)
                ctx.edges.(ei).e_shadow_reqs;
              if !keep then add_ei ei
            end)
          base.b_host_edges_all.(s))
      sm.Fault.sm_stuck_shadow;
    List.iter
      (fun (m, b, vv) ->
        List.iter
          (fun ei ->
            if base.b_steer.(ei) then begin
              let keep = ref false in
              Array.iter
                (fun (port, _, _, required, reset_matches) ->
                  if port = (m, b) && required = vv && not reset_matches
                  then keep := true)
                ctx.edges.(ei).e_shadow_reqs;
              if !keep then add_ei ei
            end)
          base.b_mux_edges.(m))
      sm.Fault.sm_locked_addr;
    (* Fragility: which segments keep their CANONICAL baseline
       certificate under the fault?  Replay the founded forest in round
       order.  [all_w] neutralizes [edge_steerable]'s host-writability
       fallback so [admits] checks only the syntactic steering conditions
       (dead edge, wrong pins, wrong locks) beside data integrity; hosted
       not-reset-matching requirements are then handled by [hosts_ok]
       through the founded recursion — the host's own certificate must
       have survived ([pclass]), unless the fault itself pins or locks
       the bit to its required value ([exempt]; any pin on the bit of a
       steerable edge is necessarily right). *)
    let all_w = Array.make ctx.nsegs true in
    let pclass = Array.make ctx.nsegs false in
    let exempt (port, cseg, cbit, required, _) =
      List.exists
        (fun (m, b, vv) -> (m, b) = port && vv = required)
        eff.locked_addr
      || List.exists (fun (s', b', _) -> s' = cseg && b' = cbit) eff.stuck_shadow
    in
    let hosts_ok e =
      Array.for_all
        (fun ((_, cseg, _, _, reset_matches) as req) ->
          reset_matches || pclass.(cseg) || exempt req)
        e.e_shadow_reqs
    in
    let pre_memo = Array.make ctx.nv 0 (* 0 unknown / 1 ok / 2 bad *) in
    let suf_memo = Array.make ctx.nv 0 in
    (* Iterative tree walk (certificate paths can be as long as the
       longest scan chain): ascend to the first memoized ancestor, then
       settle the collected chain root-side first. *)
    let walk memo parent next_v root edge_ok v0 =
      let chain = ref [] in
      let v = ref v0 in
      let known = ref None in
      while !known = None do
        if !v = root then known := Some true
        else if memo.(!v) = 1 then known := Some true
        else if memo.(!v) = 2 then known := Some false
        else begin
          chain := !v :: !chain;
          v := next_v parent.(!v)
        end
      done;
      let ok = ref (!known = Some true) in
      List.iter
        (fun u ->
          if !ok then ok := edge_ok parent.(u);
          memo.(u) <- (if !ok then 1 else 2))
        !chain;
      !ok
    in
    (* The prefix carries clean data into the target, the suffix only
       has to exist: the edge admissions of the fixpoint's two trees. *)
    let tree_edge_ok ~fwd ~clean ei =
      admits ctx eff all_w ~fwd ~clean ei && hosts_ok ctx.edges.(ei)
    in
    Array.iteri
      (fun round (pre_tree, suf_tree) ->
        Array.fill pre_memo 0 ctx.nv 0;
        Array.fill suf_memo 0 ctx.nv 0;
        for s = 0 to ctx.nsegs - 1 do
          if
            base.b_cert.fp_round_of.(s) = round
            && (not eff.kill_write.(s))
            && walk pre_memo pre_tree
                 (fun ei -> ctx.edges.(ei).e_src)
                 v_pi (tree_edge_ok ~fwd:true ~clean:true) (v_of_seg s)
            && walk suf_memo suf_tree
                 (fun ei -> ctx.edges.(ei).e_dst)
                 v_po (tree_edge_ok ~fwd:false ~clean:false) (v_of_seg s)
          then pclass.(s) <- true
        done)
      base.b_cert.fp_rounds;
    let fragile = Bitset.create ctx.nsegs in
    for s = 0 to ctx.nsegs - 1 do
      if v.writable.(s) && not pclass.(s) then Bitset.add fragile s
    done;
    (* Re-routed certificates: a fragile segment is still writable, so
       the FAULTY fixpoint owns a founded certificate for it.
       Materialize one ([fixpoint] under [eff], exactly like the
       baseline forest) and expose its vertex and edge footprints
       [supp] / [supp_edges] plus the steering hosts [rhosts] it rests
       on.  A partner fault whose exact damage (dead_edges, dmg)
       avoids the footprint and under which every such host keeps both
       its writability and its canonical certificate cannot disturb
       the re-route — [composes] checks exactly that,
       instead of pessimistically refusing every fragile class. *)
    let supp = Bitset.create ctx.nv in
    let supp_edges = Bitset.create nedges in
    let rhosts = Bitset.create ctx.nsegs in
    if not (Bitset.is_empty fragile) then begin
      let fx = fixpoint ctx eff in
      assert (fx.fp_writable = v.writable);
      let pre_done = Array.make ctx.nv false in
      let suf_done = Array.make ctx.nv false in
      (* Climb a tree from segment [s] to its root, footprinting every
         vertex and edge not yet climbed this round. *)
      let climb tree climbed root next s =
        let u = ref (v_of_seg s) in
        while !u <> root && not climbed.(!u) do
          climbed.(!u) <- true;
          Bitset.add supp !u;
          let ei = tree.(!u) in
          Bitset.add supp_edges ei;
          Array.iter
            (fun ((_, cseg, _, _, reset_matches) as req) ->
              if not (reset_matches || exempt req) then Bitset.add rhosts cseg)
            ctx.edges.(ei).e_shadow_reqs;
          u := next ctx.edges.(ei)
        done
      in
      Array.iteri
        (fun round (pre, suf) ->
          Array.fill pre_done 0 ctx.nv false;
          Array.fill suf_done 0 ctx.nv false;
          Bitset.iter
            (fun s ->
              if fx.fp_round_of.(s) = round then begin
                climb pre pre_done v_pi (fun e -> e.e_src) s;
                climb suf suf_done v_po (fun e -> e.e_dst) s
              end)
            fragile)
        fx.fp_rounds
    end;
    {
      pr_verdict = v;
      pr_cone = cs;
      pr_coarse = false;
      pr_gate =
        {
          g_region = region;
          g_fragile = fragile;
          g_supp = supp;
          g_supp_edges = supp_edges;
          g_rhosts = rhosts;
          g_dead_edges = dead_edges;
          g_dmg = dmg;
          g_wlost = wlost ctx base v;
          g_gain = false;
        };
    }
  end

let probe ctx base sm =
  match probe_short ctx base sm with
  | Some p -> p
  | None -> probe_lane ctx base sm (lane_fix ctx base [| lane ctx base sm |]) 0

(* The non-short probes share lane batches of [lane_width]; each probe
   goes to [f] as soon as it is built, so a caller that keeps only part
   of a probe never holds a whole batch of them. *)
let probes ctx base (sms : Fault.summary array) f =
  let pending = ref [] in
  Array.iteri
    (fun i sm ->
      match probe_short ctx base sm with
      | Some p -> f i p
      | None -> pending := i :: !pending)
    sms;
  List.iter
    (fun idxs ->
      let fix =
        lane_fix ctx base (Array.map (fun i -> lane ctx base sms.(i)) idxs)
      in
      Array.iteri (fun l i -> f i (probe_lane ctx base sms.(i) fix l)) idxs)
    (chunk_lanes !pending)

(* [probe]'s cone for each summary, case for case, without the
   interaction region the BMC path never reads.  The summaries the probe
   answers from an exact verdict diff share lane fixpoints: their
   verdicts come from one [analyze_lanes] call, bit-identical to
   [analyze_delta]'s. *)
let cones ctx base (sms : Fault.summary array) =
  let exact = ref [] in
  let out =
    Array.mapi
      (fun i sm ->
        match classify base sm with
        | Benign -> None
        | Kill { segs; _ } -> Some (Bitset.of_list ctx.nsegs segs)
        | Refused _ -> Some (seg_bitset ctx (coarse_cone ctx base sm))
        | Glitch | Lane ->
            exact := i :: !exact;
            None)
      sms
  in
  let exact = Array.of_list (List.rev !exact) in
  let vs, _ = analyze_lanes ctx base (Array.map (Array.get sms) exact) in
  Array.iteri
    (fun j i -> out.(i) <- Some (verdict_diff ctx base (fst vs.(j))))
    exact;
  out

(* Kept only for e2ebench, which times it by name ([engine.stack] in a
   traced [pairs] run), until it stops naming it. *)
let stack = analyze_delta
