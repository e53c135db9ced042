module Netlist = Ftrsn_rsn.Netlist
module Fault = Ftrsn_fault.Fault
module Expr = Ftrsn_boolexpr.Expr
module Solver = Ftrsn_sat.Solver
module Checker = Ftrsn_sat.Checker
module Order = Ftrsn_topo.Order

(* Condition under which an interconnect from an element to its consumer is
   sensitized. *)
type cond = C_true | C_sel of int * int  (* mux, input index *)

(* ---- static fault predicates, aligned with Engine.effects_of_fault ---- *)

type fsum = {
  pi_dead : bool;
  po_dead : bool;
  seg_scan_in : int -> bool;
  seg_scan_out : int -> bool;
  seg_shift : int -> bool;
  seg_sel0 : int -> bool;
  mux_out : int -> bool;
  mux_in : int -> int -> bool;  (* mux, input (classes applied) *)
  locked : int -> int -> bool option;  (* mux, addr bit *)
  pinned : int -> int -> bool option;  (* seg, shadow bit *)
  bit_conflict : int -> int -> bool;
      (* mux, addr bit: the effective control carries contradictory
         constants (locks to both values, or — when unlocked — the driving
         shadow bit pinned both ways).  Only multi-fault summaries can
         conflict; the mux is then unsensitizable, matching the structural
         engine's order-independent pin/lock checks. *)
  kill_write : int -> bool;
  kill_read : int -> bool;
  glitch : int -> int -> bool option;
      (* seg, shadow bit: transiently upset INITIAL value (transient
         fault model).  Only the step-0 state is affected: the unrolling
         starts from reset-with-these-bits-flipped, and the bits stay
         rewritable — the verdict is "does a reconfiguration sequence
         recover access after the glitch", the fault-active/fault-cleared
         phase split of the transient model. *)
}

(* Fault-cone taint: which circuit nodes can differ from the fault-free
   skeleton's.  The flags are step-independent — every unrolling step
   reads the same shared shadow/primary input expressions — so one set
   per fault serves all depths.  Conservative over-approximation: the
   taint only decides whether a fault's demand-driven circuits build an
   element's node themselves (hash-consing onto the skeleton wherever it
   happens to be equal) or return the skeleton's node without traversing
   it; an unflagged element provably has the identical node.  Computed
   by {!step_taint}. *)
type taint = {
  t_on : bool array;  (* indexed by element: on-path cone may differ *)
  t_dirty : bool array;  (* indexed by element: write-corruption cone *)
  t_dirty_in : bool array;  (* indexed by segment *)
  t_after : bool array;  (* indexed by element: read-corruption cone *)
}

(* Demand-driven circuits of one fault set (or of the fault-free
   skeleton) over every unrolling step: each node is built the first time
   it is read and memoized per (step, family, element).  The families are
   [on] (the element lies on the active path), [dirty_out] (corruption
   leaving it), [dirty_in] (a segment's write data corrupted) and [after]
   (corruption between its output and the scan-out).  With [c_reuse], an
   element outside the taint returns the skeleton's node. *)
type circuits = {
  c_fs : fsum;
  c_reuse : (taint * circuits) option;
  c_memo : (int, Expr.t) Hashtbl.t;
}

type verdict = Accessible of int | Inaccessible

type goal = G_write | G_read

(* A cone whose support the transitions' cone of influence follows: a
   segment's writability, or a goal on a target. *)
type cone = Writable of int | Goal of goal * int

(* The static model [t] is immutable; an incremental [session] holds the
   model it encodes, and every BMC query names its session. *)
type t = {
  net : Netlist.t;
  port_masked : int -> bool;              (* [Fault.port_mask_table] *)
  order : int array;                      (* element topological order *)
  consumers : (int * cond) list array;    (* per element id *)
  drivers : int array;                    (* per segment: driver element *)
  (* Shadow bits numbered flat: bit [b] of segment [s] is
     [bit_off.(s) + b], and [bit_seg] maps a flat bit to its segment. *)
  bit_off : int array;
  bit_seg : int array;
  max_hier : int;
}

type session = {
  model : t;
  solver : Solver.t;
  em : Expr.Cnf.emitter;
  sctx : Expr.ctx;
  (* Shared unrolling variables, grown monotonically with depth and reused
     by every fault and every query: shadows.(step).(seg).(bit), and one
     variable per (step, primary input). *)
  mutable shadows : Expr.t array array array;
  sprimaries : (int * string, Expr.t) Hashtbl.t;
  (* Fault-free skeleton: circuits encoded permanently (ungrouped) so
     every fault's cones hash-cons onto them and only the genuinely
     perturbed deltas live and die with a fault's group. *)
  base : circuits;
  (* Fault-free transition skeleton, shared by every fault and built one
     bit at a time, the first time any fault needs it:
     skeleton.(step).(bit) is the permanent literal of [writable \/ keep]
     from [step] into [step + 1] (0 = not built yet). *)
  mutable skeleton : int array array;
  (* Cone-of-influence supports, as flat shadow bits.  They are
     step-independent for steps >= 1 (step 0 reads only reset
     constants), so each is computed once, on the step-1 circuits: [bit1]
     maps a step-1 shadow variable to its flat bit.  The session caches
     the cones no fault perturbs; a fault caches its own tainted ones
     ([fe_support]). *)
  bit1 : (int, int) Hashtbl.t;
  base_support : (cone, int array) Hashtbl.t;
  (* Fault SETS are the encoding unit: [[]] is fault-free, singletons are
     the classic single-fault queries, two-element lists the double-fault
     sweep.  Only the last queried set is live; querying another retires
     it.  List order is the caller's; the metric's pair sweep always
     passes [rep_i; rep_j] with i < j, so keys stay canonical. *)
  mutable live : (Fault.t list * fault_enc) option;
  mutable queries : int;
  (* the fault-free verdicts of every segment, from the first
     [check_targets_base]; verdicts are deterministic per model, so a
     long-lived (pooled) session answers repeated baseline sweeps from
     this cache instead of re-solving them *)
  mutable base_cache : bool array option;
  cert : cert_state option;  (* Some = certified mode *)
}

(* Inline certification: the independent RUP checker mirrors the solver's
   proof events, and every Unsat verdict is certified on the spot by
   checking that the negated failed-assumption set is RUP. *)
and cert_state = {
  cc : Checker.t;
  mutable cc_inputs : int;   (* problem clauses mirrored *)
  mutable cc_lemmas : int;   (* derivations verified *)
  mutable cc_deletes : int;  (* deletion events forwarded *)
  mutable cc_unsat : int;    (* Unsat verdicts certified *)
  mutable cc_time : float;   (* CPU seconds spent in the checker *)
}

and fault_enc = {
  fe_act : int;                       (* activation gating this fault *)
  fe_fs : fsum;
  fe_taint : taint;                   (* cone that differs from the base *)
  fe_circuits : circuits;             (* reuses [base] outside the taint *)
  mutable fe_emitted : Bytes.t array;
      (* fe_emitted.(step), per flat bit: transition into [step] emitted *)
  fe_support : (cone, int array) Hashtbl.t;
}

let create (net : Netlist.t) =
  let n = Netlist.Elt.count net in
  let consumers = Array.make n [] in
  let drivers = Array.make (Netlist.num_segments net) 0 in
  Array.iteri
    (fun i (s : Netlist.segment) ->
      let d = Netlist.Elt.of_node net s.seg_input in
      drivers.(i) <- d;
      consumers.(d) <- (Netlist.Elt.of_seg i, C_true) :: consumers.(d))
    net.segs;
  Array.iteri
    (fun m (mx : Netlist.mux) ->
      Array.iteri
        (fun k inp ->
          let d = Netlist.Elt.of_node net inp in
          consumers.(d) <- (Netlist.Elt.of_mux net m, C_sel (m, k)) :: consumers.(d))
        mx.mux_inputs)
    net.muxes;
  let po_driver = Netlist.Elt.of_node net net.out_src in
  consumers.(po_driver) <- (Netlist.Elt.scan_out, C_true) :: consumers.(po_driver);
  let g = Netlist.element_graph net in
  let order =
    match Order.sort g with
    | Some o -> o
    | None -> invalid_arg "Bmc.create: cyclic netlist"
  in
  let widths = Array.map (fun (s : Netlist.segment) -> s.seg_shadow) net.segs in
  let bit_off = Array.make (Array.length widths) 0 in
  for i = 1 to Array.length widths - 1 do
    bit_off.(i) <- bit_off.(i - 1) + widths.(i - 1)
  done;
  let bit_seg = Array.make (Array.fold_left ( + ) 0 widths) 0 in
  Array.iteri (fun i w -> Array.fill bit_seg bit_off.(i) w i) widths;
  { net; port_masked = Fault.port_mask_table net; order; consumers; drivers;
    bit_off; bit_seg; max_hier = Netlist.max_hier net }

let no_fault =
  {
    pi_dead = false;
    po_dead = false;
    seg_scan_in = (fun _ -> false);
    seg_scan_out = (fun _ -> false);
    seg_shift = (fun _ -> false);
    seg_sel0 = (fun _ -> false);
    mux_out = (fun _ -> false);
    mux_in = (fun _ _ -> false);
    locked = (fun _ _ -> None);
    pinned = (fun _ _ -> None);
    bit_conflict = (fun _ _ -> false);
    kill_write = (fun _ -> false);
    kill_read = (fun _ -> false);
    glitch = (fun _ _ -> None);
  }

(* The predicates are derived from the fault's canonical semantic summary
   ({!Fault.summarize}), the single place the stuck-at case analysis
   lives.  A hard-blocked segment (select stuck-at-0) cannot shift: it is
   lost itself — the engine encodes this as an unreachable vertex, the
   BMC as kill_write/kill_read plus the seg_sel0 path predicate. *)
let of_summary (net : Netlist.t) (sm : Fault.summary) =
  if Fault.summary_benign sm then no_fault
  else
    let mem l i = List.mem i l in
    {
      pi_dead = sm.Fault.sm_pi_dead;
      po_dead = sm.Fault.sm_po_dead;
      seg_scan_in = mem sm.Fault.sm_corrupt_in;
      seg_scan_out = mem sm.Fault.sm_corrupt_out;
      seg_shift = mem sm.Fault.sm_corrupt_vertex;
      seg_sel0 = mem sm.Fault.sm_hard_block;
      mux_out = mem sm.Fault.sm_mux_out;
      mux_in =
        (fun m k ->
          let kc = Netlist.mux_input_class net m k in
          List.exists (fun (m', k') -> m' = m && k' = kc) sm.Fault.sm_mux_in);
      locked =
        (fun m b ->
          List.find_map
            (fun (m', b', v) -> if m' = m && b' = b then Some v else None)
            sm.Fault.sm_locked_addr);
      pinned =
        (fun s b ->
          List.find_map
            (fun (s', b', v) -> if s' = s && b' = b then Some v else None)
            sm.Fault.sm_stuck_shadow);
      bit_conflict =
        (fun m b ->
          let values sel l =
            List.filter_map sel l |> fun vs ->
            (List.mem true vs, List.mem false vs)
          in
          let lock_true, lock_false =
            values
              (fun (m', b', v) -> if m' = m && b' = b then Some v else None)
              sm.Fault.sm_locked_addr
          in
          if lock_true && lock_false then true
          else if lock_true || lock_false then false
            (* a single lock dominates any pin, as in the structural
               engine's locked_right override *)
          else
            match net.Netlist.muxes.(m).Netlist.mux_addr.(b) with
            | Netlist.Ctrl_shadow { cseg; cbit } ->
                let pin_true, pin_false =
                  values
                    (fun (s', b', v) ->
                      if s' = cseg && b' = cbit then Some v else None)
                    sm.Fault.sm_stuck_shadow
                in
                pin_true && pin_false
            | _ -> false);
      kill_write =
        (fun i -> mem sm.Fault.sm_kill_write i || mem sm.Fault.sm_hard_block i);
      kill_read =
        (fun i -> mem sm.Fault.sm_kill_read i || mem sm.Fault.sm_hard_block i);
      glitch =
        (fun s b ->
          List.find_map
            (fun (s', b', v) -> if s' = s && b' = b then Some v else None)
            sm.Fault.sm_glitch_shadow);
    }

(* Predicates of a SET of simultaneous faults ([[]] = fault-free): the
   canonical summaries merge via {!Fault.summary_union} before compiling,
   so both engines derive multi-fault effects from the same merged
   summary. *)
let summarize_faults t faults =
  match faults with
  | [] -> no_fault
  | _ ->
      of_summary t.net
        (List.fold_left
           (fun acc f ->
             Fault.summary_union acc
               (Fault.summarize ~port_masked:t.port_masked t.net f))
           Fault.empty_summary faults)

(* ---- circuits ---- *)

let step_taint t fs =
  let net = t.net in
  let n = Netlist.Elt.count net in
  (* A mux select cone differs when any address bit is locked, pinned
     (through its controlling shadow bit), or in conflict. *)
  let sel_taint = Array.make (Array.length net.Netlist.muxes) false in
  Array.iteri
    (fun m (mx : Netlist.mux) ->
      let width = Array.length mx.mux_addr in
      let rec diff b =
        b < width
        && (fs.bit_conflict m b
           || fs.locked m b <> None
           || (match mx.mux_addr.(b) with
              | Netlist.Ctrl_shadow { cseg; cbit } ->
                  (* A glitch perturbs only the step-0 circuits, but the
                     taint flags are per fault, not per step: flagging the
                     cone for every step is sound (steps >= 1 recompute
                     from the same shared variables and hash-cons onto
                     the identical skeleton nodes). *)
                  fs.pinned cseg cbit <> None || fs.glitch cseg cbit <> None
              | _ -> false)
           || diff (b + 1))
      in
      sel_taint.(m) <- diff 0)
    net.Netlist.muxes;
  let cond_taint = function
    | C_true -> false
    | C_sel (m, _) -> sel_taint.(m)
  in
  (* on: flows from scan-out toward producers (reverse topological). *)
  let t_on = Array.make n false in
  for idx = Array.length t.order - 1 downto 0 do
    let e = t.order.(idx) in
    if e <> Netlist.Elt.scan_out then
      t_on.(e) <-
        List.exists
          (fun (c, cond) -> t_on.(c) || cond_taint cond)
          t.consumers.(e)
  done;
  (* dirty: flows from scan-in toward consumers (topological). *)
  let t_dirty = Array.make n false in
  let t_dirty_in = Array.make (Netlist.num_segments net) false in
  Array.iter
    (fun e ->
      match Netlist.Elt.to_node net e with
      | Netlist.Scan_in -> t_dirty.(e) <- fs.pi_dead
      | Netlist.Scan_out -> ()
      | Netlist.Seg i ->
          t_dirty_in.(i) <- t_dirty.(t.drivers.(i)) || fs.seg_scan_in i;
          t_dirty.(e) <-
            t_dirty_in.(i) || fs.seg_shift i || fs.seg_scan_out i
            || fs.seg_sel0 i
      | Netlist.Mux m ->
          let mx = net.Netlist.muxes.(m) in
          let rec diff k =
            k < Array.length mx.mux_inputs
            && (t_dirty.(Netlist.Elt.of_node net mx.mux_inputs.(k))
               || fs.mux_in m k
               || diff (k + 1))
          in
          t_dirty.(e) <- sel_taint.(m) || fs.mux_out m || diff 0)
    t.order;
  (* after: backward again, but the damage constants live on the consumer
     side of each interconnect, and the path condition reads [on]. *)
  let local_taint c cond =
    match Netlist.Elt.to_node net c with
    | Netlist.Scan_out -> fs.po_dead
    | Netlist.Seg i ->
        fs.seg_scan_in i || fs.seg_shift i || fs.seg_scan_out i
        || fs.seg_sel0 i
    | Netlist.Mux m ->
        let k = match cond with C_sel (_, k) -> k | C_true -> 0 in
        fs.mux_in m k || fs.mux_out m
    | Netlist.Scan_in -> false
  in
  let t_after = Array.make n false in
  for idx = Array.length t.order - 1 downto 0 do
    let e = t.order.(idx) in
    if e <> Netlist.Elt.scan_out then
      t_after.(e) <-
        List.exists
          (fun (c, cond) ->
            t_on.(c) || t_after.(c) || cond_taint cond || local_taint c cond)
          t.consumers.(e)
  done;
  { t_on; t_dirty; t_dirty_in; t_after }

let circuits ?reuse fs = { c_fs = fs; c_reuse = reuse; c_memo = Hashtbl.create 64 }

let default_steps t = t.max_hier + 2

(* ---- incremental session ---- *)

type model = t

module Session = struct
  module Cnf = Expr.Cnf

  type t = session

  type cert_stats = {
    cert_unsat : int;
    cert_lemmas : int;
    cert_inputs : int;
    cert_deletes : int;
    cert_time : float;
  }

  type stats = {
    queries : int;
    clauses_emitted : int;
    nodes_reused : int;
    search : Solver.search_stats;
    cert : cert_stats option;
  }

  exception Certification_failed of string

  let create ?(certify = false) (model : model) =
    let solver = Solver.create () in
    let cert =
      if not certify then None
      else begin
        let cs =
          { cc = Checker.create (); cc_inputs = 0; cc_lemmas = 0;
            cc_deletes = 0; cc_unsat = 0; cc_time = 0.0 }
        in
        (* Only RUP verification is timed: [Sys.time] is a real syscall
           (~250 ns here), and wrapping the thousands of cheap mirror /
           delete events measurably slowed the certified sweeps — the
           timer would have cost more than the work it measured. *)
        Solver.set_proof_sink solver
          (Some
             (fun ev ->
               match ev with
               | Solver.P_input c ->
                   cs.cc_inputs <- cs.cc_inputs + 1;
                   Checker.add_clause cs.cc c
               | Solver.P_add c -> (
                   cs.cc_lemmas <- cs.cc_lemmas + 1;
                   let t0 = Sys.time () in
                   let r = Checker.add_lemma cs.cc c in
                   cs.cc_time <- cs.cc_time +. (Sys.time () -. t0);
                   match r with
                   | Ok () -> ()
                   | Error e ->
                       raise
                         (Certification_failed
                            ("Bmc.Session: proof rejected: " ^ e)))
               | Solver.P_delete c ->
                   cs.cc_deletes <- cs.cc_deletes + 1;
                   Checker.delete_clause cs.cc c));
        Some cs
      end
    in
    let em =
      Cnf.make_emitter
        {
          Cnf.fresh_var = (fun () -> Solver.new_var solver);
          add_clause =
            (fun under c ->
              match under with
              | Some act -> Solver.add_clause_under solver act c
              | None -> Solver.add_clause solver c);
        }
    in
    {
      model;
      solver;
      em;
      sctx = Expr.create ();
      shadows = [||];
      sprimaries = Hashtbl.create 64;
      base = circuits (summarize_faults model []);
      skeleton = [||];
      bit1 = Hashtbl.create 64;
      base_support = Hashtbl.create 64;
      live = None;
      queries = 0;
      base_cache = None;
      cert;
    }

  let certified (sess : t) = sess.cert <> None

  (* Certify one Unsat verdict: the negation of the failed-assumption set
     is the final clause of this query's proof — it must be derivable from
     the logged events by reverse unit propagation alone. *)
  let certify_unsat (sess : t) =
    match sess.cert with
    | None -> ()
    | Some cs ->
        let t0 = Sys.time () in
        let final =
          List.rev_map (fun l -> -l)
            (Solver.failed_assumptions sess.solver)
        in
        let ok = Checker.check_rup cs.cc final in
        cs.cc_time <- cs.cc_time +. (Sys.time () -. t0);
        if not ok then
          raise
            (Certification_failed
               (Printf.sprintf
                  "Bmc.Session: Unsat verdict not RUP-certifiable \
                   (final clause [%s])"
                  (String.concat " " (List.map string_of_int final))));
        cs.cc_unsat <- cs.cc_unsat + 1

  (* Shared step variables, allocated once and reused by every fault. *)
  let ensure_steps sess tstep =
    while Array.length sess.shadows <= tstep do
      let net = sess.model.net in
      let t0 = Array.length sess.shadows in
      let arr =
        Array.init (Netlist.num_segments net) (fun s ->
            Array.init net.Netlist.segs.(s).Netlist.seg_shadow (fun b ->
                if t0 = 0 then
                  Expr.const sess.sctx net.Netlist.segs.(s).Netlist.seg_reset.(b)
                else begin
                  let v = Expr.fresh_var sess.sctx in
                  if t0 = 1 then
                    Hashtbl.add sess.bit1
                      (Option.get (Expr.var_index v))
                      (sess.model.bit_off.(s) + b);
                  v
                end))
      in
      sess.shadows <- Array.append sess.shadows [| arr |]
    done

  let primary_var sess tstep p =
    match Hashtbl.find_opt sess.sprimaries (tstep, p) with
    | Some v -> v
    | None ->
        let v = Expr.fresh_var sess.sctx in
        Hashtbl.add sess.sprimaries (tstep, p) v;
        v

  (* Retire a fault's whole clause group: hard-assert the negation of its
     activation.  The gated clauses become inert forever — a retired fault
     is re-encoded from scratch (fresh activation) if it is ever queried
     again — and the solver deletes each
     group in O(group size), so sequential sweeps over a fault universe
     do not accumulate dead clauses in the watch lists. *)
  let retire_enc sess fe =
    Solver.retire_activation sess.solver fe.fe_act;
    (* The fault's Tseitin definitions died with its clause group; tell
       the emitter so shared cones get re-encoded if a later fault's
       circuits hash-cons onto them. *)
    Cnf.retire_owner sess.em fe.fe_act

  (* The per-fault-set encoding.  Switching to a different set retires the
     live one, so sequential sweeps over a fault universe keep the
     solver's live clause set bounded by one set's encoding (plus the
     Tseitin cones, which are shared across faults by hash-consing and by
     the emitter memo). *)
  let enc sess faults =
    match sess.live with
    | Some (live, fe) when live = faults -> fe
    | live ->
        Option.iter (fun (_, fe) -> retire_enc sess fe) live;
        let fs = summarize_faults sess.model faults in
        let taint = step_taint sess.model fs in
        let fe =
          {
            fe_act = Solver.new_activation sess.solver;
            fe_fs = fs;
            fe_taint = taint;
            fe_circuits = circuits ~reuse:(taint, sess.base) fs;
            fe_emitted = [||];
            fe_support = Hashtbl.create 8;
          }
        in
        sess.live <- Some (faults, fe);
        fe

  (* The demand-driven circuit builder.  A node is built on its first
     read and memoized in its circuits under (step, family, element);
     through [c_reuse], an element outside the fault's taint returns the
     skeleton's node (built on demand in turn) without being traversed.
     Transient faults start from the glitched state: the step-0 nodes
     read the upset constants instead of the shared reset constants;
     every later step reads the shared variables unchanged (the glitch
     has cleared — recovery is an ordinary fault-free
     reconfiguration). *)
  let memo sess c family tstep i build =
    let key =
      (((tstep * 4) + family) * Array.length sess.model.consumers) + i
    in
    match Hashtbl.find_opt c.c_memo key with
    | Some e -> e
    | None ->
        let e = build () in
        Hashtbl.add c.c_memo key e;
        e

  let shadow_at sess c tstep s b =
    match if tstep = 0 then c.c_fs.glitch s b else None with
    | Some v -> Expr.const sess.sctx v
    | None -> sess.shadows.(tstep).(s).(b)

  let sel_expr sess c tstep m k =
    let ctx = sess.sctx and fs = c.c_fs in
    let mx = sess.model.net.Netlist.muxes.(m) in
    let width = Array.length mx.Netlist.mux_addr in
    let bit_expr b =
      match fs.locked m b with
      | Some v -> Expr.const ctx v
      | None -> (
          match mx.Netlist.mux_addr.(b) with
          | Netlist.Ctrl_const v -> Expr.const ctx v
          | Netlist.Ctrl_primary p -> primary_var sess tstep p
          | Netlist.Ctrl_shadow { cseg; cbit } -> (
              match fs.pinned cseg cbit with
              | Some v -> Expr.const ctx v
              | None -> shadow_at sess c tstep cseg cbit))
    in
    let rec conflicted b = b < width && (fs.bit_conflict m b || conflicted (b + 1)) in
    if conflicted 0 then Expr.efalse ctx
    else
      Expr.and_list ctx
        (List.init width (fun b ->
             let e = bit_expr b in
             if k land (1 lsl b) <> 0 then e else Expr.not_ ctx e))

  let cond_expr sess c tstep = function
    | C_true -> Expr.etrue sess.sctx
    | C_sel (m, k) -> sel_expr sess c tstep m k

  (* on: from the scan-out toward the producers. *)
  let rec on sess c tstep e =
    match c.c_reuse with
    | Some (tt, base) when not tt.t_on.(e) -> on sess base tstep e
    | _ ->
        memo sess c 0 tstep e (fun () ->
            let ctx = sess.sctx in
            if e = Netlist.Elt.scan_out then Expr.etrue ctx
            else
              Expr.or_list ctx
                (List.map
                   (fun (d, cond) ->
                     Expr.and_ ctx (on sess c tstep d)
                       (cond_expr sess c tstep cond))
                   sess.model.consumers.(e)))

  (* dirty (write side): from the scan-in toward the consumers. *)
  let rec dirty_out sess c tstep e =
    match c.c_reuse with
    | Some (tt, base) when not tt.t_dirty.(e) -> dirty_out sess base tstep e
    | _ ->
        memo sess c 1 tstep e (fun () ->
            let ctx = sess.sctx and fs = c.c_fs and net = sess.model.net in
            match Netlist.Elt.to_node net e with
            | Netlist.Scan_in -> Expr.const ctx fs.pi_dead
            | Netlist.Scan_out -> Expr.efalse ctx
            | Netlist.Seg i ->
                Expr.or_list ctx
                  [
                    dirty_in sess c tstep i;
                    Expr.const ctx (fs.seg_shift i);
                    Expr.const ctx (fs.seg_scan_out i);
                    Expr.const ctx (fs.seg_sel0 i);
                  ]
            | Netlist.Mux m ->
                let mx = net.Netlist.muxes.(m) in
                let choices =
                  List.init (Array.length mx.mux_inputs) (fun k ->
                      let src = Netlist.Elt.of_node net mx.mux_inputs.(k) in
                      Expr.and_ ctx (sel_expr sess c tstep m k)
                        (Expr.or_ ctx (dirty_out sess c tstep src)
                           (Expr.const ctx (fs.mux_in m k))))
                in
                Expr.or_ ctx (Expr.or_list ctx choices)
                  (Expr.const ctx (fs.mux_out m)))

  and dirty_in sess c tstep i =
    match c.c_reuse with
    | Some (tt, base) when not tt.t_dirty_in.(i) -> dirty_in sess base tstep i
    | _ ->
        memo sess c 2 tstep i (fun () ->
            Expr.or_ sess.sctx
              (dirty_out sess c tstep sess.model.drivers.(i))
              (Expr.const sess.sctx (c.c_fs.seg_scan_in i)))

  (* after (read side): backward again; the damage constants live on the
     consumer side of each interconnect, and the path condition reads
     [on]. *)
  let rec after sess c tstep e =
    match c.c_reuse with
    | Some (tt, base) when not tt.t_after.(e) -> after sess base tstep e
    | _ ->
        memo sess c 3 tstep e (fun () ->
            let ctx = sess.sctx and fs = c.c_fs in
            if e = Netlist.Elt.scan_out then Expr.efalse ctx
            else
              Expr.or_list ctx
                (List.map
                   (fun (d, cond) ->
                     let local =
                       match Netlist.Elt.to_node sess.model.net d with
                       | Netlist.Scan_out -> fs.po_dead
                       | Netlist.Seg i ->
                           fs.seg_scan_in i || fs.seg_shift i
                           || fs.seg_scan_out i || fs.seg_sel0 i
                       | Netlist.Mux m ->
                           let k =
                             match cond with C_sel (_, k) -> k | C_true -> 0
                           in
                           fs.mux_in m k || fs.mux_out m
                       | Netlist.Scan_in -> false
                     in
                     (* Damage counts only along the branch the active
                        path actually takes: the consumer must be on the
                        path and the interconnect sensitized. *)
                     Expr.and_list ctx
                       [
                         on sess c tstep d;
                         cond_expr sess c tstep cond;
                         Expr.or_ ctx (Expr.const ctx local)
                           (after sess c tstep d);
                       ])
                   sess.model.consumers.(e)))

  (* Writability of a segment at one step: on the active path with clean
     write data, and not killed outright by the fault. *)
  let writable_of sess c tstep s =
    if c.c_fs.kill_write s then Expr.efalse sess.sctx
    else begin
      ensure_steps sess tstep;
      Expr.and_ sess.sctx
        (on sess c tstep (Netlist.Elt.of_seg s))
        (Expr.not_ sess.sctx (dirty_in sess c tstep s))
    end

  (* The goal at one step: the target on the active path, with clean write
     data (write) or an uncorrupted route to the scan-out (read). *)
  let goal_expr sess goal target c tstep =
    ensure_steps sess tstep;
    let e = Netlist.Elt.of_seg target in
    let corrupt =
      match goal with
      | G_write -> dirty_in sess c tstep target
      | G_read -> after sess c tstep e
    in
    Expr.and_ sess.sctx (on sess c tstep e) (Expr.not_ sess.sctx corrupt)

  (* A segment whose writability the fault can change: on its on-path or
     write-corruption cone, or killed.  Any other segment's writability is
     the fault-free skeleton's node (see {!step_taint}). *)
  let perturbed fe s =
    fe.fe_fs.kill_write s
    || fe.fe_taint.t_on.(Netlist.Elt.of_seg s)
    || fe.fe_taint.t_dirty_in.(s)

  let goal_tainted fe goal target =
    let tt = fe.fe_taint and e = Netlist.Elt.of_seg target in
    tt.t_on.(e)
    ||
    match goal with
    | G_write -> tt.t_dirty_in.(target)
    | G_read -> tt.t_after.(e)

  (* The flat shadow bits a cone reads at any step >= 1 (primary inputs
     are free at every step and constrain nothing), computed once on the
     step-1 circuits: in the session when no fault perturbs the cone,
     else in the fault's encoding. *)
  let support sess fe cone =
    let tainted, expr =
      match cone with
      | Writable s ->
          (perturbed fe s, fun () -> writable_of sess fe.fe_circuits 1 s)
      | Goal (goal, target) ->
          ( goal_tainted fe goal target,
            fun () -> goal_expr sess goal target fe.fe_circuits 1 )
    in
    let cache = if tainted then fe.fe_support else sess.base_support in
    match Hashtbl.find_opt cache cone with
    | Some bits -> bits
    | None ->
        let vars = Expr.support (expr ()) in
        let bits =
          Array.of_list (List.filter_map (Hashtbl.find_opt sess.bit1) vars)
        in
        Hashtbl.add cache cone bits;
        bits

  let keep_expr sess tstep s b cur =
    Expr.iff_ sess.sctx sess.shadows.(tstep + 1).(s).(b) cur

  (* The fault-free transition of one bit from [tstep] into [tstep + 1],
     encoded permanently (ungrouped) the first time any fault needs it,
     so every fault's cones hash-cons onto it.  The literal is a Tseitin
     definition only — it asserts nothing until a fault's group gates a
     unit clause on it. *)
  let skeleton_lit sess tstep i =
    let nbits = Array.length sess.model.bit_seg in
    while Array.length sess.skeleton <= tstep do
      sess.skeleton <- Array.append sess.skeleton [| Array.make nbits 0 |]
    done;
    let row = sess.skeleton.(tstep) in
    if row.(i) = 0 then begin
      let s = sess.model.bit_seg.(i) in
      let b = i - sess.model.bit_off.(s) in
      let w = writable_of sess sess.base tstep s in
      let keep = keep_expr sess tstep s b sess.shadows.(tstep).(s).(b) in
      row.(i) <- Cnf.lit sess.em (Expr.or_ sess.sctx w keep)
    end;
    row.(i)

  (* One transition clause (eq. 1 extended), gated by the fault's
     activation: bit [i] changes from [tstep] into [tstep + 1] only when
     its segment is on the active path with clean write data.  An
     unperturbed bit gates the skeleton literal itself; the others build
     their perturbed cone under the group, on top of the permanent
     skeleton cone so that only the genuine delta dies with the fault.  A
     glitched bit's step-0 value is the upset constant, not the shared
     reset constant. *)
  let emit_transition sess fe tstep i =
    let s = sess.model.bit_seg.(i) in
    let b = i - sess.model.bit_off.(s) in
    let skel = skeleton_lit sess tstep i in
    let glitch = if tstep = 0 then fe.fe_fs.glitch s b else None in
    let l =
      if (not (perturbed fe s)) && glitch = None then skel
      else
        let cur =
          match glitch with
          | Some v -> Expr.const sess.sctx v
          | None -> sess.shadows.(tstep).(s).(b)
        in
        Cnf.lit ~under:fe.fe_act sess.em
          (Expr.or_ sess.sctx
             (writable_of sess fe.fe_circuits tstep s)
             (keep_expr sess tstep s b cur))
    in
    Cnf.emit_clause ~under:fe.fe_act sess.em [ l ]

  (* Demand-driven transitions: before a solve at [depth], emit exactly
     the transitions in the goal's cone of influence (COI).  The cone
     starts from the goal's support at [depth] and is closed backwards: a
     bit at step [t] pulls in its own value and the support of its
     segment's faulty writability at [t - 1].  Step 0 is reset constants.
     Through the own-value chain the cone holds the goal's support at
     every step [1 .. depth], which the descent reads in the model.  Bits
     outside the cone feed nothing the goal reads, and every transition
     lets a bit keep its value, so a model of the cone extends to a full
     trace by stuttering them: the answer is exact.  Each (step, bit) is
     emitted at most once per fault. *)
  let ensure_coi sess fe goal target depth =
    let nbits = Array.length sess.model.bit_seg in
    ensure_steps sess depth;
    while Array.length fe.fe_emitted <= depth do
      fe.fe_emitted <- Array.append fe.fe_emitted [| Bytes.make nbits '\000' |]
    done;
    let stack = Stack.create () in
    let need t i =
      if Bytes.get fe.fe_emitted.(t) i = '\000' then begin
        Bytes.set fe.fe_emitted.(t) i '\001';
        Stack.push (t, i) stack
      end
    in
    if depth >= 1 then
      Array.iter (need depth) (support sess fe (Goal (goal, target)));
    while not (Stack.is_empty stack) do
      let t, i = Stack.pop stack in
      emit_transition sess fe (t - 1) i;
      if t >= 2 then begin
        need (t - 1) i;
        Array.iter (need (t - 1))
          (support sess fe (Writable sess.model.bit_seg.(i)))
      end
    done

  let lit_value sess l =
    if l > 0 then Solver.value sess.solver l
    else not (Solver.value sess.solver (-l))

  (* Value of an expression variable in the model of the last Sat answer.
     Only variable literals are read: a node literal may belong to a
     retired clause group, whose definitions no longer constrain it.  A
     variable that never reached the solver is unconstrained and reads as
     false, exactly as in the one-shot encoding. *)
  let var_value sess e =
    match Cnf.find_lit sess.em e with
    | None -> false
    | Some l -> lit_value sess l

  (* Decode the model of a Sat answer into the witness configuration
     sequence of steps [0 .. steps].  A bit whose transition into a step
     was never emitted (outside every cone queried under the fault) keeps
     its value from the step before — from the glitched start state at
     step 1 — so the sequence is a valid trace. *)
  let decode sess fe steps =
    let rows = Array.make (steps + 1) [||] in
    rows.(0) <- Array.map (Array.map Expr.is_true) sess.shadows.(0);
    for tstep = 1 to steps do
      let prev s b =
        match (tstep, fe.fe_fs.glitch s b) with
        | 1, Some v -> v
        | _ -> rows.(tstep - 1).(s).(b)
      in
      let emitted = fe.fe_emitted.(tstep) in
      rows.(tstep) <-
        Array.mapi
          (fun s vars ->
            Array.mapi
              (fun b e ->
                if Bytes.get emitted (sess.model.bit_off.(s) + b) = '\001' then
                  var_value sess e
                else prev s b)
              vars)
          sess.shadows.(tstep)
    done;
    List.init (steps + 1) (fun tstep ->
        let shadows = rows.(tstep) in
        let primaries =
          Hashtbl.fold
            (fun (ts, p) e acc ->
              if ts <> tstep then acc
              else
                match Cnf.find_lit sess.em e with
                | None -> acc
                | Some l -> (p, lit_value sess l) :: acc)
            sess.sprimaries []
        in
        { Ftrsn_rsn.Config.shadows; primaries })

  (* The model of the last Sat answer as an environment over expression
     variables. *)
  let model_env sess i = var_value sess (Expr.var sess.sctx i)

  (* The earliest step in [1 .. depth] at which the goal holds in the model
     of a Sat answer at [depth], evaluated over the variables' values. *)
  let earliest sess fe goal target depth =
    let rec go i =
      if
        i >= depth
        || Expr.eval (model_env sess)
             (goal_expr sess goal target fe.fe_circuits i)
      then i
      else go (i + 1)
    in
    go 1

  (* The one solve kernel: decide [goal] at [depth] under the fault set
     [fe] for every target in [pending], and return the targets met and
     those unmet.  A target whose faulty goal folds to true is met without
     a solve.  Every other one gets its cone of influence, its permanent
     skeleton goal literal and its gated goal literal, once.  Then each
     solve gates the one clause [-a \/ goals of the pending targets] by a
     fresh activation [a]: Sat meets every pending target whose goal holds
     on the model's variable values (at least one must; a lone target's
     clause is its own goal literal, so it needs no evaluation), and the
     rest stay pending for the next solve; Unsat, certified once, leaves
     every pending target unmet at this depth.  [on_sat] runs on each Sat
     answer while its model is still live.  The round clause goes
     straight to the solver: it is not part of the circuit encoding, and
     [a] is retired after its solve. *)
  let round ?(on_sat = ignore) sess fe goal depth pending =
    let goals =
      List.map
        (fun t -> (t, goal_expr sess goal t fe.fe_circuits depth))
        pending
    in
    let folded, open_ = List.partition (fun (_, ge) -> Expr.is_true ge) goals in
    let open_ =
      List.map
        (fun (t, ge) ->
          ensure_coi sess fe goal t depth;
          (* Permanent fault-free goal cone first (shared skeleton), then
             this fault's gated delta. *)
          ignore (Cnf.lit sess.em (goal_expr sess goal t sess.base depth));
          (t, ge, Cnf.lit ~under:fe.fe_act sess.em ge))
        open_
    in
    let rec solve met = function
      | [] -> (met, [])
      | pending -> (
          let a = Solver.new_activation sess.solver in
          Solver.add_clause_under sess.solver a
            (List.map (fun (_, _, l) -> l) pending);
          sess.queries <- sess.queries + 1;
          let target (t, _, _) = t in
          match Solver.solve ~assumptions:[ fe.fe_act; a ] sess.solver with
          | Solver.Sat ->
              let now, rest =
                match pending with
                | [ _ ] -> (pending, [])
                | _ ->
                    let holds = Expr.evaluator (model_env sess) in
                    List.partition (fun (_, ge, _) -> holds ge) pending
              in
              if now = [] then
                failwith "Bmc.Session: a Sat answer meets no pending goal";
              on_sat ();
              Solver.retire_activation sess.solver a;
              solve (List.rev_append (List.map target now) met) rest
          | Solver.Unsat ->
              certify_unsat sess;
              Solver.retire_activation sess.solver a;
              (met, List.map target pending))
    in
    solve (List.map fst folded) open_

  (* Minimal-depth search for one goal, on the round kernel.  The
     unrolling is monotone — every transition allows a bit to keep its
     value, so a trace can always stutter — so one Unsat at a depth
     settles every shallower one.  Depth 0 first (the common case, no
     transitions needed); then the bound, whose Unsat means Inaccessible;
     then, on Sat, descend: with [e] the earliest step at which the
     model meets the goal, decide at [e - 1].  Unsat there makes [e] the
     minimal depth, Sat gives an earlier [e]; depth 0 is already known
     Unsat.  So a goal costs at most two Unsat answers, whatever the
     bound. *)
  let check_goal ?(want_witness = false) sess faults goal ~max_steps ~target =
    let fe = enc sess faults in
    let fs = fe.fe_fs in
    let statically_dead =
      match goal with
      | G_write -> fs.kill_write target || fs.pi_dead
      | G_read -> fs.kill_read target || fs.po_dead
    in
    (* [Some (e, witness)] when the goal is met at [depth]: [e] is the
       earliest step at which the Sat model meets it, and the witness is
       the model's trace up to [e], decoded before the next solve
       overwrites the model.  A goal that folds to true needs no model:
       it holds on the trace that stays at reset. *)
    let met depth =
      let sat = ref None in
      let on_sat () =
        let e = if depth = 0 then 0 else earliest sess fe goal target depth in
        sat := Some (e, if want_witness then decode sess fe e else [])
      in
      match round ~on_sat sess fe goal depth [ target ] with
      | [], _ -> None
      | _ when !sat <> None -> !sat
      | _ ->
          let reset = Ftrsn_rsn.Config.reset sess.model.net in
          Some
            ( depth,
              if want_witness then List.init (depth + 1) (fun _ -> reset)
              else [] )
    in
    let rec descend (e, w) =
      match if e = 1 then None else met (e - 1) with
      | None -> (Accessible e, w)
      | Some m -> descend m
    in
    if statically_dead || max_steps < 0 then (Inaccessible, [])
    else
      match met 0 with
      | Some (_, w) -> (Accessible 0, w)
      | None -> (
          match if max_steps = 0 then None else met max_steps with
          | None -> (Inaccessible, [])
          | Some m -> descend m)

  let steps_for sess max_steps =
    Option.value ~default:(default_steps sess.model) max_steps

  let check_write sess ?fault ?max_steps ~target () =
    let max_steps = steps_for sess max_steps in
    fst (check_goal sess (Option.to_list fault) G_write ~max_steps ~target)

  let check_read sess ?fault ?max_steps ~target () =
    let max_steps = steps_for sess max_steps in
    fst (check_goal sess (Option.to_list fault) G_read ~max_steps ~target)

  let write_witness sess ?fault ?max_steps ~target () =
    let max_steps = steps_for sess max_steps in
    match
      check_goal ~want_witness:true sess (Option.to_list fault) G_write
        ~max_steps ~target
    with
    | Accessible n, configs -> Some (n, configs)
    | Inaccessible, _ -> None

  let check_access sess ?fault ?max_steps ~target () =
    let faults = Option.to_list fault in
    let max_steps = steps_for sess max_steps in
    match fst (check_goal sess faults G_write ~max_steps ~target) with
    | Inaccessible -> Inaccessible
    | Accessible w -> (
        match fst (check_goal sess faults G_read ~max_steps ~target) with
        | Inaccessible -> Inaccessible
        | Accessible r -> Accessible (max w r))

  (* Batched access decisions: no depth, so each goal is two rounds of
     the kernel over all its targets at once — depth 0, then the bound
     over the targets still unmet — and a whole batch costs at most four
     Unsat answers.  The read goal is decided for the write-met targets
     only; the static kills take a target out without a solve.  An empty
     target list encodes nothing. *)
  let check_targets_multi sess ?max_steps ~faults targets =
    let max_steps = steps_for sess max_steps in
    let read = Hashtbl.create 16 in
    (match targets with
    | [] -> ()
    | _ when max_steps < 0 -> ()
    | _ ->
        let fe = enc sess faults in
        let fs = fe.fe_fs in
        let decide goal dead pending =
          match List.filter (fun t -> not (dead t)) pending with
          | [] -> []
          | pending ->
              let met, unmet = round sess fe goal 0 pending in
              if max_steps = 0 then met
              else
                List.rev_append (fst (round sess fe goal max_steps unmet)) met
        in
        let written =
          decide G_write (fun t -> fs.pi_dead || fs.kill_write t) targets
        in
        List.iter
          (fun t -> Hashtbl.replace read t ())
          (decide G_read (fun t -> fs.po_dead || fs.kill_read t) written));
    Array.of_list (List.map (Hashtbl.mem read) targets)

  let check_targets_base sess =
    match sess.base_cache with
    | Some vs -> vs
    | None ->
        let vs =
          check_targets_multi sess ~faults:[]
            (List.init (Netlist.num_segments sess.model.net) Fun.id)
        in
        sess.base_cache <- Some vs;
        vs

  let solver sess = sess.solver

  let reuse_mismatches sess faults ~steps =
    let fs = summarize_faults sess.model faults in
    let reused = circuits ~reuse:(step_taint sess.model fs, sess.base) fs in
    let plain = circuits fs in
    ensure_steps sess steps;
    let n = Array.length sess.model.consumers in
    let nsegs = Netlist.num_segments sess.model.net in
    let out = ref [] in
    for tstep = steps downto 0 do
      List.iter
        (fun (family, count, node) ->
          for i = count - 1 downto 0 do
            if
              not
                (Expr.equal (node sess reused tstep i)
                   (node sess plain tstep i))
            then out := (tstep, family, i) :: !out
          done)
        [ ("on", n, on); ("dirty_in", nsegs, dirty_in); ("after", n, after) ]
    done;
    !out

  let stats sess =
    let em, ru = Cnf.emitter_stats sess.em in
    {
      queries = sess.queries;
      clauses_emitted = em;
      nodes_reused = ru;
      search = Solver.search_stats sess.solver;
      cert =
        Option.map
          (fun cs ->
            { cert_unsat = cs.cc_unsat; cert_lemmas = cs.cc_lemmas;
              cert_inputs = cs.cc_inputs; cert_deletes = cs.cc_deletes;
              cert_time = cs.cc_time })
          sess.cert;
    }
end
