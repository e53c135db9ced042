(* Minisat-2.2/Glucose-style CDCL.  Internals use 0-based variables and
   literals packed as [2*var + sign] (sign 1 = negated); the external API
   speaks DIMACS.
   Invariants:
   - clauses of length >= 3 watch exactly their first two literals:
     watches.(l) is a flat vector of (clause, blocker) entries for the
     clauses with watched literal [lit_neg l], where the blocker is some
     other literal of the clause — if the blocker is true the clause is
     satisfied and the entry is skipped without touching the clause;
   - binary clauses live in bin_watches.(l) as (clause, other) entries and
     never migrate: when l becomes true, [other] is either satisfied,
     propagated, or the conflict — no watch search, no literal-array scan;
   - the trail is a stack of assigned literals; qhead marks the propagation
     frontier;
   - level.(v) / reason.(v) are meaningful only while v is assigned;
   - whenever a clause is some variable's reason, its implied literal is at
     position 0 (propagation only swaps lits 0/1 while lits.(0) is false);
   - deleted clauses are dropped lazily from the watcher vectors during
     propagation. *)

type clause = {
  mutable lits : int array;
  mutable learnt : bool;
      (* flips to false exactly once, when a learnt clause subsumes a
         problem clause and must take over its constraint role *)
  mutable act : float;
  mutable lbd : int;       (* literal block distance at learn time, refreshed
                              downward whenever the clause resolves a
                              conflict; 0 for problem clauses *)
  mutable deleted : bool;
  mutable csig : int;
      (* subsumption signature: one bit per variable (mod word size);
         [c] can only subsume [d] when [csig c land lnot (csig d) = 0] *)
}

let dummy_clause =
  { lits = [||]; learnt = false; act = 0.0; lbd = 0; deleted = true; csig = 0 }

let clause_sig lits =
  Array.fold_left (fun acc l -> acc lor (1 lsl ((l lsr 1) land 62))) 0 lits

(* Flat resizable watcher vector: parallel clause / literal payload arrays.
   For long-clause watchers the payload is the blocker literal; for binary
   watchers it is the other (implied) literal of the pair. *)
type watchlist = {
  mutable wc : clause array;
  mutable wb : int array;
  mutable wlen : int;
}

let new_watchlist () = { wc = [||]; wb = [||]; wlen = 0 }

let wpush wl c b =
  let n = Array.length wl.wc in
  if wl.wlen = n then begin
    let ncap = max 4 (2 * n) in
    let nc = Array.make ncap dummy_clause and nb = Array.make ncap 0 in
    Array.blit wl.wc 0 nc 0 n;
    Array.blit wl.wb 0 nb 0 n;
    wl.wc <- nc;
    wl.wb <- nb
  end;
  wl.wc.(wl.wlen) <- c;
  wl.wb.(wl.wlen) <- b;
  wl.wlen <- wl.wlen + 1

(* DRUP-style proof events, in DIMACS literals.  [P_input] is a problem
   clause exactly as the caller supplied it (before deduplication and
   level-0 strengthening) so an external checker sees a formula that is a
   superset of the attached clause database; [P_add] is a clause derivable
   from the events so far by reverse unit propagation (learnt clauses —
   already minimized, which self-subsuming resolution keeps RUP —
   root-level implied units, and the empty clause when the instance
   becomes unsatisfiable); [P_delete] retracts an attached clause. *)
type proof_event =
  | P_input of int list
  | P_add of int list
  | P_delete of int list

(* One bounded-variable-elimination event.  [ev_side] snapshots the
   deleted clauses that contained the positive literal [ev_lit = 2*ev_var]
   (internal literals, as at deletion time): model reconstruction sets the
   variable true iff one of them has every other literal false.  [ev_all]
   keeps every deleted problem clause in DIMACS form so a later mention of
   the variable can revive them verbatim as fresh inputs. *)
type elim = {
  ev_var : int;
  ev_lit : int;
  mutable ev_dead : bool;
  ev_side : int array list;
  ev_all : int list list;
}

type t = {
  mutable nvars : int;
  mutable assign : int array;        (* -1 undef / 0 false / 1 true, per var *)
  mutable level : int array;         (* decision level, per var *)
  mutable reason : clause array;
      (* [dummy_clause] = no reason (decision / assumption / level 0);
         avoids a [Some] allocation per propagated literal *)
  mutable watches : watchlist array;     (* per literal, length >= 3 clauses *)
  mutable bin_watches : watchlist array; (* per literal, binary clauses *)
  mutable activity : float array;    (* per var *)
  mutable polarity : bool array;     (* saved phase, per var *)
  mutable heap : int array;          (* binary max-heap of vars *)
  mutable heap_pos : int array;      (* position in heap, -1 if absent *)
  mutable heap_len : int;
  mutable trail : int array;         (* literals *)
  mutable trail_len : int;
  mutable qhead : int;
  mutable trail_lim : int array;     (* trail length at each decision *)
  mutable n_levels : int;
  mutable learnts : clause array;    (* growable; may hold deleted slots *)
  mutable n_learnts : int;           (* used slots of [learnts] *)
  mutable probs : clause array;
      (* every attached problem clause (growable; may hold deleted
         slots).  Simplification passes need to enumerate the problem
         database, which otherwise lives only in the watch lists. *)
  mutable n_probs : int;             (* used slots of [probs] *)
  mutable n_problem : int;
  mutable n_learnt : int;            (* live learnt clauses *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable unsat_at_root : bool;
  mutable have_model : bool;
      (* A [Sat] answer needs no model snapshot: [solve] backtracks to the
         root before returning, which saves every popped assignment in
         [polarity], and nothing moves [assign]/[polarity] again until the
         next mutation — which clears this flag.  [value] reads the root
         assignment if any, the saved phase otherwise. *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_lits : int;         (* learnt literals before minimization *)
  mutable minimized_lits : int;      (* literals removed by minimization *)
  mutable db_reductions : int;
  mutable simp_subsumed : int;       (* clauses deleted by subsumption *)
  mutable simp_strengthened : int;   (* literals removed by self-subsumption *)
  mutable simp_eliminated : int;     (* variables eliminated (cumulative) *)
  mutable simp_vivified : int;       (* literals removed by vivification *)
  mutable simp_passes : int;         (* completed inprocessing passes *)
  mutable seen : bool array;         (* scratch for conflict analysis *)
  mutable lbd_mark : int array;      (* per level: stamp for LBD counting *)
  mutable lbd_tick : int;
  mutable failed : int list;         (* failed assumptions of the last Unsat *)
  groups : (int, clause list ref) Hashtbl.t;
      (* activation var -> clauses gated by it, for O(group) retirement *)
  mutable occurs : int array;
      (* per var: number of live attached clauses containing it.  A var
         with no occurrences is unconstrained: the search never decides
         it and the model reports its saved phase.  This is what makes
         retiring a clause group actually cheap — the group's private
         variables stop costing decision and propagation time. *)
  mutable frozen : bool array;
      (* per var: never eliminated.  Activation literals and every
         variable that has ever been assumed are frozen — the session
         layer may assume them again, and an eliminated variable has no
         clauses left to constrain an assumption. *)
  mutable elimed : bool array;       (* per var: currently eliminated *)
  mutable revived : bool array;
      (* per var: was eliminated once and then revived by a later
         mention.  Such variables are shared with future clauses (e.g. a
         session's unrolling variables, touched by every fault's delta),
         so re-eliminating them would thrash: eliminate, revive on the
         next batch, re-derive the resolvents, forever.  One revival
         disqualifies the variable from BVE for good. *)
  mutable elim_stack : elim list;    (* newest first *)
  mutable proof_sink : (proof_event -> unit) option;
  (* feature switches (test hooks, inprocessing ablation) *)
  mutable cfg_learnt_limit : int option;
  mutable cfg_inprocess : bool;
      (* When off, [inprocess] is a no-op — callers schedule passes
         unconditionally and this switch is the single ablation point. *)
}

let create () =
  {
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 dummy_clause;
    watches = Array.init 32 (fun _ -> new_watchlist ());
    bin_watches = Array.init 32 (fun _ -> new_watchlist ());
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    heap = Array.make 16 0;
    heap_pos = Array.make 16 (-1);
    heap_len = 0;
    trail = Array.make 16 0;
    trail_len = 0;
    qhead = 0;
    trail_lim = Array.make 16 0;
    n_levels = 0;
    learnts = [||];
    n_learnts = 0;
    probs = [||];
    n_probs = 0;
    n_problem = 0;
    n_learnt = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    unsat_at_root = false;
    have_model = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_lits = 0;
    minimized_lits = 0;
    db_reductions = 0;
    simp_subsumed = 0;
    simp_strengthened = 0;
    simp_eliminated = 0;
    simp_vivified = 0;
    simp_passes = 0;
    seen = Array.make 16 false;
    lbd_mark = Array.make 16 0;
    lbd_tick = 0;
    failed = [];
    groups = Hashtbl.create 16;
    occurs = Array.make 16 0;
    frozen = Array.make 16 false;
    elimed = Array.make 16 false;
    revived = Array.make 16 false;
    elim_stack = [];
    proof_sink = None;
    cfg_learnt_limit = None;
    cfg_inprocess = true;
  }

let num_vars s = s.nvars
let num_clauses s = s.n_problem
let stats s = (s.conflicts, s.decisions, s.propagations)

type search_stats = {
  st_conflicts : int;
  st_decisions : int;
  st_propagations : int;
  st_restarts : int;
  st_learnt_lits : int;
  st_minimized_lits : int;
  st_reductions : int;
  st_learnt_db : int;
  st_subsumed : int;
  st_strengthened_lits : int;
  st_eliminated_vars : int;
  st_vivified_lits : int;
  st_simp_passes : int;
}

let search_stats s =
  {
    st_conflicts = s.conflicts;
    st_decisions = s.decisions;
    st_propagations = s.propagations;
    st_restarts = s.restarts;
    st_learnt_lits = s.learnt_lits;
    st_minimized_lits = s.minimized_lits;
    st_reductions = s.db_reductions;
    st_learnt_db = s.n_learnt;
    st_subsumed = s.simp_subsumed;
    st_strengthened_lits = s.simp_strengthened;
    st_eliminated_vars = s.simp_eliminated;
    st_vivified_lits = s.simp_vivified;
    st_simp_passes = s.simp_passes;
  }

let set_learnt_limit s n = s.cfg_learnt_limit <- n
let set_inprocess s b = s.cfg_inprocess <- b
let set_proof_sink s sink = s.proof_sink <- sink

(* Root unsatisfiability is the proof's terminal fact: the first time it
   is established, the empty clause is RUP and gets logged once. *)
let set_root_unsat s =
  if not s.unsat_at_root then begin
    s.unsat_at_root <- true;
    match s.proof_sink with None -> () | Some f -> f (P_add [])
  end

(* ---- variable order heap (max-heap on activity) ---- *)

(* Sift the var at slot [i] up/down to restore the max-heap-on-activity
   order.  Hot (every decision pops, every backtracked assignment may
   reinsert), so both walks are iterative, hold the moving var in a
   register and write each vacated slot once; the unsafe accesses are
   bounded by heap_len <= length heap and vars < length activity. *)
let heap_up s i =
  let act = s.activity and heap = s.heap and pos = s.heap_pos in
  let v = Array.unsafe_get heap i in
  let av = Array.unsafe_get act v in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let w = Array.unsafe_get heap p in
    if av > Array.unsafe_get act w then begin
      Array.unsafe_set heap !i w;
      Array.unsafe_set pos w !i;
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

let heap_down s i =
  let act = s.activity and heap = s.heap and pos = s.heap_pos in
  let n = s.heap_len in
  let v = Array.unsafe_get heap i in
  let av = Array.unsafe_get act v in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && Array.unsafe_get act (Array.unsafe_get heap r)
             > Array.unsafe_get act (Array.unsafe_get heap l)
        then r
        else l
      in
      let w = Array.unsafe_get heap c in
      if Array.unsafe_get act w > av then begin
        Array.unsafe_set heap !i w;
        Array.unsafe_set pos w !i;
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_len = Array.length s.heap then
      s.heap <- Array.append s.heap (Array.make (max 16 s.heap_len) 0);
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_len > 0 then begin
    let w = s.heap.(s.heap_len) in
    s.heap.(0) <- w;
    s.heap_pos.(w) <- 0;
    heap_down s 0
  end;
  v

let heap_update s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* ---- variable allocation ---- *)

let grow_to s n =
  let old = Array.length s.assign in
  if n > old then begin
    let cap = max n (2 * old) in
    let extend a fill = Array.append a (Array.make (cap - old) fill) in
    s.assign <- extend s.assign (-1);
    s.level <- extend s.level 0;
    s.reason <- extend s.reason dummy_clause;
    s.activity <- extend s.activity 0.0;
    s.polarity <- extend s.polarity false;
    s.seen <- extend s.seen false;
    s.occurs <- extend s.occurs 0;
    s.frozen <- extend s.frozen false;
    s.elimed <- extend s.elimed false;
    s.revived <- extend s.revived false;
    s.heap_pos <- extend s.heap_pos (-1);
    s.trail <- extend s.trail 0;
    s.trail_lim <- extend s.trail_lim 0;
    let oldw = Array.length s.watches in
    let extra = (2 * cap) - oldw in
    s.watches <-
      Array.append s.watches (Array.init extra (fun _ -> new_watchlist ()));
    s.bin_watches <-
      Array.append s.bin_watches (Array.init extra (fun _ -> new_watchlist ()))
  end

let new_var s =
  grow_to s (s.nvars + 1);
  let v = s.nvars in
  s.nvars <- s.nvars + 1;
  heap_insert s v;
  v + 1

let ensure_vars s n =
  while s.nvars < n do
    ignore (new_var s)
  done

(* ---- literal helpers ---- *)

let lit_of_dimacs s d =
  if d = 0 then invalid_arg "Sat.Solver: zero literal";
  let v = abs d in
  ensure_vars s v;
  if d > 0 then 2 * (v - 1) else (2 * (v - 1)) + 1

let lit_var l = l lsr 1
let lit_neg l = l lxor 1
let dimacs_of_lit l = if l land 1 = 0 then (l lsr 1) + 1 else -((l lsr 1) + 1)
let dimacs_list lits = Array.to_list (Array.map dimacs_of_lit lits)

(* Proof events are built only when a sink listens: without one, proof
   logging allocates nothing. *)
let log_unit s l =
  match s.proof_sink with None -> () | Some f -> f (P_add [ dimacs_of_lit l ])

let log_add s lits =
  match s.proof_sink with None -> () | Some f -> f (P_add (dimacs_list lits))

let log_delete s lits =
  match s.proof_sink with
  | None -> ()
  | Some f -> f (P_delete (dimacs_list lits))

let log_input s dimacs_lits =
  match s.proof_sink with None -> () | Some f -> f (P_input dimacs_lits)

(* value of a literal: -1 undef, 0 false, 1 true *)
let lit_val s l =
  let a = s.assign.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = s.n_levels

(* ---- assignment ---- *)

let enqueue s l reason =
  (* Every level-0 assignment is a fact implied by unit propagation over
     the clauses logged so far, so it is RUP; emitting it as a unit lemma
     keeps the proof sound across level-0 clause strengthening and the
     later deletion of its reason clause. *)
  if s.n_levels = 0 then log_unit s l;
  let v = l lsr 1 in
  Array.unsafe_set s.assign v (1 lxor (l land 1));
  Array.unsafe_set s.level v s.n_levels;
  Array.unsafe_set s.reason v reason;
  Array.unsafe_set s.trail s.trail_len l;
  s.trail_len <- s.trail_len + 1

(* One level per assumption plus one per decision can exceed the
   variable-count sizing of [trail_lim] (assumptions already implied open
   an empty level), so the level stack grows on demand. *)
let push_level s =
  let n = Array.length s.trail_lim in
  if s.n_levels >= n then
    s.trail_lim <- Array.append s.trail_lim (Array.make (max 16 n) 0);
  s.trail_lim.(s.n_levels) <- s.trail_len;
  s.n_levels <- s.n_levels + 1

let cancel_until s lvl =
  if s.n_levels > lvl then begin
    let target = s.trail_lim.(lvl) in
    let trail = s.trail
    and assign = s.assign
    and polarity = s.polarity
    and reason = s.reason
    and heap_pos = s.heap_pos in
    for i = s.trail_len - 1 downto target do
      let v = Array.unsafe_get trail i lsr 1 in
      Array.unsafe_set polarity v (Array.unsafe_get assign v = 1);
      Array.unsafe_set assign v (-1);
      Array.unsafe_set reason v dummy_clause;
      (* Most backtracked vars were assigned by propagation and are still
         heap members; test that inline and only call out for the popped
         (decision) vars that really need reinsertion. *)
      if Array.unsafe_get heap_pos v < 0 then heap_insert s v
    done;
    s.trail_len <- target;
    s.qhead <- target;
    s.n_levels <- lvl
  end

(* ---- activity ---- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_update s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to s.n_learnts - 1 do
      let c = s.learnts.(i) in
      c.act <- c.act *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* ---- LBD (literal block distance) ---- *)

(* Number of distinct non-root decision levels among the clause's
   literals, counted with a stamped per-level scratch array.  Only
   meaningful while the literals are assigned (call before backjumping). *)
let clause_lbd s lits =
  if Array.length s.lbd_mark <= s.n_levels then
    s.lbd_mark <-
      Array.append s.lbd_mark
        (Array.make (s.n_levels + 16 - Array.length s.lbd_mark) 0);
  s.lbd_tick <- s.lbd_tick + 1;
  let tick = s.lbd_tick in
  let d = ref 0 in
  Array.iter
    (fun q ->
      let lv = s.level.(lit_var q) in
      if lv > 0 && s.lbd_mark.(lv) <> tick then begin
        s.lbd_mark.(lv) <- tick;
        incr d
      end)
    lits;
  !d

(* ---- clause attachment ---- *)

let attach_watches s c =
  if Array.length c.lits = 2 then begin
    wpush s.bin_watches.(lit_neg c.lits.(0)) c c.lits.(1);
    wpush s.bin_watches.(lit_neg c.lits.(1)) c c.lits.(0)
  end
  else begin
    wpush s.watches.(lit_neg c.lits.(0)) c c.lits.(1);
    wpush s.watches.(lit_neg c.lits.(1)) c c.lits.(0)
  end

let attach s c =
  attach_watches s c;
  Array.iter
    (fun l ->
      let v = lit_var l in
      s.occurs.(v) <- s.occurs.(v) + 1;
      (* A var regaining occurrences must become decidable again: it may
         have been popped from the order heap while unconstrained. *)
      if s.occurs.(v) = 1 && s.assign.(v) < 0 then heap_insert s v)
    c.lits

let wl_remove wl c =
  let i = ref 0 in
  while !i < wl.wlen && wl.wc.(!i) != c do
    incr i
  done;
  if !i < wl.wlen then begin
    wl.wlen <- wl.wlen - 1;
    wl.wc.(!i) <- wl.wc.(wl.wlen);
    wl.wb.(!i) <- wl.wb.(wl.wlen);
    wl.wc.(wl.wlen) <- dummy_clause
  end

(* Remove the clause from its two watch lists (it watches exactly
   lits.(0) / lits.(1) whenever propagation is at a fixpoint).  Occurrence
   counts are untouched: the clause is still logically present. *)
let detach s c =
  if Array.length c.lits = 2 then begin
    wl_remove s.bin_watches.(lit_neg c.lits.(0)) c;
    wl_remove s.bin_watches.(lit_neg c.lits.(1)) c
  end
  else begin
    wl_remove s.watches.(lit_neg c.lits.(0)) c;
    wl_remove s.watches.(lit_neg c.lits.(1)) c
  end

(* Delete a clause in place: propagation drops deleted clauses from the
   watcher vectors lazily the next time it scans them.  A deleted clause
   may still be the reason of a level-0 assignment; that is safe because
   conflict analysis never resolves on level-0 literals. *)
let delete_clause s c =
  if not c.deleted then begin
    log_delete s c.lits;
    c.deleted <- true;
    if c.learnt then s.n_learnt <- s.n_learnt - 1
    else s.n_problem <- s.n_problem - 1;
    Array.iter
      (fun l ->
        let v = lit_var l in
        s.occurs.(v) <- s.occurs.(v) - 1)
      c.lits
  end

let push_learnt s c =
  let n = Array.length s.learnts in
  if s.n_learnts = n then begin
    let nl = Array.make (max 16 (2 * n)) dummy_clause in
    Array.blit s.learnts 0 nl 0 n;
    s.learnts <- nl
  end;
  s.learnts.(s.n_learnts) <- c;
  s.n_learnts <- s.n_learnts + 1

let push_prob s c =
  let n = Array.length s.probs in
  if s.n_probs = n then begin
    let np = Array.make (max 16 (2 * n)) dummy_clause in
    Array.blit s.probs 0 np 0 n;
    s.probs <- np
  end;
  s.probs.(s.n_probs) <- c;
  s.n_probs <- s.n_probs + 1

(* Drop deleted slots from the learnt array (the live clauses keep their
   relative order).  Clauses promoted to problem status by subsumption
   leave too — [reduce_db] must never see (let alone delete) them. *)
let compact_learnts s =
  let j = ref 0 in
  for i = 0 to s.n_learnts - 1 do
    let c = s.learnts.(i) in
    if (not c.deleted) && c.learnt then begin
      s.learnts.(!j) <- c;
      incr j
    end
  done;
  for i = !j to s.n_learnts - 1 do
    s.learnts.(i) <- dummy_clause
  done;
  s.n_learnts <- !j

let compact_probs s =
  let j = ref 0 in
  for i = 0 to s.n_probs - 1 do
    let c = s.probs.(i) in
    if not c.deleted then begin
      s.probs.(!j) <- c;
      incr j
    end
  done;
  for i = !j to s.n_probs - 1 do
    s.probs.(i) <- dummy_clause
  done;
  s.n_probs <- !j

(* ---- propagation ---- *)

exception Conflict of clause

(* The propagation inner loop visits every watcher entry of every
   assigned literal — the hottest code in the solver by far.  It uses
   unsafe array accesses, each safe by construction: watcher indices are
   < wlen <= capacity, literals are < 2*nvars <= length assign, and
   clause literal indices are < Array.length lits.  Assignment tests are
   inlined against [assign]: literal [x] is true iff
   [assign.(x/2) = (x land 1) lxor 1] and false iff
   [assign.(x/2) = x land 1] (unassigned is -1, matching neither). *)
let propagate s =
  let assign = s.assign in
  try
    while s.qhead < s.trail_len do
      let l = Array.unsafe_get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      (* Binary clauses first: (c, other) with c = {~l, other}.  No watch
         search and no migration — the pair either satisfies, propagates,
         or conflicts.  Deleted pairs are purged by swap-with-last. *)
      let bw = Array.unsafe_get s.bin_watches l in
      let i = ref 0 in
      while !i < bw.wlen do
        let c = Array.unsafe_get bw.wc !i in
        if c.deleted then begin
          bw.wlen <- bw.wlen - 1;
          Array.unsafe_set bw.wc !i (Array.unsafe_get bw.wc bw.wlen);
          Array.unsafe_set bw.wb !i (Array.unsafe_get bw.wb bw.wlen);
          Array.unsafe_set bw.wc bw.wlen dummy_clause
        end
        else begin
          let other = Array.unsafe_get bw.wb !i in
          let a = Array.unsafe_get assign (other lsr 1) in
          let sgn = other land 1 in
          if a <> sgn lxor 1 then
            if a = sgn then raise (Conflict c)
            else enqueue s other c;
          incr i
        end
      done;
      (* Long clauses watching ~l: skip on a true blocker, otherwise find
         a new watch or propagate/conflict. *)
      let wl = Array.unsafe_get s.watches l in
      let i = ref 0 and j = ref 0 in
      while !i < wl.wlen do
        let blocker = Array.unsafe_get wl.wb !i in
        let c = Array.unsafe_get wl.wc !i in
        incr i;
        if Array.unsafe_get assign (blocker lsr 1) = (blocker land 1) lxor 1
        then begin
          (* Satisfied without dereferencing the clause. *)
          Array.unsafe_set wl.wc !j c;
          Array.unsafe_set wl.wb !j blocker;
          incr j
        end
        else if not c.deleted then begin
          let lits = c.lits in
          (* Ensure the false literal is at position 1. *)
          let fl = l lxor 1 in
          if Array.unsafe_get lits 0 = fl then begin
            Array.unsafe_set lits 0 (Array.unsafe_get lits 1);
            Array.unsafe_set lits 1 fl
          end;
          let first = Array.unsafe_get lits 0 in
          if
            first <> blocker
            && Array.unsafe_get assign (first lsr 1) = (first land 1) lxor 1
          then begin
            Array.unsafe_set wl.wc !j c;
            Array.unsafe_set wl.wb !j first;
            incr j
          end
          else begin
            (* Look for a new watch among lits.(2..). *)
            let n = Array.length lits in
            let k = ref 2 in
            while
              !k < n
              &&
              let x = Array.unsafe_get lits !k in
              Array.unsafe_get assign (x lsr 1) = x land 1
            do
              incr k
            done;
            if !k < n then begin
              let w = Array.unsafe_get lits !k in
              Array.unsafe_set lits !k (Array.unsafe_get lits 1);
              Array.unsafe_set lits 1 w;
              wpush (Array.unsafe_get s.watches (w lxor 1)) c first
            end
            else begin
              (* Unit or conflicting: keep watching l. *)
              Array.unsafe_set wl.wc !j c;
              Array.unsafe_set wl.wb !j first;
              incr j;
              if Array.unsafe_get assign (first lsr 1) = first land 1
              then begin
                (* Conflict: keep the unscanned watcher tail before
                   raising. *)
                while !i < wl.wlen do
                  Array.unsafe_set wl.wc !j (Array.unsafe_get wl.wc !i);
                  Array.unsafe_set wl.wb !j (Array.unsafe_get wl.wb !i);
                  incr i;
                  incr j
                done;
                for t = !j to wl.wlen - 1 do
                  Array.unsafe_set wl.wc t dummy_clause
                done;
                wl.wlen <- !j;
                raise (Conflict c)
              end
              else enqueue s first c
            end
          end
        end
      done;
      for t = !j to wl.wlen - 1 do
        Array.unsafe_set wl.wc t dummy_clause
      done;
      wl.wlen <- !j
    done;
    None
  with Conflict c -> Some c

(* ---- conflict analysis (first UIP + recursive minimization) ---- *)

let abstract_level s v = 1 lsl (s.level.(v) land 31)

(* Self-subsuming resolution, deep (recursive) check: a learnt literal is
   redundant when every path through its reason antecedents bottoms out in
   other learnt literals or level-0 facts, never leaving the decision
   levels of the learnt clause ([abstract_levels] mask).  Vars shown
   redundant keep their seen mark (memoized for later queries within this
   conflict); marks added by a failed walk are undone. *)
let lit_redundant s abstract_levels p to_clear =
  let stack = ref [ p ] in
  let newly = ref [] in
  let ok = ref true in
  while !ok && !stack <> [] do
    let q = List.hd !stack in
    stack := List.tl !stack;
    let r = s.reason.(lit_var q) in
    Array.iter
      (fun x ->
        let v = lit_var x in
        if !ok && v <> lit_var q && (not s.seen.(v)) && s.level.(v) > 0 then begin
          if
            s.reason.(v) != dummy_clause
            && abstract_level s v land abstract_levels <> 0
          then begin
            s.seen.(v) <- true;
            newly := v :: !newly;
            stack := x :: !stack
          end
          else ok := false
        end)
      r.lits
  done;
  if !ok then begin
    to_clear := List.rev_append !newly !to_clear;
    true
  end
  else begin
    List.iter (fun v -> s.seen.(v) <- false) !newly;
    false
  end

let analyze s confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (s.trail_len - 1) in
  let c = ref confl in
  let to_clear = ref [] in
  let uip = ref 0 in
  let continue = ref true in
  while !continue do
    cla_bump s !c;
    (* Glucose-style LBD refresh: a learnt clause that keeps resolving
       conflicts gets its (only ever smaller) current LBD, promoting it
       toward the protected tier. *)
    if (!c).learnt then begin
      let d = clause_lbd s (!c).lits in
      if d < (!c).lbd then (!c).lbd <- d
    end;
    Array.iter
      (fun q ->
        let v = lit_var q in
        if (!p < 0 || q <> !p) && (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          to_clear := v :: !to_clear;
          var_bump s v;
          if s.level.(v) >= decision_level s then incr path
          else learnt := q :: !learnt
        end)
      (!c).lits;
    (* Next literal to resolve on: last assigned marked literal. *)
    while not s.seen.(lit_var s.trail.(!idx)) do
      decr idx
    done;
    let q = s.trail.(!idx) in
    decr idx;
    s.seen.(lit_var q) <- false;
    decr path;
    if !path = 0 then begin
      uip := lit_neg q;
      continue := false
    end
    else begin
      c := s.reason.(lit_var q);
      p := q
    end
  done;
  s.learnt_lits <- s.learnt_lits + List.length !learnt + 1;
  let kept =
    let abstract_levels =
      List.fold_left
        (fun m q -> m lor abstract_level s (lit_var q))
        0 !learnt
    in
    List.filter
      (fun q ->
        s.reason.(lit_var q) == dummy_clause
        || not (lit_redundant s abstract_levels q to_clear))
      !learnt
  in
  s.minimized_lits <-
    s.minimized_lits + (List.length !learnt - List.length kept);
  let btlevel =
    List.fold_left (fun m q -> max m s.level.(lit_var q)) 0 kept
  in
  let lits = Array.of_list (!uip :: kept) in
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  (lits, btlevel)

(* Final conflict analysis: assumption literal [p] came up false during the
   assumption scan.  Walk the implication trail backwards from the top and
   collect the assumption decisions (reason = None above level 0) that the
   falsification of [p] depends on — the failed-assumption subset, in the
   DIMACS convention of the caller's assumption list. *)
let analyze_final s p =
  let out = ref [ dimacs_of_lit p ] in
  if decision_level s > 0 then begin
    s.seen.(lit_var p) <- true;
    let bottom = s.trail_lim.(0) in
    for i = s.trail_len - 1 downto bottom do
      let v = lit_var s.trail.(i) in
      if s.seen.(v) then begin
        (let c = s.reason.(v) in
         if c == dummy_clause then
           out := dimacs_of_lit s.trail.(i) :: !out
         else
           Array.iter
             (fun q ->
               let u = lit_var q in
               if u <> v && s.level.(u) > 0 then s.seen.(u) <- true)
             c.lits);
        s.seen.(v) <- false
      end
    done;
    s.seen.(lit_var p) <- false
  end;
  List.sort_uniq compare !out

(* ---- learnt clause database reduction ---- *)

let locked s c =
  s.reason.(lit_var c.lits.(0)) == c && lit_val s c.lits.(0) = 1

(* Glucose-style two-tier reduction: glue clauses (LBD <= 2), binaries and
   locked clauses are kept; the rest sort worst-first (highest LBD, then
   lowest activity) and the worse half is deleted. *)
let reduce_db s =
  compact_learnts s;
  let cand = ref [] and ncand = ref 0 in
  for i = 0 to s.n_learnts - 1 do
    let c = s.learnts.(i) in
    if
      Array.length c.lits > 2
      && (not (locked s c))
      && c.lbd > 2
    then begin
      cand := c :: !cand;
      incr ncand
    end
  done;
  let arr = Array.of_list !cand in
  Array.sort
    (fun a b ->
      if a.lbd <> b.lbd then Int.compare b.lbd a.lbd
      else Float.compare a.act b.act)
    arr;
  for i = 0 to (!ncand / 2) - 1 do
    delete_clause s arr.(i)
  done;
  compact_learnts s;
  s.db_reductions <- s.db_reductions + 1

let learnt_limit s =
  match s.cfg_learnt_limit with
  | Some n -> n
  | None -> (2 * s.n_problem) + 1000

(* ---- adding clauses ---- *)

(* Returns the clause when one was actually attached (length >= 2 after
   level-0 strengthening); None when the clause was dropped, became a unit
   fact, or made the instance unsat. *)
let add_clause_internal s lits =
  if s.unsat_at_root then None
  else begin
    let lits = List.sort_uniq Int.compare lits in
    (* Sorted and deduplicated, a tautology is an adjacent pair (2v, 2v+1)
       — one linear scan. *)
    let rec taut = function
      | a :: (b :: _ as rest) -> b = a lxor 1 || taut rest
      | _ -> false
    in
    let tautology = taut lits in
    let satisfied =
      List.exists (fun l -> lit_val s l = 1 && s.level.(lit_var l) = 0) lits
    in
    if tautology || satisfied then None
    else begin
      let lits =
        List.filter
          (fun l -> not (lit_val s l = 0 && s.level.(lit_var l) = 0))
          lits
      in
      match lits with
      | [] ->
          set_root_unsat s;
          None
      | [ l ] ->
          if lit_val s l = 0 then set_root_unsat s
          else if lit_val s l = -1 then begin
            enqueue s l dummy_clause;
            (match propagate s with
            | Some _ -> set_root_unsat s
            | None -> ())
          end;
          None
      | _ ->
          let lits = Array.of_list lits in
          let c =
            { lits; learnt = false; act = 0.0; lbd = 0; deleted = false;
              csig = clause_sig lits }
          in
          s.n_problem <- s.n_problem + 1;
          attach s c;
          push_prob s c;
          Some c
    end
  end

(* ---- simplification: subsumption, vivification, variable elimination ----

   Every transformation speaks DRUP through the proof sink: a derived
   clause is logged as [P_add] while its antecedents are still live (so
   the checker verifies it by reverse unit propagation), and only then are
   clauses retracted with [P_delete].  Deletions need no justification in
   DRUP, which is what makes variable elimination certifiable here: the
   resolvents are each RUP with respect to their two parents, and the
   parent clauses are then simply deleted. *)

(* Level-0 propagation to a fixpoint; a root conflict closes the proof. *)
let saturate s =
  match propagate s with Some _ -> set_root_unsat s | None -> ()

(* Replace a *detached* clause's literal set with [new_lits] (a strict
   subset that the caller has shown to be RUP).  Shrinking to a unit or
   to the empty clause dissolves the clause object into a level-0 fact.
   Level 0 only. *)
let replace_lits s c new_lits =
  if Array.length new_lits >= 2 then begin
    log_add s new_lits;
    log_delete s c.lits;
    Array.iter
      (fun l -> s.occurs.(lit_var l) <- s.occurs.(lit_var l) - 1)
      c.lits;
    c.lits <- new_lits;
    c.csig <- clause_sig new_lits;
    Array.iter
      (fun l ->
        let v = lit_var l in
        s.occurs.(v) <- s.occurs.(v) + 1;
        if s.occurs.(v) = 1 && s.assign.(v) < 0 then heap_insert s v)
      new_lits;
    attach_watches s c
  end
  else begin
    (match Array.length new_lits with
    | 1 -> (
        let l = new_lits.(0) in
        (* [enqueue] at level 0 logs the unit lemma; a literal already
           true needed no new event, one already false closes the proof
           (its negation is a logged level-0 unit). *)
        match lit_val s l with
        | -1 -> enqueue s l dummy_clause
        | 0 ->
            log_unit s l;
            set_root_unsat s
        | _ -> ())
    | _ -> set_root_unsat s);
    delete_clause s c
  end

(* Attach a clause derived by simplification (already RUP w.r.t. the live
   database).  The full derived clause is logged; literals false at level
   0 are stripped from the attached copy exactly as in the input path, so
   the checker's formula stays a superset of the attached database. *)
let add_derived s lits =
  log_add s lits;
  if Array.exists (fun l -> lit_val s l = 1) lits then None
  else begin
    let live =
      Array.of_list
        (List.filter (fun l -> lit_val s l <> 0) (Array.to_list lits))
    in
    match Array.length live with
    | 0 ->
        set_root_unsat s;
        None
    | 1 ->
        (match lit_val s live.(0) with
        | -1 -> enqueue s live.(0) dummy_clause
        | _ -> ());
        None
    | _ ->
        let c =
          { lits = live; learnt = false; act = 0.0; lbd = 0;
            deleted = false; csig = clause_sig live }
        in
        s.n_problem <- s.n_problem + 1;
        attach s c;
        push_prob s c;
        Some c
  end

(* A learnt clause that subsumes a problem clause takes over its
   constraint role: promote it to problem status so database reduction
   can never delete it ([compact_learnts] drops it from the learnt
   array). *)
let promote s c =
  if c.learnt then begin
    c.learnt <- false;
    c.lbd <- 0;
    s.n_learnt <- s.n_learnt - 1;
    s.n_problem <- s.n_problem + 1;
    push_prob s c
  end

(* Bring a clause in sync with the level-0 trail: delete it if satisfied,
   strip its false literals (the stripped clause is RUP — each removed
   literal is falsified by a logged unit lemma). *)
let cleanup_clause s c =
  if not c.deleted then begin
    if Array.exists (fun l -> lit_val s l = 1) c.lits then delete_clause s c
    else if Array.exists (fun l -> lit_val s l = 0) c.lits then begin
      let kept =
        Array.of_list
          (List.filter (fun l -> lit_val s l <> 0) (Array.to_list c.lits))
      in
      detach s c;
      replace_lits s c kept
    end
  end

let mem_lit lits l =
  let n = Array.length lits in
  let i = ref 0 in
  while !i < n && Array.unsafe_get lits !i <> l do
    incr i
  done;
  !i < n

let sig_subset c d = c.csig land lnot d.csig = 0

(* [c] subsumes [d]: every literal of [c] appears in [d]. *)
let subsumes c d =
  Array.length c.lits <= Array.length d.lits
  && sig_subset c d
  && Array.for_all (fun l -> mem_lit d.lits l) c.lits

(* Self-subsuming resolution: [c \ {l} ⊆ d] and [¬l ∈ d] — resolving the
   two on [l] yields [d \ {¬l}], a strict strengthening of [d] that is
   RUP while both parents are live. *)
let strengthens c d l =
  Array.length c.lits <= Array.length d.lits
  && sig_subset c d
  && mem_lit d.lits (lit_neg l)
  && Array.for_all (fun x -> x = l || mem_lit d.lits x) c.lits

(* Re-adding a mention of an eliminated variable (a new clause, an
   assumption, an explicit freeze) revives it: the deleted problem
   clauses of its elimination event are re-added verbatim as fresh inputs
   — every one is a logical consequence of the original formula, so the
   checker's certificate is unaffected — and the witness entry dies.
   Revival cascades: a revived clause may mention other eliminated
   variables.  Level 0 only. *)
let rec revive_var s v =
  if s.elimed.(v) then begin
    s.elimed.(v) <- false;
    s.revived.(v) <- true;
    List.iter
      (fun e ->
        if (not e.ev_dead) && e.ev_var = v then begin
          e.ev_dead <- true;
          List.iter
            (fun dl ->
              List.iter
                (fun d ->
                  let u = abs d - 1 in
                  if u < s.nvars && s.elimed.(u) then revive_var s u)
                dl;
              log_input s dl;
              ignore (add_clause_internal s (List.map (lit_of_dimacs s) dl)))
            e.ev_all
        end)
      s.elim_stack
  end

let revive_mentioned s dimacs_lits =
  List.iter
    (fun d ->
      let u = abs d - 1 in
      if u >= 0 && u < s.nvars && s.elimed.(u) then begin
        cancel_until s 0;
        s.have_model <- false;
        revive_var s u
      end)
    dimacs_lits

(* Replay the elimination witnesses, newest first: an eliminated variable
   is true iff one of its stored positive-side clauses has every other
   literal false under the model reconstructed so far.  Values land in
   [polarity]; eliminated variables are never assigned (they occur in no
   live clause), so {!value} reads exactly these bits. *)
let reconstruct s =
  List.iter
    (fun e ->
      if not e.ev_dead then begin
        let ltrue l =
          let u = l lsr 1 in
          let b =
            if s.assign.(u) >= 0 then s.assign.(u) = 1 else s.polarity.(u)
          in
          b = (l land 1 = 0)
        in
        let forced =
          List.exists
            (fun cl ->
              Array.for_all (fun l -> l = e.ev_lit || not (ltrue l)) cl)
            e.ev_side
        in
        s.polarity.(e.ev_var) <- forced
      end)
    s.elim_stack

let freeze_var s v =
  if v <= 0 || v > s.nvars then
    invalid_arg "Sat.Solver.freeze_var: bad variable";
  let v0 = v - 1 in
  if s.elimed.(v0) then begin
    cancel_until s 0;
    s.have_model <- false;
    revive_var s v0
  end;
  s.frozen.(v0) <- true

let var_eliminated s v = v >= 1 && v <= s.nvars && s.elimed.(v - 1)

let default_simp_budget = 4_000_000

let inprocess ?(budget = default_simp_budget) s =
  if s.cfg_inprocess && not s.unsat_at_root then begin
    cancel_until s 0;
    s.have_model <- false;
    saturate s;
    if not s.unsat_at_root then begin
      s.simp_passes <- s.simp_passes + 1;
      (* 0. sync the clause arrays with the level-0 trail, to a fixpoint
         (stripping may create units that satisfy or shorten others). *)
      let stable = ref false in
      while (not !stable) && not s.unsat_at_root do
        let t0 = s.trail_len in
        for i = 0 to s.n_probs - 1 do
          cleanup_clause s s.probs.(i)
        done;
        for i = 0 to s.n_learnts - 1 do
          cleanup_clause s s.learnts.(i)
        done;
        if not s.unsat_at_root then saturate s;
        stable := s.trail_len = t0
      done;
      if not s.unsat_at_root then begin
        compact_probs s;
        compact_learnts s;
        (* Occurrence lists over the live database.  Clauses only ever
           shrink in place, so the lists stay supersets: a stale entry is
           filtered by a membership test at use.  Clauses attached during
           the pass (resolvents) are registered as they appear. *)
        let occ = Array.make (2 * s.nvars) [] in
        let nocc = Array.make (2 * s.nvars) 0 in
        let register c =
          Array.iter
            (fun l ->
              occ.(l) <- c :: occ.(l);
              nocc.(l) <- nocc.(l) + 1)
            c.lits
        in
        for i = 0 to s.n_probs - 1 do
          register s.probs.(i)
        done;
        for i = 0 to s.n_learnts - 1 do
          register s.learnts.(i)
        done;
        let work = ref 0 in
        (* 1. backward subsumption and self-subsuming strengthening. *)
        let try_clause c =
          if (not c.deleted) && !work <= budget && not s.unsat_at_root
          then begin
            let best = ref c.lits.(0) in
            Array.iter
              (fun l -> if nocc.(l) < nocc.(!best) then best := l)
              c.lits;
            List.iter
              (fun d ->
                incr work;
                if d != c && (not d.deleted) && subsumes c d then begin
                  if (not d.learnt) && c.learnt then promote s c;
                  delete_clause s d;
                  s.simp_subsumed <- s.simp_subsumed + 1
                end)
              occ.(!best);
            Array.iter
              (fun l ->
                if (not c.deleted) && !work <= budget then
                  List.iter
                    (fun d ->
                      incr work;
                      if d != c && (not d.deleted) && strengthens c d l
                      then begin
                        let kept =
                          Array.of_list
                            (List.filter
                               (fun x -> x <> lit_neg l)
                               (Array.to_list d.lits))
                        in
                        detach s d;
                        replace_lits s d kept;
                        s.simp_strengthened <- s.simp_strengthened + 1
                      end)
                    occ.(lit_neg l))
              c.lits
          end
        in
        for i = 0 to s.n_probs - 1 do
          try_clause s.probs.(i)
        done;
        for i = 0 to s.n_learnts - 1 do
          try_clause s.learnts.(i)
        done;
        if not s.unsat_at_root then saturate s;
        (* 2. vivification of problem clauses: assert the negations of
           the literals one by one; a conflict or an implied literal
           proves a shorter RUP clause, an implied-false literal is
           redundant.  The clause is detached first so its own
           propagation cannot mask a strengthening. *)
        let vivify c =
          if
            (not c.deleted)
            && (not c.learnt)
            && Array.length c.lits >= 3
            && !work <= budget
            && (not s.unsat_at_root)
            && not (Array.exists (fun l -> lit_val s l = 1) c.lits)
          then begin
            let p0 = s.propagations in
            detach s c;
            let lits = Array.copy c.lits in
            let n = Array.length lits in
            let kept = ref [] in
            let dropped = ref 0 in
            (try
               for i = 0 to n - 1 do
                 let l = lits.(i) in
                 match lit_val s l with
                 | 1 ->
                     kept := l :: !kept;
                     dropped := !dropped + (n - i - 1);
                     raise Exit
                 | 0 -> incr dropped
                 | _ -> (
                     push_level s;
                     enqueue s (lit_neg l) dummy_clause;
                     match propagate s with
                     | Some _ ->
                         kept := l :: !kept;
                         dropped := !dropped + (n - i - 1);
                         raise Exit
                     | None -> kept := l :: !kept)
               done
             with Exit -> ());
            cancel_until s 0;
            work := !work + (s.propagations - p0) + n;
            if !dropped > 0 then begin
              s.simp_vivified <- s.simp_vivified + !dropped;
              replace_lits s c (Array.of_list (List.rev !kept))
            end
            else attach_watches s c;
            if s.qhead < s.trail_len then saturate s
          end
        in
        for i = 0 to s.n_probs - 1 do
          vivify s.probs.(i)
        done;
        (* 3. bounded variable elimination.  Frozen and assigned
           variables are skipped; the gate is the classic one — the
           non-tautological resolvent count must not exceed the number
           of deleted clauses.  Learnt clauses on the variable are
           deleted without resolution (they are consequences). *)
        let live_side lst l =
          List.filter (fun c -> (not c.deleted) && mem_lit c.lits l) lst
        in
        let resolve c d v =
          let buf = ref [] in
          Array.iter (fun l -> if l lsr 1 <> v then buf := l :: !buf) c.lits;
          Array.iter (fun l -> if l lsr 1 <> v then buf := l :: !buf) d.lits;
          let lits = List.sort_uniq Int.compare !buf in
          let rec taut = function
            | a :: (b :: _ as rest) -> b = a lxor 1 || taut rest
            | _ -> false
          in
          if taut lits then None else Some (Array.of_list lits)
        in
        let try_eliminate v =
          if
            !work <= budget
            && (not s.unsat_at_root)
            && (not s.frozen.(v))
            && (not s.elimed.(v))
            && (not s.revived.(v))
            && s.assign.(v) < 0
          then begin
            let p = 2 * v and np = (2 * v) + 1 in
            let pos_all = live_side occ.(p) p
            and neg_all = live_side occ.(np) np in
            let pos = List.filter (fun c -> not c.learnt) pos_all
            and neg = List.filter (fun c -> not c.learnt) neg_all in
            let cp = List.length pos and cn = List.length neg in
            if (cp > 0 || cn > 0) && cp + cn <= 16 then begin
              work := !work + (cp * cn) + 1;
              let limit = cp + cn in
              let resolvents = ref [] and cnt = ref 0 and ok = ref true in
              List.iter
                (fun c ->
                  List.iter
                    (fun d ->
                      if !ok then
                        match resolve c d v with
                        | None -> ()
                        | Some r ->
                            incr cnt;
                            if !cnt > limit then ok := false
                            else resolvents := r :: !resolvents)
                    neg)
                pos;
              if !ok then begin
                (* Derive every resolvent while both parents are live,
                   snapshot the witness and revival sets, then retract
                   all clauses on the variable. *)
                List.iter
                  (fun r ->
                    match add_derived s r with
                    | Some c -> register c
                    | None -> ())
                  (List.rev !resolvents);
                s.elim_stack <-
                  {
                    ev_var = v;
                    ev_lit = p;
                    ev_dead = false;
                    ev_side = List.map (fun c -> Array.copy c.lits) pos;
                    ev_all =
                      List.map (fun c -> dimacs_list c.lits) (pos @ neg);
                  }
                  :: s.elim_stack;
                s.elimed.(v) <- true;
                s.simp_eliminated <- s.simp_eliminated + 1;
                List.iter (fun c -> delete_clause s c) pos_all;
                List.iter (fun c -> delete_clause s c) neg_all;
                if s.qhead < s.trail_len then saturate s
              end
            end
          end
        in
        for v = 0 to s.nvars - 1 do
          try_eliminate v
        done;
        compact_probs s;
        compact_learnts s
      end
    end
  end

(* ---- public clause entry points ---- *)

let add_clause s dimacs_lits =
  cancel_until s 0;
  s.have_model <- false;
  revive_mentioned s dimacs_lits;
  let lits = List.map (lit_of_dimacs s) dimacs_lits in
  log_input s dimacs_lits;
  ignore (add_clause_internal s lits)

(* ---- search ---- *)

type result = Sat | Unsat

(* luby i (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

(* Unconstrained vars (no live clause mentions them) are never decided:
   any phase satisfies the live clause set, so the model just reports
   their saved polarity.  [attach] re-inserts a var into the heap when a
   new clause constrains it again. *)
let pick_branch s =
  let rec go () =
    if s.heap_len = 0 then -1
    else begin
      let v = heap_pop s in
      if s.assign.(v) < 0 && s.occurs.(v) > 0 then v else go ()
    end
  in
  go ()

let record_learnt s lits btlevel =
  (* LBD is counted over the pre-backjump levels. *)
  let lbd = clause_lbd s lits in
  cancel_until s btlevel;
  match Array.length lits with
  | 1 -> enqueue s lits.(0) dummy_clause
  | _ ->
      (* Watch the asserting literal and a literal of the backjump level. *)
      let best = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if s.level.(lit_var lits.(i)) > s.level.(lit_var lits.(!best)) then
          best := i
      done;
      let t = lits.(1) in
      lits.(1) <- lits.(!best);
      lits.(!best) <- t;
      log_add s lits;
      let c =
        { lits; learnt = true; act = 0.0; lbd; deleted = false;
          csig = clause_sig lits }
      in
      cla_bump s c;
      push_learnt s c;
      s.n_learnt <- s.n_learnt + 1;
      attach s c;
      enqueue s lits.(0) c

let solve ?(assumptions = []) s =
  s.have_model <- false;
  s.failed <- [];
  cancel_until s 0;
  (* Assumption variables are frozen permanently — the caller may assume
     them again, and an eliminated variable has no clauses left for an
     assumption to constrain — and revived first if a previous pass
     eliminated them. *)
  let assumption_lits = List.map (lit_of_dimacs s) assumptions in
  List.iter
    (fun l ->
      let u = lit_var l in
      if s.elimed.(u) then revive_var s u;
      s.frozen.(u) <- true)
    assumption_lits;
  if s.unsat_at_root then Unsat
  else begin
    (* Duplicate assumptions would each open a level; keep the first
       occurrence of each literal (order preserved, failed-assumption
       semantics unchanged — the failed set is duplicate-free anyway). *)
    let assumps =
      let seen = Hashtbl.create 16 in
      Array.of_list
        (List.filter
           (fun l ->
             if Hashtbl.mem seen l then false
             else begin
               Hashtbl.add seen l ();
               true
             end)
           assumption_lits)
    in
    let n_assumed = Array.length assumps in
    cancel_until s 0;
    let restart = ref 1 in
    let answer = ref None in
    (* [= None] would be a polymorphic-equality C call in the innermost
       search loop; a tag match compiles to a branch. *)
    let undecided () = match !answer with None -> true | Some _ -> false in
    while undecided () do
      let budget = 100 * luby !restart in
      incr restart;
      let conflicts_here = ref 0 in
      cancel_until s 0;
      let running = ref true in
      while !running && undecided () do
        match propagate s with
        | Some confl ->
            s.conflicts <- s.conflicts + 1;
            incr conflicts_here;
            if decision_level s = 0 then begin
              set_root_unsat s;
              answer := Some Unsat
            end
            else begin
              let lits, bt = analyze s confl in
              record_learnt s lits bt;
              var_decay s;
              cla_decay s
            end
        | None ->
            if !conflicts_here >= budget then begin
              s.restarts <- s.restarts + 1;
              running := false
            end
            else begin
              let dl = decision_level s in
              if dl = 0 && s.n_learnt > learnt_limit s then reduce_db s;
              if dl < n_assumed then begin
                let l = assumps.(dl) in
                match lit_val s l with
                | 1 ->
                    (* Already implied: open an empty level to keep the
                       level <-> assumption alignment. *)
                    push_level s
                | 0 ->
                    s.failed <- analyze_final s l;
                    answer := Some Unsat
                | _ ->
                    push_level s;
                    enqueue s l dummy_clause
              end
              else begin
                let v = pick_branch s in
                if v < 0 then begin
                  (* Replay the elimination witnesses before anything can
                     read the model. *)
                  reconstruct s;
                  s.have_model <- true;
                  answer := Some Sat
                end
                else begin
                  s.decisions <- s.decisions + 1;
                  push_level s;
                  enqueue s
                    ((2 * v)
                    + if s.polarity.(v) then 0 else 1)
                    dummy_clause
                end
              end
            end
      done
    done;
    cancel_until s 0;
    match !answer with Some r -> r | None -> assert false
  end

let value s v =
  if not s.have_model then invalid_arg "Sat.Solver.value: no model";
  if v <= 0 || v > s.nvars then invalid_arg "Sat.Solver.value: bad variable";
  if s.assign.(v - 1) >= 0 then s.assign.(v - 1) = 1 else s.polarity.(v - 1)

let failed_assumptions s = s.failed

(* ---- activation literals (incremental sessions) ---- *)

let new_activation s =
  let a = new_var s in
  (* An activation variable is assumed by later queries; it must never be
     eliminated. *)
  s.frozen.(a - 1) <- true;
  a

let add_clause_under s act lits =
  if act <= 0 || act > s.nvars then
    invalid_arg "Sat.Solver.add_clause_under: bad activation literal";
  cancel_until s 0;
  s.have_model <- false;
  let dimacs_lits = -act :: lits in
  revive_mentioned s dimacs_lits;
  let lits = List.map (lit_of_dimacs s) dimacs_lits in
  log_input s dimacs_lits;
  match add_clause_internal s lits with
  | None -> ()
  | Some c -> (
      match Hashtbl.find_opt s.groups act with
      | Some l -> l := c :: !l
      | None -> Hashtbl.add s.groups act (ref [ c ]))

(* Drop clauses satisfied at level 0 from the watcher vectors, so retired
   activation groups stop costing propagation time.  Safe: conflict
   analysis never dereferences reasons of level-0 assignments, and a
   satisfied clause constrains nothing. *)
let simplify s =
  cancel_until s 0;
  if not s.unsat_at_root then begin
    (match propagate s with
    | Some _ -> set_root_unsat s
    | None -> ());
    if not s.unsat_at_root then begin
      let satisfied c =
        Array.exists
          (fun l -> lit_val s l = 1 && s.level.(lit_var l) = 0)
          c.lits
      in
      let sweep wl =
        let j = ref 0 in
        for i = 0 to wl.wlen - 1 do
          let c = wl.wc.(i) in
          if c.deleted then ()
          else if satisfied c then delete_clause s c
          else begin
            wl.wc.(!j) <- c;
            wl.wb.(!j) <- wl.wb.(i);
            incr j
          end
        done;
        for t = !j to wl.wlen - 1 do
          wl.wc.(t) <- dummy_clause
        done;
        wl.wlen <- !j
      in
      for l = 0 to (2 * s.nvars) - 1 do
        sweep s.watches.(l);
        sweep s.bin_watches.(l)
      done;
      compact_learnts s
    end
  end

(* Permanently deactivate a group: assert the negated activator (making
   every gated clause satisfied at level 0) and delete the group's clauses
   in O(group size) — no global sweep.  Propagation evicts them from the
   watcher vectors as it encounters them.  Learnt clauses satisfied at
   level 0 (they typically contain the negated activator) are swept too,
   so they stop pinning the group's dead variables as constrained. *)
let retire_activation s act =
  if act <= 0 || act > s.nvars then
    invalid_arg "Sat.Solver.retire_activation: bad activation literal";
  add_clause s [ -act ];
  match Hashtbl.find_opt s.groups act with
  | Some l ->
      List.iter (delete_clause s) !l;
      Hashtbl.remove s.groups act;
      if s.n_learnt > 0 && not s.unsat_at_root then begin
        let sat0 c =
          Array.exists
            (fun q -> lit_val s q = 1 && s.level.(lit_var q) = 0)
            c.lits
        in
        for i = 0 to s.n_learnts - 1 do
          let c = s.learnts.(i) in
          if (not c.deleted) && sat0 c then delete_clause s c
        done;
        compact_learnts s
      end
  | None -> ()
