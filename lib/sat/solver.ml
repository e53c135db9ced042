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
  lits : int array;
  learnt : bool;
  mutable act : float;
  mutable lbd : int;       (* literal block distance at learn time, refreshed
                              downward whenever the clause resolves a
                              conflict; 0 for problem clauses *)
  mutable deleted : bool;
}

let dummy_clause =
  { lits = [||]; learnt = false; act = 0.0; lbd = 0; deleted = true }

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
  mutable proof_sink : (proof_event -> unit) option;
  mutable cfg_learnt_limit : int option;  (* test hook *)
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
    seen = Array.make 16 false;
    lbd_mark = Array.make 16 0;
    lbd_tick = 0;
    failed = [];
    groups = Hashtbl.create 16;
    occurs = Array.make 16 0;
    proof_sink = None;
    cfg_learnt_limit = None;
  }

type search_stats = {
  st_conflicts : int;
  st_decisions : int;
  st_propagations : int;
  st_restarts : int;
  st_learnt_lits : int;
  st_minimized_lits : int;
  st_reductions : int;
  st_learnt_db : int;
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
  }

let set_learnt_limit s n = s.cfg_learnt_limit <- n
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

let attach s c =
  let w = if Array.length c.lits = 2 then s.bin_watches else s.watches in
  wpush w.(lit_neg c.lits.(0)) c c.lits.(1);
  wpush w.(lit_neg c.lits.(1)) c c.lits.(0);
  Array.iter
    (fun l ->
      let v = lit_var l in
      s.occurs.(v) <- s.occurs.(v) + 1;
      (* A var regaining occurrences must become decidable again: it may
         have been popped from the order heap while unconstrained. *)
      if s.occurs.(v) = 1 && s.assign.(v) < 0 then heap_insert s v)
    c.lits

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

(* Drop deleted slots from the learnt array (the live clauses keep their
   relative order). *)
let compact_learnts s =
  let j = ref 0 in
  for i = 0 to s.n_learnts - 1 do
    let c = s.learnts.(i) in
    if not c.deleted then begin
      s.learnts.(!j) <- c;
      incr j
    end
  done;
  for i = !j to s.n_learnts - 1 do
    s.learnts.(i) <- dummy_clause
  done;
  s.n_learnts <- !j

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
          let c =
            { lits = Array.of_list lits; learnt = false; act = 0.0; lbd = 0;
              deleted = false }
          in
          s.n_problem <- s.n_problem + 1;
          attach s c;
          Some c
    end
  end

(* ---- public clause entry points ---- *)

let add_clause s dimacs_lits =
  cancel_until s 0;
  s.have_model <- false;
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
      let c = { lits; learnt = true; act = 0.0; lbd; deleted = false } in
      cla_bump s c;
      push_learnt s c;
      s.n_learnt <- s.n_learnt + 1;
      attach s c;
      enqueue s lits.(0) c

let solve ?(assumptions = []) s =
  s.have_model <- false;
  s.failed <- [];
  cancel_until s 0;
  let assumption_lits = List.map (lit_of_dimacs s) assumptions in
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

let new_activation = new_var

let add_clause_under s act lits =
  if act <= 0 || act > s.nvars then
    invalid_arg "Sat.Solver.add_clause_under: bad activation literal";
  cancel_until s 0;
  s.have_model <- false;
  let dimacs_lits = -act :: lits in
  let lits = List.map (lit_of_dimacs s) dimacs_lits in
  log_input s dimacs_lits;
  match add_clause_internal s lits with
  | None -> ()
  | Some c -> (
      match Hashtbl.find_opt s.groups act with
      | Some l -> l := c :: !l
      | None -> Hashtbl.add s.groups act (ref [ c ]))

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
