(* An independent reverse-unit-propagation (RUP) proof checker.

   This module is the trusted core of the certified pipeline, so it
   deliberately shares no propagation or analysis machinery with
   Solver: where the solver uses two watched literals per clause, lazy
   watch-list repair and first-UIP analysis, the checker uses plain
   counter-based propagation — each clause tracks how many of its
   literals are not yet false, with full occurrence lists per literal.
   Slower, but simple enough to audit in isolation.

   State is a persistent root trail: the unit-propagation fixpoint of
   the accumulated formula (inputs + verified lemmas).  A RUP query
   marks the trail, asserts the negations of the candidate clause,
   propagates, and unwinds to the mark; the clause is RUP exactly when
   propagation hits a conflict.  All literals are DIMACS. *)

type cls = {
  lits : int array; (* deduplicated, never mutated *)
  mutable free : int; (* literals not currently false *)
  mutable dead : bool; (* deleted: ignored by propagation *)
}

(* Occurrence list of one literal, stored densely: propagation and
   unwinding walk these for every trail literal, so a flat array beats a
   cons list on locality without changing the counter-based design. *)
type occ = {
  mutable oa : cls array;
  mutable on : int; (* live prefix length of [oa] *)
}

let dummy_cls = { lits = [||]; free = 0; dead = true }
let occ_make () = { oa = [||]; on = 0 }

let occ_push o c =
  if o.on = Array.length o.oa then begin
    let na = Array.make (max 4 (2 * o.on)) dummy_cls in
    Array.blit o.oa 0 na 0 o.on;
    o.oa <- na
  end;
  o.oa.(o.on) <- c;
  o.on <- o.on + 1

type t = {
  mutable value : int array; (* per var (1-based): 0 unknown, 1 true, -1 false *)
  mutable occ : occ array; (* per literal index: clauses containing it *)
  mutable nvars : int;
  mutable trail : int array; (* assigned literals, in assignment order *)
  mutable trail_len : int;
  mutable qhead : int; (* propagation frontier within the trail *)
  mutable conflict : bool; (* the empty clause is derivable at the root *)
  index : (int array, cls list ref) Hashtbl.t;
      (* sorted literals -> live instances, for deletion by value; keyed
         by the clauses' own literal arrays *)
  mutable live : int;
  mutable dead_count : int;
  mutable n_lemmas : int;
  mutable n_deletes : int;
  mutable n_props : int;
}

let create () =
  {
    value = Array.make 16 0;
    occ = Array.init 32 (fun _ -> occ_make ());
    nvars = 0;
    trail = Array.make 16 0;
    trail_len = 0;
    qhead = 0;
    conflict = false;
    index = Hashtbl.create 64;
    live = 0;
    dead_count = 0;
    n_lemmas = 0;
    n_deletes = 0;
    n_props = 0;
  }

let contradiction t = t.conflict
let num_clauses t = t.live
let stats t = (t.n_lemmas, t.n_deletes, t.n_props)

(* occurrence-list slot of a literal *)
let lidx l = (2 * abs l) + if l < 0 then 1 else 0

let grow t v =
  if v > t.nvars then begin
    let cap = Array.length t.value in
    if v >= cap then begin
      let ncap = max (v + 1) (2 * cap) in
      let nv = Array.make ncap 0 in
      Array.blit t.value 0 nv 0 cap;
      t.value <- nv;
      let old = t.occ in
      let nocc =
        Array.init (2 * ncap) (fun i ->
            if i < Array.length old then old.(i) else occ_make ())
      in
      t.occ <- nocc;
      let ntr = Array.make ncap 0 in
      Array.blit t.trail 0 ntr 0 t.trail_len;
      t.trail <- ntr
    end;
    t.nvars <- v
  end

(* truth value of a literal under the current assignment: 0 unknown *)
let lval t l =
  let v = t.value.(abs l) in
  if v = 0 then 0 else if (l > 0) = (v > 0) then 1 else -1

let assign t l =
  t.value.(abs l) <- (if l > 0 then 1 else -1);
  if t.trail_len >= Array.length t.trail then begin
    let ntr = Array.make (max 16 (2 * t.trail_len)) 0 in
    Array.blit t.trail 0 ntr 0 t.trail_len;
    t.trail <- ntr
  end;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

(* Propagate to fixpoint.  Returns false on conflict.  The decrement
   pass over a literal's occurrence list always runs to completion even
   after a conflict, so that [undo_to] (which re-increments the lists of
   every processed trail literal) restores the counters exactly. *)
let propagate t =
  let ok = ref true in
  while !ok && t.qhead < t.trail_len do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_props <- t.n_props + 1;
    let o = t.occ.(lidx (-l)) in
    for i = 0 to o.on - 1 do
      let c = o.oa.(i) in
      if not c.dead then begin
        c.free <- c.free - 1;
        if c.free = 0 then ok := false
        else if c.free = 1 && !ok then begin
          (* locate the single non-false literal *)
          let n = Array.length c.lits in
          let rec find i =
            if i >= n then 0
            else if lval t c.lits.(i) >= 0 then c.lits.(i)
            else find (i + 1)
          in
          let u = find 0 in
          if u <> 0 && lval t u = 0 then assign t u
        end
      end
    done
  done;
  !ok

(* Unwind the trail to [mark], re-incrementing the free counters of the
   clauses whose literal was falsified by each *processed* literal
   (unprocessed trail entries never touched any counter). *)
let undo_to t mark =
  for i = t.trail_len - 1 downto mark do
    let l = t.trail.(i) in
    t.value.(abs l) <- 0;
    if i < t.qhead then begin
      let o = t.occ.(lidx (-l)) in
      for j = 0 to o.on - 1 do
        let c = o.oa.(j) in
        if not c.dead then c.free <- c.free + 1
      done
    end
  done;
  t.trail_len <- mark;
  t.qhead <- mark

(* Rebuild occurrence lists without dead clauses once they dominate, so
   long incremental sessions (which retire whole clause groups) do not
   slow propagation down forever. *)
let compact t =
  Array.iter
    (fun o ->
      let k = ref 0 in
      for i = 0 to o.on - 1 do
        let c = o.oa.(i) in
        if not c.dead then begin
          o.oa.(!k) <- c;
          incr k
        end
      done;
      (* clear the slack so deleted clauses can be collected *)
      for i = !k to o.on - 1 do
        o.oa.(i) <- dummy_cls
      done;
      o.on <- !k)
    t.occ;
  t.dead_count <- 0

let key_of lits = List.sort_uniq compare lits

let tautology key = List.exists (fun l -> List.mem (-l) key) key

(* Register a clause (axiom or verified lemma) into the database and
   propagate any consequence.  Assumes the trail is at the root. *)
let register t lits =
  List.iter
    (fun l -> if l = 0 then invalid_arg "Sat.Checker: zero literal")
    lits;
  let key = key_of lits in
  if tautology key then ()
  else begin
    List.iter (fun l -> grow t (abs l)) key;
    let arr = Array.of_list key in
    let free = ref 0 in
    Array.iter (fun l -> if lval t l >= 0 then incr free) arr;
    let c = { lits = arr; free = !free; dead = false } in
    Array.iter (fun l -> occ_push t.occ.(lidx l) c) arr;
    (match Hashtbl.find_opt t.index arr with
    | Some r -> r := c :: !r
    | None -> Hashtbl.add t.index arr (ref [ c ]));
    t.live <- t.live + 1;
    if c.free = 0 then t.conflict <- true
    else if c.free = 1 then begin
      let rec find i =
        if i >= Array.length arr then 0
        else if lval t arr.(i) >= 0 then arr.(i)
        else find (i + 1)
      in
      let u = find 0 in
      if u <> 0 && lval t u = 0 then begin
        assign t u;
        if not (propagate t) then t.conflict <- true
      end
    end
  end

let add_clause t lits = register t lits

(* Is [clause] derivable by reverse unit propagation?  Assert the
   negation of every literal on top of the root trail, propagate, and
   look for a conflict.  The empty clause is RUP exactly when the root
   formula already propagates to a conflict. *)
let check_rup t clause =
  if t.conflict then true
  else begin
    let mark = t.trail_len in
    let clash = ref false in
    List.iter
      (fun l ->
        if not !clash then
          match lval t l with
          | 1 -> clash := true (* l already implied: negation conflicts *)
          | -1 -> () (* already false: nothing to assert *)
          | _ -> assign t (-l))
      clause;
    let refuted = !clash || not (propagate t) in
    undo_to t mark;
    refuted
  end

let add_lemma t lits =
  if check_rup t lits then begin
    t.n_lemmas <- t.n_lemmas + 1;
    register t lits;
    Ok ()
  end
  else
    Error
      (Printf.sprintf "lemma is not RUP: [%s]"
         (String.concat " " (List.map string_of_int lits)))

(* Delete one live instance of the clause with these literals; a no-op
   when no live instance exists (the solver may delete a clause it
   strengthened at level 0, which the checker never attached in that
   form — ignoring the deletion only leaves the checker with a stronger
   formula, which is sound for certification). *)
let delete_clause t lits =
  let key = Array.of_list (key_of lits) in
  match Hashtbl.find_opt t.index key with
  | None -> ()
  | Some r -> (
      match List.filter (fun c -> not c.dead) !r with
      | [] -> Hashtbl.remove t.index key
      | c :: rest ->
          c.dead <- true;
          if rest = [] then Hashtbl.remove t.index key else r := rest;
          t.live <- t.live - 1;
          t.dead_count <- t.dead_count + 1;
          t.n_deletes <- t.n_deletes + 1;
          if t.dead_count > 2 * (t.live + 16) then compact t)
