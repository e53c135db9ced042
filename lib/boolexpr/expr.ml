(* Nodes are hash-consed: a table keyed by (constructor, child ids) maps to
   the unique node, so structural equality is id equality and the Tseitin
   pass can memoize on ids.  Negation is kept as an explicit node but
   collapses double negations; And/Or normalize argument order by id to
   improve sharing. *)

type t = { id : int; node : node }

and node =
  | True
  | False
  | Var of int
  | Not of t
  | And of t * t
  | Or of t * t

type key = K_true | K_false | K_var of int | K_not of int | K_and of int * int | K_or of int * int

type ctx = {
  tbl : (key, t) Hashtbl.t;
  mutable next_id : int;
  mutable nvars : int;
}

let mk ctx key node =
  match Hashtbl.find_opt ctx.tbl key with
  | Some e -> e
  | None ->
      let e = { id = ctx.next_id; node } in
      ctx.next_id <- ctx.next_id + 1;
      Hashtbl.add ctx.tbl key e;
      e

let create () = { tbl = Hashtbl.create 1024; next_id = 0; nvars = 0 }

let etrue ctx = mk ctx K_true True
let efalse ctx = mk ctx K_false False
let const ctx b = if b then etrue ctx else efalse ctx

let var ctx i =
  if i < 0 then invalid_arg "Expr.var: negative index";
  if i >= ctx.nvars then ctx.nvars <- i + 1;
  mk ctx (K_var i) (Var i)

let fresh_var ctx = var ctx ctx.nvars
let var_index e = match e.node with Var i -> Some i | _ -> None
let equal a b = a.id = b.id
let is_true e = match e.node with True -> true | _ -> false
let is_false e = match e.node with False -> true | _ -> false

let not_ ctx e =
  match e.node with
  | True -> efalse ctx
  | False -> etrue ctx
  | Not x -> x
  | Var _ | And _ | Or _ -> mk ctx (K_not e.id) (Not e)

let and_ ctx a b =
  match (a.node, b.node) with
  | False, _ | _, False -> efalse ctx
  | True, _ -> b
  | _, True -> a
  | _ ->
      if a.id = b.id then a
      else begin
        (* x AND NOT x = false *)
        let contradictory =
          match (a.node, b.node) with
          | Not x, _ when x.id = b.id -> true
          | _, Not y when y.id = a.id -> true
          | _ -> false
        in
        if contradictory then efalse ctx
        else
          let x, y = if a.id <= b.id then (a, b) else (b, a) in
          mk ctx (K_and (x.id, y.id)) (And (x, y))
      end

let or_ ctx a b =
  match (a.node, b.node) with
  | True, _ | _, True -> etrue ctx
  | False, _ -> b
  | _, False -> a
  | _ ->
      if a.id = b.id then a
      else begin
        let tautological =
          match (a.node, b.node) with
          | Not x, _ when x.id = b.id -> true
          | _, Not y when y.id = a.id -> true
          | _ -> false
        in
        if tautological then etrue ctx
        else
          let x, y = if a.id <= b.id then (a, b) else (b, a) in
          mk ctx (K_or (x.id, y.id)) (Or (x, y))
      end

let xor_ ctx a b = or_ ctx (and_ ctx a (not_ ctx b)) (and_ ctx (not_ ctx a) b)
let iff_ ctx a b = not_ ctx (xor_ ctx a b)
let ite ctx c t e = or_ ctx (and_ ctx c t) (and_ ctx (not_ ctx c) e)
let and_list ctx es = List.fold_left (and_ ctx) (etrue ctx) es
let or_list ctx es = List.fold_left (or_ ctx) (efalse ctx) es

let evaluator env =
  (* Memoized on node ids to stay linear in DAG size. *)
  let memo = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.id with
    | Some v -> v
    | None ->
        let v =
          match e.node with
          | True -> true
          | False -> false
          | Var i -> env i
          | Not x -> not (go x)
          | And (x, y) -> go x && go y
          | Or (x, y) -> go x || go y
        in
        Hashtbl.add memo e.id v;
        v
  in
  go

let eval env e = evaluator env e

(* Visit every distinct subexpression once (memoized on node ids). *)
let iter_nodes f e =
  let seen = Hashtbl.create 64 in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      f e;
      match e.node with
      | True | False | Var _ -> ()
      | Not x -> go x
      | And (x, y) | Or (x, y) ->
          go x;
          go y
    end
  in
  go e

let support e =
  let vs = ref [] in
  iter_nodes (fun e -> match e.node with Var i -> vs := i :: !vs | _ -> ()) e;
  List.sort compare !vs

module Cnf = struct
  type clause = int list

  type sink = {
    fresh_var : unit -> int;
    add_clause : int option -> clause -> unit;
        (* [add_clause under c]: [under] is an opaque clause-group tag
           (e.g. a solver activation literal) the sink may use to register
           [c] for group retirement; [None] means ungrouped. *)
  }

  type emitter = {
    sink : sink;
    node_lit : (int, int) Hashtbl.t;   (* expr id -> DIMACS literal *)
    node_owner : (int, int) Hashtbl.t;
        (* expr id -> group tag its definition clauses were emitted
           under; absent = permanent (ungrouped) definitions *)
    retired : (int, unit) Hashtbl.t;   (* group tags retired by the user *)
    asserted : (int, unit) Hashtbl.t;  (* expr ids already unit-asserted *)
    mutable n_clauses : int;
    mutable n_reused : int;
  }

  (* Tseitin encoding: every And/Or node gets a full bi-implication on
     its own SAT variable, and Not maps to literal negation.  The emitter
     allocates a SAT variable for EVERY node, expression variables
     included, from the sink's allocator: the context keeps growing
     fresh expression variables between emissions (one unrolling step at
     a time), so a fixed "expr var i = SAT var i + 1" layout would
     collide with earlier auxiliaries.  Model lookup therefore goes
     through {!find_lit}. *)
  let make_emitter sink =
    {
      sink;
      node_lit = Hashtbl.create 1024;
      node_owner = Hashtbl.create 256;
      retired = Hashtbl.create 64;
      asserted = Hashtbl.create 64;
      n_clauses = 0;
      n_reused = 0;
    }

  (* Tseitin definitions are always emitted ungrouped ([under] absent):
     the memo shares them across clause groups, so they must outlive any
     individual group. *)
  let emit_clause ?under em c =
    em.n_clauses <- em.n_clauses + 1;
    em.sink.add_clause under c

  (* A node is reusable as-is when its definition clauses are permanent,
     or owned by the (live) group the caller is emitting under.  In every
     other case — owner retired, different group, or a permanent caller
     over group-owned definitions — the definitions are re-emitted for
     the same solver variable, so the memoized literal stays stable. *)
  let owner_ok em id under =
    match Hashtbl.find_opt em.node_owner id with
    | None -> true
    | Some g -> (
        (not (Hashtbl.mem em.retired g))
        && match under with Some g' -> g' = g | None -> false)

  let set_owner em id under =
    match under with
    | Some g -> Hashtbl.replace em.node_owner id g
    | None -> Hashtbl.remove em.node_owner id

  let rec lit ?under em e =
    match Hashtbl.find_opt em.node_lit e.id with
    | Some l when owner_ok em e.id under ->
        em.n_reused <- em.n_reused + 1;
        l
    | known ->
        (* [known = Some l]: the node's solver variable exists but its
           definition clauses must be (re-)emitted under [under]. *)
        let var_of () =
          match known with Some l -> abs l | None -> em.sink.fresh_var ()
        in
        let l =
          match e.node with
          | True ->
              let v = var_of () in
              emit_clause ?under em [ v ];
              v
          | False ->
              let v = var_of () in
              emit_clause ?under em [ v ];
              -v
          | Var _ -> em.sink.fresh_var ()
          | Not x ->
              let lx = lit ?under em x in
              (match known with Some l -> l | None -> -lx)
          | And (x, y) ->
              let a = lit ?under em x and b = lit ?under em y in
              let v = var_of () in
              emit_clause ?under em [ -v; a ];
              emit_clause ?under em [ -v; b ];
              emit_clause ?under em [ v; -a; -b ];
              v
          | Or (x, y) ->
              let a = lit ?under em x and b = lit ?under em y in
              let v = var_of () in
              emit_clause ?under em [ -v; a; b ];
              emit_clause ?under em [ v; -a ];
              emit_clause ?under em [ v; -b ];
              v
        in
        (match e.node with Var _ -> () | _ -> set_owner em e.id under);
        if known = None then Hashtbl.add em.node_lit e.id l;
        l

  let retire_owner em g = Hashtbl.replace em.retired g ()

  let find_lit em e = Hashtbl.find_opt em.node_lit e.id

  let emit em es =
    List.iter
      (fun e ->
        let l = lit em e in
        if not (Hashtbl.mem em.asserted e.id) then begin
          Hashtbl.add em.asserted e.id ();
          emit_clause em [ l ]
        end)
      es

  let emitter_stats em = (em.n_clauses, em.n_reused)
end
