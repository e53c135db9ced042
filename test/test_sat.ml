(* Tests for the boolean expression layer and the CDCL SAT solver,
   including a qcheck cross-validation against brute-force enumeration. *)

module Expr = Ftrsn_boolexpr.Expr
module Solver = Ftrsn_sat.Solver

let check = Alcotest.check
let bool_t = Alcotest.bool

let is_sat = function Solver.Sat -> true | Solver.Unsat -> false

let test_trivial_sat () =
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  check bool_t "unit clause" true (is_sat (Solver.solve s));
  check bool_t "value" true (Solver.value s 1)

let test_trivial_unsat () =
  let s = Solver.create () in
  Solver.add_clause s [ 1 ];
  Solver.add_clause s [ -1 ];
  check bool_t "contradiction" false (is_sat (Solver.solve s))

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  check bool_t "empty clause" false (is_sat (Solver.solve s));
  check bool_t "zero literal rejected by the solver" true
    (try
       Solver.add_clause (Solver.create ()) [ 1; 0; 2 ];
       false
     with Invalid_argument _ -> true)

let test_no_clauses () =
  let s = Solver.create () in
  Solver.ensure_vars s 3;
  check bool_t "vacuous" true (is_sat (Solver.solve s))

let test_implication_chain () =
  let s = Solver.create () in
  let n = 50 in
  for i = 1 to n - 1 do
    Solver.add_clause s [ -i; i + 1 ]
  done;
  Solver.add_clause s [ 1 ];
  check bool_t "chain sat" true (is_sat (Solver.solve s));
  for i = 1 to n do
    check bool_t (Printf.sprintf "var %d forced" i) true (Solver.value s i)
  done;
  Solver.add_clause s [ -n ];
  check bool_t "chain + negation unsat" false (is_sat (Solver.solve s))

let test_xor_constraints () =
  (* x xor y, y xor z, x xor z is unsat (parity argument). *)
  let s = Solver.create () in
  let xor a b =
    Solver.add_clause s [ a; b ];
    Solver.add_clause s [ -a; -b ]
  in
  xor 1 2;
  xor 2 3;
  xor 1 3;
  check bool_t "odd xor cycle" false (is_sat (Solver.solve s))

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: var p*2+h+1 means pigeon p in hole h. *)
  let s = Solver.create () in
  let v p h = (p * 2) + h + 1 in
  for p = 0 to 2 do
    Solver.add_clause s [ v p 0; v p 1 ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Solver.add_clause s [ -(v p1 h); -(v p2 h) ]
      done
    done
  done;
  check bool_t "PHP(3,2) unsat" false (is_sat (Solver.solve s))

let test_pigeonhole_4_3 () =
  let s = Solver.create () in
  let v p h = (p * 3) + h + 1 in
  for p = 0 to 3 do
    Solver.add_clause s [ v p 0; v p 1; v p 2 ]
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Solver.add_clause s [ -(v p1 h); -(v p2 h) ]
      done
    done
  done;
  check bool_t "PHP(4,3) unsat" false (is_sat (Solver.solve s))

let test_assumptions () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check bool_t "sat with assumption -1" true
    (is_sat (Solver.solve ~assumptions:[ -1 ] s));
  check bool_t "forced 2" true (Solver.value s 2);
  check bool_t "unsat with both negative" false
    (is_sat (Solver.solve ~assumptions:[ -1; -2 ] s));
  check bool_t "solver usable after assumption unsat" true
    (is_sat (Solver.solve s))

let test_incremental () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  check bool_t "first solve" true (is_sat (Solver.solve s));
  Solver.add_clause s [ -1 ];
  check bool_t "still sat" true (is_sat (Solver.solve s));
  check bool_t "2 forced now" true (Solver.value s 2);
  Solver.add_clause s [ -2 ];
  check bool_t "now unsat" false (is_sat (Solver.solve s));
  check bool_t "stays unsat" false (is_sat (Solver.solve s))

let test_model_satisfies () =
  (* A moderately constrained instance; check the model satisfies every
     clause. *)
  let clauses =
    [ [ 1; 2; -3 ]; [ -1; 3 ]; [ 2; 3; 4 ]; [ -4; -2 ]; [ 1; -2; 3; -4 ]; [ -3; 4; 5 ] ]
  in
  let s = Solver.create () in
  List.iter (Solver.add_clause s) clauses;
  check bool_t "sat" true (is_sat (Solver.solve s));
  List.iter
    (fun c ->
      let sat_clause =
        List.exists
          (fun l ->
            let v = Solver.value s (abs l) in
            if l > 0 then v else not v)
          c
      in
      check bool_t "clause satisfied" true sat_clause)
    clauses

let test_failed_assumptions () =
  let s = Solver.create () in
  Solver.add_clause s [ -1; 2 ];
  Solver.add_clause s [ -2; 3 ];
  (* Assuming 1 and -3 contradicts the implication chain; 5 is idle. *)
  check bool_t "unsat under assumptions" false
    (is_sat (Solver.solve ~assumptions:[ 1; -3; 5 ] s));
  let failed = Solver.failed_assumptions s in
  check bool_t "1 failed" true (List.mem 1 failed);
  check bool_t "-3 failed" true (List.mem (-3) failed);
  check bool_t "idle assumption not blamed" false (List.mem 5 failed);
  check bool_t "sat again without them" true
    (is_sat (Solver.solve ~assumptions:[ 1; 3 ] s));
  check bool_t "failed cleared on sat" true
    (Solver.failed_assumptions s = [])

let test_activation_groups () =
  let s = Solver.create () in
  let a = Solver.new_activation s and b = Solver.new_activation s in
  let x = Solver.new_var s in
  Solver.add_clause_under s a [ x ];
  Solver.add_clause_under s b [ -x ];
  (* Each group alone is consistent; both together clash on x. *)
  check bool_t "group a alone" true (is_sat (Solver.solve ~assumptions:[ a ] s));
  check bool_t "x under a" true (Solver.value s x);
  check bool_t "group b alone" true (is_sat (Solver.solve ~assumptions:[ b ] s));
  check bool_t "!x under b" false (Solver.value s x);
  check bool_t "groups clash" false
    (is_sat (Solver.solve ~assumptions:[ a; b ] s));
  check bool_t "no groups, no constraint" true (is_sat (Solver.solve s))

let test_retire_activation () =
  let s = Solver.create () in
  let a = Solver.new_activation s in
  let x = Solver.new_var s in
  Solver.add_clause_under s a [ x ];
  check bool_t "active" true (is_sat (Solver.solve ~assumptions:[ a ] s));
  Solver.retire_activation s a;
  check bool_t "solver still sat" true (is_sat (Solver.solve s));
  check bool_t "assuming retired activation is unsat" false
    (is_sat (Solver.solve ~assumptions:[ a ] s));
  check bool_t "retired activation blamed" true
    (List.mem a (Solver.failed_assumptions s));
  (* x is no longer constrained: it can be assumed either way. *)
  check bool_t "x free (true)" true
    (is_sat (Solver.solve ~assumptions:[ x ] s));
  check bool_t "x free (false)" true
    (is_sat (Solver.solve ~assumptions:[ -x ] s))

(* --- boolexpr tests --- *)

let test_expr_fold_constants () =
  let ctx = Expr.create () in
  let x = Expr.fresh_var ctx in
  check bool_t "x & true = x" true
    (Expr.equal (Expr.and_ ctx x (Expr.etrue ctx)) x);
  check bool_t "x | false = x" true
    (Expr.equal (Expr.or_ ctx x (Expr.efalse ctx)) x);
  check bool_t "x & false = false" true
    (Expr.is_false (Expr.and_ ctx x (Expr.efalse ctx)));
  check bool_t "x & !x = false" true
    (Expr.is_false (Expr.and_ ctx x (Expr.not_ ctx x)));
  check bool_t "x | !x = true" true
    (Expr.is_true (Expr.or_ ctx x (Expr.not_ ctx x)));
  check bool_t "!!x = x" true (Expr.equal (Expr.not_ ctx (Expr.not_ ctx x)) x)

let test_expr_hash_consing () =
  let ctx = Expr.create () in
  let x = Expr.var ctx 0 and y = Expr.var ctx 1 in
  let a = Expr.and_ ctx x y and b = Expr.and_ ctx y x in
  check bool_t "commutative sharing" true (Expr.equal a b)

let test_expr_eval () =
  let ctx = Expr.create () in
  let x = Expr.var ctx 0 and y = Expr.var ctx 1 and z = Expr.var ctx 2 in
  let e = Expr.ite ctx x (Expr.xor_ ctx y z) (Expr.iff_ ctx y z) in
  let eval vx vy vz =
    Expr.eval (fun i -> [| vx; vy; vz |].(i)) e
  in
  check bool_t "ite true branch" true (eval true true false);
  check bool_t "ite true branch both" false (eval true true true);
  check bool_t "ite false branch" true (eval false true true);
  check bool_t "ite false branch diff" false (eval false true false)

(* A streaming emitter straight into [s], every clause ungrouped. *)
let emitter_into s =
  Expr.Cnf.make_emitter
    {
      Expr.Cnf.fresh_var = (fun () -> Solver.new_var s);
      add_clause = (fun _ c -> Solver.add_clause s c);
    }

(* The value a model gives an emitted expression variable. *)
let model_value s em v =
  match Expr.Cnf.find_lit em v with
  | Some l -> Solver.value s (abs l) = (l > 0)
  | None -> Alcotest.fail "variable never reached the solver"

let test_tseitin_roundtrip () =
  (* The emitted CNF of an expression is satisfiable exactly when the
     expression is, and SAT models, read back through [find_lit],
     evaluate the expression to true. *)
  let ctx = Expr.create () in
  let x = Expr.var ctx 0 and y = Expr.var ctx 1 and z = Expr.var ctx 2 in
  let e =
    Expr.and_ ctx (Expr.or_ ctx x (Expr.not_ ctx y)) (Expr.xor_ ctx y z)
  in
  let s = Solver.create () in
  let em = emitter_into s in
  Expr.Cnf.emit em [ e ];
  check bool_t "sat" true (is_sat (Solver.solve s));
  let env i = model_value s em [| x; y; z |].(i) in
  check bool_t "model satisfies expression" true (Expr.eval env e)

let test_tseitin_unsat () =
  let ctx = Expr.create () in
  let x = Expr.var ctx 0 in
  let y = Expr.fresh_var ctx in
  (* (x | y) & !x & !y *)
  let e =
    Expr.and_list ctx
      [ Expr.or_ ctx x y; Expr.not_ ctx x; Expr.not_ ctx y ]
  in
  check bool_t "constant folding already catches it or CNF is unsat" true
    (Expr.is_false e
    ||
    let s = Solver.create () in
    Expr.Cnf.emit (emitter_into s) [ e ];
    not (is_sat (Solver.solve s)))

let test_streaming_emitter () =
  (* The streaming emitter gives the same verdicts as one-shot CNF, and a
     second emission of a shared cone emits no new clauses. *)
  let ctx = Expr.create () in
  let x = Expr.fresh_var ctx and y = Expr.fresh_var ctx in
  let shared = Expr.xor_ ctx x y in
  let s = Solver.create () in
  let em = emitter_into s in
  Expr.Cnf.emit em [ shared ];
  let emitted1, _ = Expr.Cnf.emitter_stats em in
  check bool_t "first emission emits" true (emitted1 > 0);
  check bool_t "xor satisfiable" true (is_sat (Solver.solve s));
  let lx = Option.get (Expr.Cnf.find_lit em x) in
  let ly = Option.get (Expr.Cnf.find_lit em y) in
  check bool_t "model satisfies xor" true
    (Solver.value s (abs lx) <> Solver.value s (abs ly));
  (* Re-asserting the same expression: pure memo hits, zero new clauses. *)
  Expr.Cnf.emit em [ shared ];
  let emitted2, reused2 = Expr.Cnf.emitter_stats em in
  check bool_t "re-emission emits nothing" true (emitted2 = emitted1);
  check bool_t "re-emission is a memo hit" true (reused2 > 0);
  (* A superexpression reuses the shared cone: only the new node emits. *)
  let z = Expr.fresh_var ctx in
  Expr.Cnf.emit em [ Expr.and_ ctx shared z ];
  let emitted3, _ = Expr.Cnf.emitter_stats em in
  check bool_t "superexpression reuses cone" true
    (emitted3 - emitted2 <= 5);
  check bool_t "still satisfiable" true (is_sat (Solver.solve s));
  let lz = Option.get (Expr.Cnf.find_lit em z) in
  check bool_t "z forced by conjunction" true (Solver.value s (abs lz) = (lz > 0))

let test_emitter_under_activations () =
  (* Streamed cones gated by activation literals: the emitter encodes the
     definition clauses once; contradictory groups only clash when both
     are assumed. *)
  let ctx = Expr.create () in
  let x = Expr.fresh_var ctx and y = Expr.fresh_var ctx in
  let e = Expr.and_ ctx x y in
  let s = Solver.create () in
  let em = emitter_into s in
  let a = Solver.new_activation s and b = Solver.new_activation s in
  let le = Expr.Cnf.lit em e in
  Expr.Cnf.emit_clause em [ -a; le ];
  Expr.Cnf.emit_clause em [ -b; -le ];
  check bool_t "a: conjunction holds" true
    (is_sat (Solver.solve ~assumptions:[ a ] s));
  let lx = Option.get (Expr.Cnf.find_lit em x) in
  check bool_t "a forces x" true (Solver.value s (abs lx) = (lx > 0));
  check bool_t "b alone fine" true (is_sat (Solver.solve ~assumptions:[ b ] s));
  check bool_t "a and b clash" false
    (is_sat (Solver.solve ~assumptions:[ a; b ] s))

(* Brute-force satisfiability of a clause list over n variables. *)
let brute_force_sat n clauses =
  let rec go mask =
    if mask >= 1 lsl n then false
    else
      let ok =
        List.for_all
          (List.exists (fun l ->
               let v = mask land (1 lsl (abs l - 1)) <> 0 in
               if l > 0 then v else not v))
          clauses
      in
      ok || go (mask + 1)
  in
  go 0

let prop_random_3sat =
  QCheck.Test.make ~name:"CDCL agrees with brute force on random 3-SAT"
    ~count:150
    QCheck.(pair (int_range 3 10) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let m = 2 + Random.State.int st (4 * n) in
      let clauses =
        List.init m (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Random.State.int st n in
                if Random.State.bool st then v else -v))
      in
      let s = Solver.create () in
      Solver.ensure_vars s n;
      List.iter (Solver.add_clause s) clauses;
      is_sat (Solver.solve s) = brute_force_sat n clauses)

let prop_model_is_model =
  QCheck.Test.make ~name:"SAT models satisfy all clauses" ~count:150
    QCheck.(pair (int_range 3 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let m = 2 + Random.State.int st (3 * n) in
      let clauses =
        List.init m (fun _ ->
            List.init (1 + Random.State.int st 3) (fun _ ->
                let v = 1 + Random.State.int st n in
                if Random.State.bool st then v else -v))
      in
      let s = Solver.create () in
      Solver.ensure_vars s n;
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Unsat -> true
      | Solver.Sat ->
          List.for_all
            (List.exists (fun l ->
                 let v = Solver.value s (abs l) in
                 if l > 0 then v else not v))
            clauses)

(* --- DRUP proof logging and the independent RUP checker --- *)

module Checker = Ftrsn_sat.Checker

(* A solver wired to a live checker, session-style: inputs mirrored,
   derivations RUP-verified, deletions forwarded.  The first rejected
   lemma is recorded instead of raising, so properties can report it.
   The learnt limit is forced to 0 so that EVERY instance that learns a
   clause also goes through an LBD-tiered reduce_db pass — the checker
   then sees the corresponding deletions too; minimization is on by
   default, so the checked lemmas are the minimized clauses. *)
let certified_solver () =
  let chk = Checker.create () in
  let bad = ref None in
  let s = Solver.create () in
  Solver.set_learnt_limit s (Some 0);
  Solver.set_proof_sink s
    (Some
       (fun ev ->
         match ev with
         | Solver.P_input c -> Checker.add_clause chk c
         | Solver.P_add c -> (
             match Checker.add_lemma chk c with
             | Ok () -> ()
             | Error e -> if !bad = None then bad := Some e)
         | Solver.P_delete c -> Checker.delete_clause chk c));
  (s, chk, bad)

let test_checker_rup () =
  let chk = Checker.create () in
  Checker.add_clause chk [ 1; 2 ];
  Checker.add_clause chk [ -1; 2 ];
  check bool_t "2 is RUP" true (Checker.check_rup chk [ 2 ]);
  check bool_t "1 is not RUP" false (Checker.check_rup chk [ 1 ]);
  check bool_t "tautology trivially RUP" true (Checker.check_rup chk [ 1; -1 ]);
  check bool_t "no contradiction yet" false (Checker.contradiction chk);
  check bool_t "empty clause not RUP on a sat formula" false
    (Checker.check_rup chk []);
  (match Checker.add_lemma chk [ 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check bool_t "bogus lemma rejected" true
    (match Checker.add_lemma chk [ -2; 3 ] with
    | Error _ -> true
    | Ok () -> false);
  Checker.add_clause chk [ -2 ];
  check bool_t "contradiction derived" true (Checker.contradiction chk);
  check bool_t "empty clause RUP once contradictory" true
    (Checker.check_rup chk []);
  check bool_t "zero literal rejected by the checker" true
    (try
       Checker.add_clause (Checker.create ()) [ 0 ];
       false
     with Invalid_argument _ -> true)

let test_checker_deletion () =
  let chk = Checker.create () in
  Checker.add_clause chk [ 1; 2 ];
  Checker.add_clause chk [ 1; 3 ];
  check bool_t "two live clauses" true (Checker.num_clauses chk = 2);
  (* Deleting a clause the checker never attached is a no-op. *)
  Checker.delete_clause chk [ 7; 8 ];
  check bool_t "unknown deletion ignored" true (Checker.num_clauses chk = 2);
  Checker.delete_clause chk [ 2; 1 ];
  check bool_t "set-equal deletion applies" true (Checker.num_clauses chk = 1);
  (* [1] was RUP only through the deleted clause and [1;3]... with
     [1;2] gone, ¬1 propagates 3 and stops: no conflict. *)
  Checker.add_clause chk [ -3; 1 ];
  check bool_t "1 RUP through the live clauses" true
    (Checker.check_rup chk [ 1 ]);
  Checker.delete_clause chk [ 1; 3 ];
  check bool_t "1 no longer RUP after deletion" false
    (Checker.check_rup chk [ 1 ])

let test_certified_php () =
  (* The canonical hard UNSAT family end-to-end: every learnt clause of
     PHP(4,3) and PHP(6,5) verifies, and the final empty clause is
     accepted. *)
  let php holes =
    let s, chk, bad = certified_solver () in
    let v p h = (p * holes) + h + 1 in
    for p = 0 to holes do
      Solver.add_clause s (List.init holes (v p))
    done;
    for h = 0 to holes - 1 do
      for p1 = 0 to holes do
        for p2 = p1 + 1 to holes do
          Solver.add_clause s [ -(v p1 h); -(v p2 h) ]
        done
      done
    done;
    check bool_t
      (Printf.sprintf "PHP(%d,%d) unsat" (holes + 1) holes)
      false
      (is_sat (Solver.solve s));
    check bool_t "no lemma rejected" true (!bad = None);
    check bool_t "refutation certified" true (Checker.contradiction chk);
    let lemmas, _, _ = Checker.stats chk in
    check bool_t "proof is non-trivial" true (lemmas > 0)
  in
  php 3;
  php 5

let test_certified_retirement () =
  (* The PR-1 lifecycle under certification: activation groups, failed
     assumptions, retirement (delete events), revival of the literal's
     clauses as fresh inputs. *)
  let s, chk, bad = certified_solver () in
  let a = Solver.new_activation s and b = Solver.new_activation s in
  let x = Solver.new_var s in
  Solver.add_clause_under s a [ x ];
  Solver.add_clause_under s b [ -x ];
  check bool_t "groups clash" false
    (is_sat (Solver.solve ~assumptions:[ a; b ] s));
  let failed = Solver.failed_assumptions s in
  check bool_t "failed assumptions RUP" true
    (Checker.check_rup chk (List.map (fun l -> -l) failed));
  Solver.retire_activation s a;
  check bool_t "retired activation refuted" false
    (is_sat (Solver.solve ~assumptions:[ a ] s));
  check bool_t "retirement certificate RUP" true
    (Checker.check_rup chk
       (List.map (fun l -> -l) (Solver.failed_assumptions s)));
  (* Revival: a fresh group re-asserts x — delete/re-add must line up. *)
  let a' = Solver.new_activation s in
  Solver.add_clause_under s a' [ x ];
  check bool_t "revived group sat" true
    (is_sat (Solver.solve ~assumptions:[ a' ] s));
  check bool_t "revived clash certified" false
    (is_sat (Solver.solve ~assumptions:[ a'; b ] s));
  check bool_t "final clause RUP after revival" true
    (Checker.check_rup chk
       (List.map (fun l -> -l) (Solver.failed_assumptions s)));
  check bool_t "no lemma rejected" true (!bad = None)

(* --- differential fuzz harness ---

   Random CNF instances (plus random assumption sets and random
   incremental add/solve sequences) where every SAT answer is validated
   by evaluating the model against all clauses and every UNSAT answer is
   validated by the independent RUP checker (and, at these sizes, by
   brute-force enumeration).  Failures shrink through QCheck's list and
   integer shrinkers; testseed.ml prints the reproducing seed. *)

(* Fold arbitrary integers into well-formed DIMACS literals over n vars
   (0 is dropped), so the shrinkers can stay plain list/int shrinkers. *)
let norm_lit n l =
  if l = 0 then None
  else
    let v = ((abs l - 1) mod n) + 1 in
    Some (if l < 0 then -v else v)

let norm_clauses n cls = List.map (List.filter_map (norm_lit n)) cls

let model_satisfies s clauses =
  List.for_all
    (fun c ->
      List.exists
        (fun l ->
          let v = Solver.value s (abs l) in
          if l > 0 then v else not v)
        c)
    clauses

let arb_cnf =
  QCheck.(pair (int_range 1 7) (list_of_size Gen.(0 -- 25) (small_list (int_range (-7) 7))))

let prop_fuzz_certified_cnf =
  QCheck.Test.make ~name:"fuzz: solver vs model-eval / RUP checker / brute force"
    ~count:250 arb_cnf (fun (n, raw) ->
      let clauses = norm_clauses n raw in
      let s, chk, bad = certified_solver () in
      Solver.ensure_vars s n;
      List.iter (Solver.add_clause s) clauses;
      let verdict = Solver.solve s in
      !bad = None
      &&
      match verdict with
      | Solver.Sat ->
          model_satisfies s clauses && brute_force_sat n clauses
      | Solver.Unsat ->
          Checker.contradiction chk
          && Checker.check_rup chk []
          && not (brute_force_sat n clauses))

let arb_cnf_assumptions =
  QCheck.(
    triple (int_range 1 7)
      (list_of_size Gen.(0 -- 20) (small_list (int_range (-7) 7)))
      (small_list (int_range (-7) 7)))

let prop_fuzz_certified_assumptions =
  QCheck.Test.make ~name:"fuzz: assumption solves certified by the RUP checker"
    ~count:150 arb_cnf_assumptions (fun (n, raw, araw) ->
      let clauses = norm_clauses n raw in
      let assumptions = List.filter_map (norm_lit n) araw in
      let s, chk, bad = certified_solver () in
      Solver.ensure_vars s n;
      List.iter (Solver.add_clause s) clauses;
      let verdict = Solver.solve ~assumptions s in
      let units = List.map (fun l -> [ l ]) assumptions in
      !bad = None
      &&
      match verdict with
      | Solver.Sat ->
          model_satisfies s clauses
          && model_satisfies s units
          && brute_force_sat n (clauses @ units)
      | Solver.Unsat ->
          let failed = Solver.failed_assumptions s in
          List.for_all (fun l -> List.mem l assumptions) failed
          && Checker.check_rup chk (List.map (fun l -> -l) failed)
          && not (brute_force_sat n (clauses @ units)))

let arb_incremental =
  QCheck.(
    pair (int_range 1 6)
      (list_of_size
         Gen.(1 -- 5)
         (pair
            (list_of_size Gen.(0 -- 8) (small_list (int_range (-6) 6)))
            (small_list (int_range (-6) 6)))))

let prop_fuzz_certified_incremental =
  QCheck.Test.make
    ~name:"fuzz: incremental add/solve sequences stay certified" ~count:150
    arb_incremental (fun (n, steps) ->
      let s, chk, bad = certified_solver () in
      Solver.ensure_vars s n;
      let sofar = ref [] in
      List.for_all
        (fun (raw, araw) ->
          let batch = norm_clauses n raw in
          let assumptions = List.filter_map (norm_lit n) araw in
          List.iter (Solver.add_clause s) batch;
          sofar := !sofar @ batch;
          let verdict = Solver.solve ~assumptions s in
          let units = List.map (fun l -> [ l ]) assumptions in
          !bad = None
          &&
          match verdict with
          | Solver.Sat ->
              model_satisfies s !sofar
              && model_satisfies s units
              && brute_force_sat n (!sofar @ units)
          | Solver.Unsat ->
              let failed = Solver.failed_assumptions s in
              List.for_all (fun l -> List.mem l assumptions) failed
              && Checker.check_rup chk (List.map (fun l -> -l) failed)
              && not (brute_force_sat n (!sofar @ units)))
        steps)

(* Regression: duplicated assumptions used to open one decision level
   each, overflowing trail_lim (sized by variable count, indexed per
   level).  200 copies over 3 variables crashed the old push_level. *)
let test_duplicate_assumptions () =
  let s = Solver.create () in
  Solver.add_clause s [ 1; 2 ];
  Solver.add_clause s [ -1; 3 ];
  let assumptions =
    List.concat (List.init 200 (fun _ -> [ 1; 2; 3; 1; 1 ]))
  in
  check bool_t "sat under 1000 duplicated assumptions" true
    (is_sat (Solver.solve ~assumptions s));
  check bool_t "assumed 1" true (Solver.value s 1);
  check bool_t "forced 3" true (Solver.value s 3);
  (* And the failed-assumption subset stays duplicate-free and correct. *)
  Solver.add_clause s [ -3 ];
  let assumptions = List.concat (List.init 100 (fun _ -> [ 1; 2 ])) in
  check bool_t "unsat: assumption 1 forces retired 3" false
    (is_sat (Solver.solve ~assumptions s));
  check bool_t "failed subset is [1]" true
    (Solver.failed_assumptions s = [ 1 ])

(* The new search counters actually move on a learning-heavy instance,
   and a forced learnt limit of 0 triggers reductions. *)
let test_search_stats_counters () =
  let s = Solver.create () in
  Solver.set_learnt_limit s (Some 0);
  let v p h = (p * 4) + h + 1 in
  for p = 0 to 4 do
    Solver.add_clause s [ v p 0; v p 1; v p 2; v p 3 ]
  done;
  for h = 0 to 3 do
    for p1 = 0 to 4 do
      for p2 = p1 + 1 to 4 do
        Solver.add_clause s [ -(v p1 h); -(v p2 h) ]
      done
    done
  done;
  check bool_t "PHP(5,4) unsat" false (is_sat (Solver.solve s));
  let st = Solver.search_stats s in
  check bool_t "conflicts counted" true (st.Solver.st_conflicts > 0);
  check bool_t "learnt literals counted" true (st.Solver.st_learnt_lits > 0);
  check bool_t "minimization never inflates" true
    (st.Solver.st_minimized_lits >= 0
    && st.Solver.st_minimized_lits < st.Solver.st_learnt_lits);
  check bool_t "forced limit triggers reductions" true
    (st.Solver.st_reductions > 0);
  check bool_t "learnt DB size is sane" true (st.Solver.st_learnt_db >= 0)

(* --- Proof traces replayed through a fresh checker --- *)

(* Solves [clauses] with a proof sink that records the trace. *)
let traced_solve ~num_vars clauses =
  let s = Solver.create () in
  let trace = ref [] in
  Solver.set_proof_sink s (Some (fun ev -> trace := ev :: !trace));
  Solver.ensure_vars s num_vars;
  List.iter (Solver.add_clause s) clauses;
  let r = Solver.solve s in
  (r, List.rev !trace)

(* Replays a trace through a fresh checker: [(verified, refuted)]. *)
let replay trace =
  let chk = Checker.create () in
  let ok =
    List.for_all
      (fun ev ->
        match ev with
        | Solver.P_input c ->
            Checker.add_clause chk c;
            true
        | Solver.P_add c -> Checker.add_lemma chk c = Ok ()
        | Solver.P_delete c ->
            Checker.delete_clause chk c;
            true)
      trace
  in
  (ok, Checker.contradiction chk)

let test_drat_solver_trace () =
  (* Replaying a real refutation's trace through a fresh checker
     re-certifies the refutation. *)
  let v p h = (p * 2) + h + 1 in
  let clauses =
    List.init 3 (fun p -> [ v p 0; v p 1 ])
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun p1 ->
              List.filter_map
                (fun p2 ->
                  if p2 > p1 then Some [ -(v p1 h); -(v p2 h) ] else None)
                [ 0; 1; 2 ])
            [ 0; 1; 2 ])
        [ 0; 1 ]
  in
  let verdict, trace = traced_solve ~num_vars:6 clauses in
  check bool_t "PHP(3,2) unsat" true (verdict = Solver.Unsat);
  let ok, refuted = replay trace in
  check bool_t "replayed proof verifies" true ok;
  check bool_t "replayed proof refutes" true refuted

let test_dimacs_unsat () =
  let verdict, trace = traced_solve ~num_vars:1 [ [ 1 ]; [ -1 ] ] in
  check bool_t "unsat" true (verdict = Solver.Unsat);
  check bool_t "replayed trace refutes" true (replay trace = (true, true))

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "no clauses" `Quick test_no_clauses;
    Alcotest.test_case "implication chain" `Quick test_implication_chain;
    Alcotest.test_case "xor parity unsat" `Quick test_xor_constraints;
    Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
    Alcotest.test_case "pigeonhole 4/3" `Quick test_pigeonhole_4_3;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "incremental solving" `Quick test_incremental;
    Alcotest.test_case "model satisfies clauses" `Quick test_model_satisfies;
    Alcotest.test_case "failed assumptions" `Quick test_failed_assumptions;
    Alcotest.test_case "activation groups" `Quick test_activation_groups;
    Alcotest.test_case "retire activation" `Quick test_retire_activation;
    Alcotest.test_case "expr constant folding" `Quick test_expr_fold_constants;
    Alcotest.test_case "expr hash consing" `Quick test_expr_hash_consing;
    Alcotest.test_case "expr evaluation" `Quick test_expr_eval;
    Alcotest.test_case "tseitin round trip" `Quick test_tseitin_roundtrip;
    Alcotest.test_case "tseitin unsat" `Quick test_tseitin_unsat;
    Alcotest.test_case "streaming emitter" `Quick test_streaming_emitter;
    Alcotest.test_case "emitter under activations" `Quick
      test_emitter_under_activations;
    Alcotest.test_case "dimacs unsat" `Quick test_dimacs_unsat;
    Testseed.to_alcotest prop_random_3sat;
    Testseed.to_alcotest prop_model_is_model;
    Alcotest.test_case "checker: RUP queries" `Quick test_checker_rup;
    Alcotest.test_case "checker: deletions" `Quick test_checker_deletion;
    Alcotest.test_case "certified pigeonhole" `Quick test_certified_php;
    Alcotest.test_case "certified retirement/revival" `Quick
      test_certified_retirement;
    Alcotest.test_case "drat solver trace" `Quick test_drat_solver_trace;
    Alcotest.test_case "duplicate assumptions (trail_lim)" `Quick
      test_duplicate_assumptions;
    Alcotest.test_case "search stats counters" `Quick
      test_search_stats_counters;
    Testseed.to_alcotest prop_fuzz_certified_cnf;
    Testseed.to_alcotest prop_fuzz_certified_assumptions;
    Testseed.to_alcotest prop_fuzz_certified_incremental;
  ]
