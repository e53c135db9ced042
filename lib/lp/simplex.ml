(* Two-phase dense primal simplex on a row-major tableau.

   On [solve] the stated problem is normalized:
   - each variable x_i is shifted by its lower bound (y_i = x_i - lo_i);
   - a finite upper bound becomes an extra <= row;
   - rows are sign-normalized to rhs >= 0, then get a slack (<=), a surplus
     plus artificial (>=) or an artificial (=).

   Phase 1 minimizes the artificial sum; phase 2 the shifted objective.
   Dantzig pricing with a Bland fallback kicks in after an iteration budget
   to rule out cycling. *)

type relop = Le | Ge | Eq

type row = { coeffs : (int * float) list; op : relop; rhs : float }

type problem = {
  nv : int;
  obj : float array;
  mutable rows : row list;
  lo : float array;
  hi : float array;
}

let make ~num_vars ~objective =
  if Array.length objective <> num_vars then
    invalid_arg "Simplex.make: objective length mismatch";
  {
    nv = num_vars;
    obj = Array.copy objective;
    rows = [];
    lo = Array.make num_vars 0.0;
    hi = Array.make num_vars infinity;
  }

let add_constraint p ~coeffs ~op ~rhs =
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= p.nv then
        invalid_arg "Simplex.add_constraint: variable out of range")
    coeffs;
  (* Sum duplicates for a well-formed row. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (i, a) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl i) in
      Hashtbl.replace tbl i (prev +. a))
    coeffs;
  let coeffs = Hashtbl.fold (fun i a acc -> (i, a) :: acc) tbl [] in
  p.rows <- { coeffs; op; rhs } :: p.rows

let set_bounds p i ~lo ~hi =
  if i < 0 || i >= p.nv then invalid_arg "Simplex.set_bounds: bad variable";
  if lo < 0.0 || lo > hi then invalid_arg "Simplex.set_bounds: bad bounds";
  p.lo.(i) <- lo;
  p.hi.(i) <- hi

let num_vars p = p.nv

type outcome =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* A normalized row in tableau construction: dense coeffs over the original
   variables, op, rhs (>= 0 after sign normalization). *)
type norm_row = { a : float array; mutable nop : relop; mutable b : float }

exception Unbounded_exn

let solve p =
  let nv = p.nv in
  (* Shifted rows: substitute x = lo + y. *)
  let base_rows =
    List.rev_map
      (fun r ->
        let a = Array.make nv 0.0 in
        List.iter (fun (i, c) -> a.(i) <- a.(i) +. c) r.coeffs;
        let shift =
          List.fold_left (fun acc (i, c) -> acc +. (c *. p.lo.(i))) 0.0 r.coeffs
        in
        { a; nop = r.op; b = r.rhs -. shift })
      p.rows
  in
  (* Upper-bound rows: y_i <= hi - lo. *)
  let ub_rows =
    List.concat
      (List.init nv (fun i ->
           if p.hi.(i) < infinity then begin
             let a = Array.make nv 0.0 in
             a.(i) <- 1.0;
             [ { a; nop = Le; b = p.hi.(i) -. p.lo.(i) } ]
           end
           else []))
  in
  let rows = base_rows @ ub_rows in
  (* Quick infeasibility: bounds crossing was rejected at set_bounds, but an
     upper-bound row with negative rhs can arise only from lo > hi. *)
  List.iter
    (fun r ->
      if r.b < 0.0 then begin
        (* Normalize to rhs >= 0. *)
        Array.iteri (fun j v -> r.a.(j) <- -.v) r.a;
        r.b <- -.r.b;
        r.nop <- (match r.nop with Le -> Ge | Ge -> Le | Eq -> Eq)
      end)
    rows;
  let m = List.length rows in
  (* Column layout: [0, nv) structural, then one slack/surplus per Le/Ge
     row, then one artificial per Ge/Eq row. *)
  let n_slack =
    List.fold_left
      (fun acc r -> match r.nop with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let n_art =
    List.fold_left
      (fun acc r -> match r.nop with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let ncols = nv + n_slack + n_art in
  let t = Array.make_matrix m (ncols + 1) 0.0 in
  let basis = Array.make m (-1) in
  let art_cols = ref [] in
  let slack_cursor = ref nv in
  let art_cursor = ref (nv + n_slack) in
  List.iteri
    (fun i r ->
      Array.blit r.a 0 t.(i) 0 nv;
      t.(i).(ncols) <- r.b;
      (match r.nop with
      | Le ->
          t.(i).(!slack_cursor) <- 1.0;
          basis.(i) <- !slack_cursor;
          incr slack_cursor
      | Ge ->
          t.(i).(!slack_cursor) <- -1.0;
          incr slack_cursor;
          t.(i).(!art_cursor) <- 1.0;
          basis.(i) <- !art_cursor;
          art_cols := !art_cursor :: !art_cols;
          incr art_cursor
      | Eq ->
          t.(i).(!art_cursor) <- 1.0;
          basis.(i) <- !art_cursor;
          art_cols := !art_cursor :: !art_cols;
          incr art_cursor))
    rows;
  let is_art = Array.make ncols false in
  List.iter (fun c -> is_art.(c) <- true) !art_cols;

  let pivot ri cj =
    let prow = t.(ri) in
    let pv = prow.(cj) in
    for j = 0 to ncols do
      prow.(j) <- prow.(j) /. pv
    done;
    for i = 0 to m - 1 do
      if i <> ri then begin
        let f = t.(i).(cj) in
        if abs_float f > 0.0 then
          for j = 0 to ncols do
            t.(i).(j) <- t.(i).(j) -. (f *. prow.(j))
          done
      end
    done;
    basis.(ri) <- cj
  in

  (* Run simplex iterations minimizing objective [c] over allowed columns.
     Returns the objective value.  Raises Unbounded_exn. *)
  let run_phase c allowed =
    (* Reduced costs: z_j = c_j - c_B B^-1 A_j, computed directly from the
       tableau since rows are B^-1 A. *)
    let reduced = Array.make ncols 0.0 in
    let obj_val () =
      let v = ref 0.0 in
      for i = 0 to m - 1 do
        v := !v +. (c.(basis.(i)) *. t.(i).(ncols))
      done;
      !v
    in
    let recompute () =
      for j = 0 to ncols - 1 do
        if allowed.(j) then begin
          let z = ref c.(j) in
          for i = 0 to m - 1 do
            if abs_float t.(i).(j) > 0.0 then
              z := !z -. (c.(basis.(i)) *. t.(i).(j))
          done;
          reduced.(j) <- !z
        end
        else reduced.(j) <- infinity
      done
    in
    let iterations = ref 0 in
    let budget = 50 * (m + ncols + 10) in
    let continue = ref true in
    while !continue do
      recompute ();
      incr iterations;
      let bland = !iterations > budget in
      (* Entering column. *)
      let enter = ref (-1) in
      if bland then begin
        (try
           for j = 0 to ncols - 1 do
             if allowed.(j) && reduced.(j) < -.eps then begin
               enter := j;
               raise Exit
             end
           done
         with Exit -> ())
      end
      else begin
        let best = ref (-.eps) in
        for j = 0 to ncols - 1 do
          if allowed.(j) && reduced.(j) < !best then begin
            best := reduced.(j);
            enter := j
          end
        done
      end;
      if !enter < 0 then continue := false
      else begin
        (* Ratio test (Bland tie-break on basis variable index). *)
        let leave = ref (-1) in
        let best_ratio = ref infinity in
        for i = 0 to m - 1 do
          let aij = t.(i).(!enter) in
          if aij > eps then begin
            let ratio = t.(i).(ncols) /. aij in
            if
              ratio < !best_ratio -. eps
              || (ratio < !best_ratio +. eps
                 && (!leave < 0 || basis.(i) < basis.(!leave)))
            then begin
              best_ratio := ratio;
              leave := i
            end
          end
        done;
        if !leave < 0 then raise Unbounded_exn;
        pivot !leave !enter
      end
    done;
    obj_val ()
  in

  try
    (* Phase 1. *)
    let c1 = Array.make ncols 0.0 in
    List.iter (fun j -> c1.(j) <- 1.0) !art_cols;
    let allowed1 = Array.make ncols true in
    let v1 = if !art_cols = [] then 0.0 else run_phase c1 allowed1 in
    if v1 > 1e-7 then Infeasible
    else begin
      (* Drive remaining artificials out of the basis where possible. *)
      for i = 0 to m - 1 do
        if is_art.(basis.(i)) then begin
          let found = ref (-1) in
          for j = 0 to ncols - 1 do
            if !found < 0 && (not is_art.(j)) && abs_float t.(i).(j) > eps
            then found := j
          done;
          if !found >= 0 then pivot i !found
          (* else: the row is redundant (all-zero over structurals);
             the artificial stays basic at value zero, harmless if barred
             from re-entering. *)
        end
      done;
      (* Phase 2: original (shifted) objective, artificials barred. *)
      let c2 = Array.make ncols 0.0 in
      Array.blit p.obj 0 c2 0 nv;
      let allowed2 = Array.init ncols (fun j -> not is_art.(j)) in
      let v2 = run_phase c2 allowed2 in
      let x = Array.copy p.lo in
      for i = 0 to m - 1 do
        if basis.(i) < nv then
          x.(basis.(i)) <- x.(basis.(i)) +. t.(i).(ncols)
      done;
      let shift_obj =
        let s = ref 0.0 in
        for i = 0 to nv - 1 do
          s := !s +. (p.obj.(i) *. p.lo.(i))
        done;
        !s
      in
      Optimal { obj = v2 +. shift_obj; x }
    end
  with Unbounded_exn -> Unbounded
