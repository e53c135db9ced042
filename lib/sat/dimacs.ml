type cnf = {
  num_vars : int;
  clauses : int list list;
}

let parse text =
  let lines = String.split_on_char '\n' text in
  let num_vars = ref (-1) in
  let num_clauses = ref (-1) in
  let clauses = ref [] in
  let current = ref [] in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; v; c ] -> (
            match (int_of_string_opt v, int_of_string_opt c) with
            | Some v, Some c ->
                num_vars := v;
                num_clauses := c
            | _ -> fail "malformed p-line")
        | _ -> fail "malformed p-line"
      end
      else
        String.split_on_char ' ' line
        |> List.filter (( <> ) "")
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | None -> fail ("bad literal: " ^ tok)
               | Some 0 ->
                   clauses := List.rev !current :: !clauses;
                   current := []
               | Some l ->
                   if !num_vars >= 0 && abs l > !num_vars then
                     fail ("literal out of range: " ^ tok)
                   else current := l :: !current))
    lines;
  match !error with
  | Some e -> Error e
  | None ->
      if !num_vars < 0 then Error "missing p-line"
      else if !current <> [] then Error "unterminated clause"
      else begin
        let clauses = List.rev !clauses in
        if !num_clauses >= 0 && List.length clauses <> !num_clauses then
          Error "clause count mismatch"
        else Ok { num_vars = !num_vars; clauses }
      end

let print cnf =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" cnf.num_vars (List.length cnf.clauses));
  List.iter
    (fun c ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) c;
      Buffer.add_string buf "0\n")
    cnf.clauses;
  Buffer.contents buf

let solve cnf =
  let s = Solver.create () in
  Solver.ensure_vars s cnf.num_vars;
  List.iter (Solver.add_clause s) cnf.clauses;
  Solver.solve s

(* ---- DRAT proof traces ---- *)

type drat_event = Add of int list | Delete of int list

let drat_of_proof events =
  List.filter_map
    (function
      | Solver.P_input _ -> None
      | Solver.P_add c -> Some (Add c)
      | Solver.P_delete c -> Some (Delete c))
    events

let solve_certified cnf =
  let s = Solver.create () in
  let trace = ref [] in
  Solver.set_proof_sink s (Some (fun ev -> trace := ev :: !trace));
  Solver.ensure_vars s cnf.num_vars;
  List.iter (Solver.add_clause s) cnf.clauses;
  let r = Solver.solve s in
  (r, List.rev !trace)

let print_drat events =
  let buf = Buffer.create 256 in
  List.iter
    (fun ev ->
      let lits =
        match ev with
        | Add lits -> lits
        | Delete lits ->
            Buffer.add_string buf "d ";
            lits
      in
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) lits;
      Buffer.add_string buf "0\n")
    events;
  Buffer.contents buf

let parse_drat text =
  let toks =
    String.split_on_char '\n' text
    |> List.concat_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = 'c' then []
           else
             String.split_on_char ' ' line
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (( <> ) ""))
  in
  let events = ref [] in
  let current = ref [] in
  let deleting = ref false in
  let in_clause = ref false in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  List.iter
    (fun tok ->
      if !error = None then
        if tok = "d" then begin
          if !in_clause then fail "'d' inside a clause" else deleting := true;
          in_clause := true
        end
        else
          match int_of_string_opt tok with
          | None -> fail ("bad literal: " ^ tok)
          | Some 0 ->
              let lits = List.rev !current in
              events :=
                (if !deleting then Delete lits else Add lits) :: !events;
              current := [];
              deleting := false;
              in_clause := false
          | Some l ->
              in_clause := true;
              current := l :: !current)
    toks;
  match !error with
  | Some e -> Error e
  | None ->
      if !in_clause || !current <> [] then Error "unterminated lemma"
      else Ok (List.rev !events)

(* Binary DRAT (the drat-trim wire format): each lemma is a prefix byte
   'a' (add) or 'd' (delete), then each literal as the variable-length
   7-bit little-endian encoding of the unsigned mapping
   [2*|l| + (if l < 0 then 1 else 0)], then a 0x00 terminator. *)

let print_drat_binary events =
  let buf = Buffer.create 256 in
  let emit_lit l =
    let u = ref ((2 * abs l) + if l < 0 then 1 else 0) in
    while !u >= 0x80 do
      Buffer.add_char buf (Char.chr (0x80 lor (!u land 0x7f)));
      u := !u lsr 7
    done;
    Buffer.add_char buf (Char.chr !u)
  in
  List.iter
    (fun ev ->
      let lits =
        match ev with
        | Add lits ->
            Buffer.add_char buf 'a';
            lits
        | Delete lits ->
            Buffer.add_char buf 'd';
            lits
      in
      List.iter emit_lit lits;
      Buffer.add_char buf '\x00')
    events;
  Buffer.contents buf

let parse_drat_binary data =
  let n = String.length data in
  let pos = ref 0 in
  let events = ref [] in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let read_unsigned () =
    (* 7-bit little-endian, high bit = continuation *)
    let u = ref 0 and shift = ref 0 and stop = ref false in
    while (not !stop) && !error = None do
      if !pos >= n then begin
        fail "truncated literal";
        stop := true
      end
      else begin
        let b = Char.code data.[!pos] in
        incr pos;
        u := !u lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        if b < 0x80 then stop := true
        else if !shift > 62 then begin
          fail "literal overflow";
          stop := true
        end
      end
    done;
    !u
  in
  while !pos < n && !error = None do
    let prefix = data.[!pos] in
    incr pos;
    let deleting =
      match prefix with
      | 'a' -> false
      | 'd' -> true
      | c ->
          fail (Printf.sprintf "bad lemma prefix byte 0x%02x" (Char.code c));
          false
    in
    let lits = ref [] in
    let closed = ref false in
    while (not !closed) && !error = None do
      if !pos >= n then fail "missing lemma terminator"
      else begin
        let u = read_unsigned () in
        if !error = None then
          if u = 0 then closed := true
          else if u = 1 then fail "zero literal"
          else
            let l = if u land 1 = 1 then -(u lsr 1) else u lsr 1 in
            lits := l :: !lits
      end
    done;
    if !error = None then
      let lits = List.rev !lits in
      events := (if deleting then Delete lits else Add lits) :: !events
  done;
  match !error with Some e -> Error e | None -> Ok (List.rev !events)
