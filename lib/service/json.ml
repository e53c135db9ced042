type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

(* Shortest decimal form that round-trips; always carries a '.' or an
   exponent so re-parsing yields a Float again. *)
let float_str f =
  if f <> f || f = infinity || f = neg_infinity then "null"
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match try_prec 15 with
      | Some s -> s
      | None -> (
          match try_prec 16 with
          | Some s -> s
          | None -> Printf.sprintf "%.17g" f)
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec print_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print_to buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          print_to buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_to buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: plain recursive descent over a string with a cursor.       *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then (
    c.pos <- c.pos + n;
    value)
  else fail "invalid literal at offset %d" c.pos

(* UTF-8 encoding of a \uXXXX escape (surrogate pairs handled). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then (
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
  else if code < 0x10000 then (
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
  else (
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek c with
      | Some ('0' .. '9' as x) -> Char.code x - Char.code '0'
      | Some ('a' .. 'f' as x) -> Char.code x - Char.code 'a' + 10
      | Some ('A' .. 'F' as x) -> Char.code x - Char.code 'A' + 10
      | _ -> fail "invalid \\u escape at offset %d" c.pos
    in
    advance c;
    v := (!v lsl 4) lor d
  done;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail "unterminated string at offset %d" c.pos
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; loop ()
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
        | Some 'u' ->
            advance c;
            let hi = hex4 c in
            let code =
              if hi >= 0xD800 && hi <= 0xDBFF then (
                (* surrogate pair: expect \uDC00-\uDFFF next *)
                expect c '\\';
                expect c 'u';
                let lo = hex4 c in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail "lone surrogate at offset %d" c.pos
                else 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
              else hi
            in
            add_utf8 buf code;
            loop ()
        | _ -> fail "invalid escape at offset %d" c.pos)
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () = advance c in
  (match peek c with Some '-' -> consume () | _ -> ());
  let rec digits () =
    match peek c with
    | Some '0' .. '9' ->
        consume ();
        digits ()
    | _ -> ()
  in
  digits ();
  (match peek c with
  | Some '.' ->
      is_float := true;
      consume ();
      digits ()
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      consume ();
      (match peek c with Some ('+' | '-') -> consume () | _ -> ());
      digits ()
  | _ -> ());
  let s = String.sub c.src start (c.pos - start) in
  if s = "" || s = "-" then fail "invalid number at offset %d" start;
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "invalid number %S at offset %d" s start
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        (* overflowing integer literal: keep the value as a float *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "invalid number %S at offset %d" s start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then (
        advance c;
        List [])
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" c.pos
        in
        List (items [])
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then (
        advance c;
        Obj [])
      else
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" c.pos
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected character '%c' at offset %d" ch c.pos

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    fail "trailing garbage at offset %d" c.pos;
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let get k v =
  match member k v with
  | Some x -> x
  | None -> fail "missing field %S" k

let get_opt k v =
  match member k v with Some Null | None -> None | Some x -> Some x

let to_str = function Str s -> s | _ -> fail "expected a string"
let to_list = function List l -> l | _ -> fail "expected an array"
let to_obj = function Obj l -> l | _ -> fail "expected an object"

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> fail "expected a number"

let get_str k v =
  match get k v with Str s -> s | _ -> fail "field %S: expected a string" k

let get_int k v =
  match get k v with Int i -> i | _ -> fail "field %S: expected an integer" k

let get_bool k v =
  match get k v with
  | Bool b -> b
  | _ -> fail "field %S: expected a boolean" k

let get_str_opt k v =
  match get_opt k v with
  | None -> None
  | Some (Str s) -> Some s
  | Some _ -> fail "field %S: expected a string" k

let get_int_opt k v =
  match get_opt k v with
  | None -> None
  | Some (Int i) -> Some i
  | Some _ -> fail "field %S: expected an integer" k

let get_bool_default k d v =
  match get_opt k v with
  | None -> d
  | Some (Bool b) -> b
  | Some _ -> fail "field %S: expected a boolean" k

let get_int_default k d v =
  match get_opt k v with
  | None -> d
  | Some (Int i) -> i
  | Some _ -> fail "field %S: expected an integer" k
