(* Reference outputs the workloads check against, embedded at build time
   from golden/*.json (see the rule in ./dune), so the benchmark finds
   them from any working directory. *)

module Json = Ftrsn_service.Json

type table = {
  rows : Json.t list;
  precision : (string * int) list;
      (* digits each float field is compared at; fields without an entry
         (the counts) must match exactly *)
}

let table_of_string s =
  let doc = Json.of_string s in
  let precision =
    match Json.get "precision" doc with
    | Json.Obj fields -> List.map (fun (k, v) -> (k, int_of_float (Json.to_float v))) fields
    | _ -> raise (Json.Parse_error "precision: expected an object")
  in
  { rows = Json.to_list (Json.get "rows" doc); precision }

let table1 = lazy (table_of_string Golden_data.table1)
let pairs = lazy (table_of_string Golden_data.pairs)

let table1_row soc =
  match
    List.find_opt (fun r -> Json.get_str "soc" r = soc) (Lazy.force table1).rows
  with
  | Some r -> r
  | None -> invalid_arg ("no golden Table I row for " ^ soc)

(* Compares live values with the golden object [g], field by field. *)
let check tbl ~what g fields =
  let bad =
    List.filter_map
      (fun (k, v) ->
        let gv = Json.to_float (Json.get k g) in
        let show x =
          match List.assoc_opt k tbl.precision with
          | Some d -> Printf.sprintf "%.*f" d x
          | None -> Printf.sprintf "%.17g" x
        in
        if show v = show gv then None
        else Some (Printf.sprintf "%s %s = %s, golden %s" what k (show v) (show gv)))
      fields
  in
  if bad = [] then Ok () else Error (String.concat "; " bad)
