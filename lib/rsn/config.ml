type t = {
  shadows : bool array array;
  primaries : (string * bool) list;
}

let reset (net : Netlist.t) =
  {
    shadows = Array.map (fun s -> Array.copy s.Netlist.seg_reset) net.segs;
    primaries = [];
  }

let copy c = { c with shadows = Array.map Array.copy c.shadows }

let equal a b =
  a.primaries = b.primaries
  && Array.length a.shadows = Array.length b.shadows
  && Array.for_all2 (fun x y -> x = y) a.shadows b.shadows

let get_shadow c ~seg ~bit = c.shadows.(seg).(bit)
let set_shadow c ~seg ~bit v = c.shadows.(seg).(bit) <- v

let set_primary c name v =
  { c with primaries = (name, v) :: List.remove_assoc name c.primaries }

let control_value (_net : Netlist.t) c = function
  | Netlist.Ctrl_const b -> b
  | Netlist.Ctrl_shadow { cseg; cbit } -> c.shadows.(cseg).(cbit)
  | Netlist.Ctrl_primary name ->
      Option.value ~default:false (List.assoc_opt name c.primaries)

(* The input index mux [m] selects under [c], or [None] if the address
   decodes outside the input range. *)
let mux_selection (net : Netlist.t) c m =
  let mux = net.muxes.(m) in
  let v = ref 0 in
  Array.iteri
    (fun i a -> if control_value net c a then v := !v lor (1 lsl i))
    mux.mux_addr;
  if !v < Array.length mux.mux_inputs then Some !v else None

(* Trace from the scan-out driver backwards through muxes and segments.  A
   bound on steps guards against malformed netlists (validation rejects
   cyclic ones, but tracing must not diverge on unvalidated input). *)
let active_path (net : Netlist.t) c =
  let bound = 2 * (Netlist.Elt.count net + 1) in
  let rec walk node acc steps =
    if steps > bound then None
    else
      match node with
      | Netlist.Scan_in -> Some acc
      | Netlist.Scan_out -> None
      | Netlist.Seg i -> walk net.segs.(i).seg_input (i :: acc) (steps + 1)
      | Netlist.Mux m -> (
          match mux_selection net c m with
          | None -> None
          | Some k -> walk net.muxes.(m).mux_inputs.(k) acc (steps + 1))
  in
  walk net.out_src [] 0

let path_length (net : Netlist.t) path =
  List.fold_left (fun acc i -> acc + net.segs.(i).seg_len) 0 path

let is_selected net c i =
  match active_path net c with
  | None -> false
  | Some path -> List.mem i path
