module Json = Ftrsn_service.Json

type span = {
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_parent : int;
  sp_req : int option;
}

type t = { mutable items : span array; mutable n : int; mutable open_ : int list }

let create () = { items = [||]; n = 0; open_ = [] }

let push t sp =
  if t.n = Array.length t.items then begin
    let bigger = Array.make (max 64 (2 * t.n)) sp in
    Array.blit t.items 0 bigger 0 t.n;
    t.items <- bigger
  end;
  t.items.(t.n) <- sp;
  t.n <- t.n + 1;
  t.n - 1

let current t = match t.open_ with i :: _ -> i | [] -> -1

let add t ?req ?parent name ~start ~stop =
  let sp_parent = match parent with Some p -> p | None -> current t in
  push t { sp_name = name; sp_start = start; sp_stop = stop; sp_parent; sp_req = req }

let with_span t ?req name f =
  let start = Unix.gettimeofday () in
  let i = add t ?req name ~start ~stop:start in
  t.open_ <- i :: t.open_;
  let close () =
    t.open_ <- List.tl t.open_;
    t.items.(i) <- { (t.items.(i)) with sp_stop = Unix.gettimeofday () }
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans t = Array.sub t.items 0 t.n

(* Length of the union of [children]'s intervals clipped to [lo, hi]. *)
let covered lo hi children =
  let ivs =
    List.sort compare
      (List.filter_map
         (fun c ->
           let a = Float.max lo c.sp_start and b = Float.min hi c.sp_stop in
           if b > a then Some (a, b) else None)
         children)
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun sp -> if sp.sp_parent >= 0 then
        children.(sp.sp_parent) <- sp :: children.(sp.sp_parent))
    spans;
  let order = ref [] and sums = Hashtbl.create 32 in
  Array.iteri
    (fun i sp ->
      let self =
        sp.sp_stop -. sp.sp_start -. covered sp.sp_start sp.sp_stop children.(i)
      in
      match Hashtbl.find_opt sums sp.sp_name with
      | Some s -> Hashtbl.replace sums sp.sp_name (s +. self)
      | None ->
          order := sp.sp_name :: !order;
          Hashtbl.replace sums sp.sp_name self)
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find sums name)) !order

let to_json spans =
  let t0 = Array.fold_left (fun m sp -> Float.min m sp.sp_start) infinity spans in
  let us x = Json.Float (1e6 *. x) in
  let event sp =
    Json.Obj
      ([
         ("name", Json.Str sp.sp_name);
         ("ph", Json.Str "X");
         ("ts", us (sp.sp_start -. t0));
         ("dur", us (sp.sp_stop -. sp.sp_start));
         ("pid", Json.Int 1);
         ("tid", Json.Int (match sp.sp_req with Some r -> r + 2 | None -> 1));
       ]
      @
      match sp.sp_req with
      | Some r -> [ ("args", Json.Obj [ ("req", Json.Int r) ]) ]
      | None -> [])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (Array.to_list (Array.map event spans)));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json spans));
      output_char oc '\n')
