module Netlist = Ftrsn_rsn.Netlist
module Text = Ftrsn_rsn.Text
module Icl = Ftrsn_rsn.Icl
module Fault = Ftrsn_fault.Fault
module Metric = Ftrsn_core.Metric
module Pipeline = Ftrsn_core.Pipeline
module Augment = Ftrsn_core.Augment

type entry = {
  e_key : string;
  e_net : Netlist.t;
  e_warm : Metric.warm;
  e_synth : Pipeline.result option;  (* Some iff the spec is fault-tolerant *)
  e_mx : Mutex.t;  (* guards the lazily-built lookup tables below *)
  mutable e_segs : (string, int) Hashtbl.t option;
  mutable e_faults : (Fault.model * (string, Fault.t) Hashtbl.t) list;
      (* one name table per fault model, built on first use *)
  (* LRU bookkeeping, guarded by the pool lock *)
  mutable e_pins : int;
  mutable e_last : int;
  mutable e_words : int;     (* last [Obj.reachable_words]; 0 = unmeasured *)
  mutable e_releases : int;  (* releases since the last measurement *)
}

type slot = Building | Ready of entry

type t = {
  mx : Mutex.t;
  cond : Condition.t;  (* signalled when a Building slot resolves *)
  tbl : (string, slot) Hashtbl.t;
  budget : int;  (* bytes *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let word_bytes = Sys.word_size / 8

let create ?(budget_bytes = 256 * 1024 * 1024) () =
  {
    mx = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 16;
    budget = budget_bytes;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

(* ------------------------------------------------------------------ *)
(* Entry construction (runs outside the pool lock)                     *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let build_netlist (spec : Query.net_spec) =
  match spec.Query.ns_source with
  | `Itc02 name -> (
      match Ftrsn_itc02.Itc02.find name with
      | Some soc -> Ok (Ftrsn_itc02.Itc02.rsn soc)
      | None ->
          Error
            (Printf.sprintf "unknown ITC'02 SoC %S (known: %s)" name
               (String.concat ", "
                  (List.map
                     (fun s -> s.Ftrsn_itc02.Itc02.soc_name)
                     Ftrsn_itc02.Itc02.all))))
  | `File path -> (
      match read_file path with
      | exception Sys_error e -> Error e
      | text -> (
          let parsed =
            if Filename.check_suffix path ".icl" then Icl.parse text
            else Text.parse text
          in
          match parsed with
          | Ok net -> Ok net
          | Error e -> Error (Printf.sprintf "%s: %s" path e)))
  | `Inline text -> (
      match Text.parse text with
      | Ok net -> Ok net
      | Error e -> Error (Printf.sprintf "inline netlist: %s" e))

let build_entry key (spec : Query.net_spec) =
  match build_netlist spec with
  | Error _ as e -> e
  | Ok base -> (
      match
        if spec.Query.ns_ft then Some (Pipeline.synthesize base) else None
      with
      | exception Augment.Infeasible short ->
          Error (Augment.describe_infeasible base short)
      | synth ->
          let net = match synth with Some r -> r.Pipeline.ft | None -> base in
          Ok
            {
              e_key = key;
              e_net = net;
              e_warm = Metric.warm net;
              e_synth = synth;
              e_mx = Mutex.create ();
              e_segs = None;
              e_faults = [];
              e_pins = 0;
              e_last = 0;
              e_words = 0;
              e_releases = 0;
            })

(* ------------------------------------------------------------------ *)
(* LRU / byte budget (caller holds the pool lock)                      *)

let evict_to_budget t =
  let total () =
    Hashtbl.fold
      (fun _ slot acc ->
        match slot with Ready e -> acc + (e.e_words * word_bytes) | _ -> acc)
      t.tbl 0
  in
  let victim () =
    Hashtbl.fold
      (fun _ slot best ->
        match slot with
        | Ready e when e.e_pins = 0 && e.e_words > 0 -> (
            match best with
            | Some b when b.e_last <= e.e_last -> best
            | _ -> Some e)
        | _ -> best)
      t.tbl None
  in
  let rec go () =
    if total () > t.budget then
      match victim () with
      | None -> ()  (* everything left is pinned or unmeasured *)
      | Some e ->
          Hashtbl.remove t.tbl e.e_key;
          t.evictions <- t.evictions + 1;
          go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

let rec acquire t spec =
  let key = Query.net_spec_key spec in
  let action =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some (Ready e) ->
            t.hits <- t.hits + 1;
            e.e_pins <- e.e_pins + 1;
            t.tick <- t.tick + 1;
            e.e_last <- t.tick;
            `Hit e
        | Some Building ->
            Condition.wait t.cond t.mx;
            `Retry
        | None ->
            t.misses <- t.misses + 1;
            Hashtbl.replace t.tbl key Building;
            `Build)
  in
  match action with
  | `Hit e -> Ok e
  | `Retry -> acquire t spec
  | `Build -> (
      let built =
        try build_entry key spec
        with e -> Error (Printexc.to_string e)
      in
      match built with
      | Ok entry ->
          (* Not measured yet (e_words = 0): the warm artifacts only
             materialize during the first query, so the first release
             takes the first measurement. *)
          locked t (fun () ->
              entry.e_pins <- 1;
              t.tick <- t.tick + 1;
              entry.e_last <- t.tick;
              Hashtbl.replace t.tbl key (Ready entry);
              evict_to_budget t;
              Condition.broadcast t.cond);
          Ok entry
      | Error msg ->
          locked t (fun () ->
              Hashtbl.remove t.tbl key;
              Condition.broadcast t.cond);
          Error msg)

let release t e =
  locked t (fun () ->
      e.e_pins <- max 0 (e.e_pins - 1);
      e.e_releases <- e.e_releases + 1;
      (* Re-measure only on quiescent entries, amortized: the reachable
         size grows as BMC sessions learn, but a full heap walk per
         release would dominate small queries. *)
      if e.e_pins = 0 && (e.e_words = 0 || e.e_releases >= 16) then begin
        e.e_words <- Obj.reachable_words (Obj.repr e);
        e.e_releases <- 0
      end;
      evict_to_budget t)

let net e = e.e_net
let warm e = e.e_warm

let synthesis e =
  match e.e_synth with
  | Some r -> r
  | None -> invalid_arg "Pool.synthesis: not a fault-tolerant entry"

let entry_locked e f =
  Mutex.lock e.e_mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.e_mx) f

let seg_index e name =
  entry_locked e (fun () ->
      let tbl =
        match e.e_segs with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create (max 16 (Netlist.num_segments e.e_net)) in
            for i = 0 to Netlist.num_segments e.e_net - 1 do
              Hashtbl.replace tbl (Netlist.segment_name e.e_net i) i
            done;
            e.e_segs <- Some tbl;
            tbl
      in
      Hashtbl.find_opt tbl name)

let fault_of_string ?(model = Fault.Stuck) e name =
  entry_locked e (fun () ->
      let tbl =
        match List.assoc_opt model e.e_faults with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 256 in
            List.iter
              (fun f -> Hashtbl.replace tbl (Fault.to_string e.e_net f) f)
              (Fault.universe ~model e.e_net);
            e.e_faults <- (model, tbl) :: e.e_faults;
            tbl
      in
      Hashtbl.find_opt tbl name)

let stats t =
  locked t (fun () ->
      let entries, bytes =
        Hashtbl.fold
          (fun _ slot (n, b) ->
            match slot with
            | Ready e -> (n + 1, b + (e.e_words * word_bytes))
            | Building -> (n, b))
          t.tbl (0, 0)
      in
      {
        Response.po_entries = entries;
        po_bytes = bytes;
        po_budget = t.budget;
        po_hits = t.hits;
        po_misses = t.misses;
        po_evictions = t.evictions;
      })

let session_stats t =
  let entries =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ slot acc ->
            match slot with Ready e -> e :: acc | Building -> acc)
          t.tbl [])
  in
  entries
  |> List.sort (fun a b -> compare a.e_key b.e_key)
  |> List.concat_map (fun e ->
         List.map
           (fun (cert, (st : Ftrsn_bmc.Bmc.Session.stats)) ->
             {
               Response.se_net = e.e_key;
               se_certified = cert;
               se_queries = st.Ftrsn_bmc.Bmc.Session.queries;
               se_solver = Metric.solver_stats_of_session st;
             })
           (Metric.warm_session_stats e.e_warm))
