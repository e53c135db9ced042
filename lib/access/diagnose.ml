module Netlist = Ftrsn_rsn.Netlist
module Config = Ftrsn_rsn.Config
module Sim = Ftrsn_rsn.Sim
module Fault = Ftrsn_fault.Fault

type stimulus = bool list list
type signature = bool list list

(* Textual signature format shared by the CLI and the service layer: one
   0/1 line per diagnostic CSU, blank lines ignored.  The stimulus fixes
   the shape for every fault: one line per CSU, each as long as that
   CSU's scan-in stream (a CSU shifts out one bit per bit shifted in). *)
let signature_of_lines stim lines =
  let lines = List.filter (fun l -> l <> "") (List.map String.trim lines) in
  let rec check k = function
    | [] ->
        Ok
          (List.map
             (fun l -> List.init (String.length l) (fun i -> l.[i] = '1'))
             lines)
    | (l, stream) :: rest ->
        let want = List.length stream in
        if String.length l <> want then
          Error
            (Printf.sprintf "signature line %d must have %d bits, got %d" k
               want (String.length l))
        else if String.exists (fun c -> c <> '0' && c <> '1') l then
          Error (Printf.sprintf "signature line %d must hold only 0 and 1" k)
        else check (k + 1) rest
  in
  if List.length lines <> List.length stim then
    Error
      (Printf.sprintf
         "signature must have %d lines, one per diagnostic CSU, got %d"
         (List.length stim) (List.length lines))
  else check 1 (List.combine lines stim)

let lines_of_signature sg =
  List.map
    (fun bits -> String.concat "" (List.map (fun b -> if b then "1" else "0") bits))
    sg

let alternating len = List.init len (fun i -> i mod 2 = 0)

(* A stream that leaves the path registers holding [flat] AND pushes four
   probe bits all the way through to the scan-out: the probes emerge after
   [length flat] cycles, so the observed offset reveals the effective path
   length of this CSU — the main diagnostic observable, since the capture
   phase zeroes the register contents at each CSU. *)
let stream_with_probe flat =
  let l = Array.length flat in
  List.init (l + 4) (fun t -> if t < 4 then t mod 2 = 0 else flat.(l + 3 - t))

(* The stimulus is computed on the fault-free network: at each step, open
   every mux-driving shadow bit writable on the current active path (this
   splices one more hierarchy level in), shifting a pattern that leaves
   exactly those bits at 1 and an alternating payload elsewhere.  A final
   long CSU observes the fully-opened network. *)
let stimulus (net : Netlist.t) =
  let control = Retarget.control_bits net in
  let is_control s b = List.mem (s, b) control in
  let state = Sim.initial net in
  let streams = ref [] in
  let steps = Netlist.max_hier net + 1 in
  for _ = 1 to steps do
    match Sim.active_path net Sim.no_injection state.Sim.config with
    | None -> ()
    | Some path ->
        (* Desired register contents: control bits at 1, payload
           alternating. *)
        let desired =
          List.map
            (fun s ->
              let seg = net.Netlist.segs.(s) in
              Array.init seg.Netlist.seg_len (fun j ->
                  let off = seg.Netlist.seg_len - seg.Netlist.seg_shadow in
                  if j >= off && is_control s (j - off) then true
                  else j mod 2 = 0))
            path
        in
        let stream = stream_with_probe (Array.concat desired) in
        streams := stream :: !streams;
        let (_ : bool list) = Sim.csu net state ~scan_in:stream in
        ()
  done;
  (* Closing sweep: write every control bit back to 0 and observe the
     collapsed path — this distinguishes stuck-OPEN control faults, which
     the opening sweep alone cannot see. *)
  (match Sim.active_path net Sim.no_injection state.Sim.config with
  | Some path ->
      let desired =
        List.map
          (fun s ->
            let seg = net.Netlist.segs.(s) in
            Array.init seg.Netlist.seg_len (fun j ->
                let off = seg.Netlist.seg_len - seg.Netlist.seg_shadow in
                if j >= off && is_control s (j - off) then false
                else j mod 2 = 0))
          path
      in
      let stream = stream_with_probe (Array.concat desired) in
      streams := stream :: !streams;
      let (_ : bool list) = Sim.csu net state ~scan_in:stream in
      ()
  | None -> ());
  (match Sim.active_path net Sim.no_injection state.Sim.config with
  | Some path ->
      let len = Config.path_length net path in
      streams := alternating (len + 4) :: !streams
  | None -> ());
  List.rev !streams

let apply (net : Netlist.t) ?fault stim =
  let inj =
    match fault with
    | Some f -> Fault.to_injection net f
    | None -> Sim.no_injection
  in
  let state = Sim.initial net in
  List.map (fun stream -> Sim.csu net ~inj state ~scan_in:stream) stim

let healthy net = apply net (stimulus net)

let diagnose (net : Netlist.t) ~observed =
  let stim = stimulus net in
  List.filter
    (fun fault -> apply net ~fault stim = observed)
    (Fault.universe net)

let coverage (net : Netlist.t) =
  let stim = stimulus net in
  let healthy_sig = apply net stim in
  let universe = Fault.universe net in
  let detected =
    List.length
      (List.filter (fun f -> apply net ~fault:f stim <> healthy_sig) universe)
  in
  float_of_int detected /. float_of_int (List.length universe)

(* Signatures are keyed by their text lines: the polymorphic hash of a
   [bool list list] reads only its first few booleans, so most
   signatures would share one bucket. *)
let distinguishable_classes (net : Netlist.t) =
  let stim = stimulus net in
  let seen = Hashtbl.create 64 in
  let note sg =
    Hashtbl.replace seen (String.concat "\n" (lines_of_signature sg)) ()
  in
  note (apply net stim);
  List.iter (fun fault -> note (apply net ~fault stim)) (Fault.universe net);
  Hashtbl.length seen
