(** Pattern retargeting: turning a segment access request into a series of
    CSU operations (paper §II-B), in fault-free and faulty RSNs.

    A plan is a sequence of configuration CSUs (each writing shadow bits of
    segments on the then-active path) followed by the access CSU whose
    active path contains the target segment.  The access latency is the
    paper's measure: the total number of clock cycles over all CSU
    operations (capture + shifts + update each). *)

type csu_step = {
  writes : (int * int * bool) list;
      (** shadow assignments performed by this CSU: (segment, bit, value) *)
  path : int list;  (** segments on the active path during this CSU *)
  step_primaries : (string * bool) list;
      (** primary control lines asserted while this CSU runs (helper
          rescue lines activate progressively during configuration) *)
}

type plan = {
  steps : csu_step list;   (** configuration CSUs, in order *)
  access_path : int list;  (** segments on the final (access) path *)
  target : int;
  cycles : int;            (** total latency in clock cycles *)
  requirements : (int * int * bool) list;
      (** shadow control bits the plan establishes; {!execute} uses these
          to repair bits disturbed by control faults *)
  primaries : (string * bool) list;
      (** primary control inputs (TAP-side rescue and port-switch lines)
          required by the final access configuration *)
  helpers : (string * bool) list;
      (** additional rescue lines asserted only during the configuration
          CSUs, to make otherwise-unreachable control bits writable; they
          are dropped for the access CSU *)
}

val plan_write :
  Engine.ctx -> ?fault:Ftrsn_fault.Fault.t -> target:int -> unit -> plan option
(** Computes a plan that makes the target segment part of an active scan
    path with a corruption-free prefix, using only configuration writes to
    segments that are writable along the way.  [None] if the target is not
    writable under the fault. *)

val execute :
  Ftrsn_rsn.Netlist.t ->
  ?fault:Ftrsn_fault.Fault.t ->
  plan ->
  patterns:(int * bool list) list ->
  (Ftrsn_rsn.Sim.state, string) result
(** [execute net ?fault plan ~patterns] replays the plan on the CSU
    simulator, with the fault injected if given.  It replays the
    configuration CSUs, repairs the plan's [requirements] that
    control faults disturbed, and then runs one access CSU that shifts
    each [(segment, bits)] of [patterns] into that segment.  A plan from
    {!plan_write} takes [[ (plan.target, pattern) ]]; a merged group
    ({!plan_write_merged}) takes one pair per target of the group.
    Returns the final simulator state, whose shift registers the caller
    can check against [patterns].  Errors name the first segment of
    [patterns] that is not on the access path or not cleanly writable
    there, or report an invalid access configuration. *)

val plan_read :
  Engine.ctx -> ?fault:Ftrsn_fault.Fault.t -> target:int -> unit -> plan option
(** Like {!plan_write}, for read access: the final path observes the
    target through a corruption-free suffix. *)

val execute_read :
  Ftrsn_rsn.Netlist.t ->
  ?fault:Ftrsn_fault.Fault.t ->
  plan ->
  instrument:bool list ->
  (bool list, string) result
(** Runs a read plan on the simulator: plants [instrument] as the target
    segment's data input, configures the network as {!execute} does,
    performs a capture-shift-update on the final path and extracts the
    target's captured bits from the scan-out stream — on success they
    equal [instrument]. *)

(** Merged multi-target access (access merging in the spirit of
    Baranowski et al., ETS'13): compatible targets share configuration
    CSUs and a single access CSU. *)
type merged_plan = {
  groups : (plan * int list) list;
      (** per group: shared plan and the group's target segments *)
  merged_cycles : int;       (** total latency of the merged schedule *)
  sequential_cycles : int;   (** latency of accessing each target alone *)
}

val plan_write_merged :
  Engine.ctx -> ?fault:Ftrsn_fault.Fault.t -> targets:int list -> unit ->
  merged_plan option
(** Groups the targets greedily by steering compatibility and builds one
    shared plan per group, whose access path delivers clean data to every
    target of the group; {!execute} runs a group.  [None] if
    {!plan_write} finds no plan for some target. *)

val trace_execution :
  Ftrsn_rsn.Netlist.t ->
  plan ->
  pattern:bool list ->
  ((bool list * bool list) list, string) result
(** Fault-free {!execute} of a plan with [pattern] for its target,
    returning the (scan-in, scan-out) stream pair of every CSU it ran, in
    order — the raw material of test-vector export ({!Vectors}). *)

val control_bits : Ftrsn_rsn.Netlist.t -> (int * int) list
(** All (segment, bit) shadow positions that drive some multiplexer
    address — the control state determining the scan topology. *)

val cycles_of_paths : Ftrsn_rsn.Netlist.t -> int list list -> int
(** Latency of a CSU series given the active path of each operation:
    [sum (2 + path length)] — one capture and one update cycle per CSU. *)
