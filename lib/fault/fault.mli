(** Fault models for RSNs.

    The core universe is the paper's single stuck-at model (§III-A): fault
    sites are the ports of scan segments, registers and multiplexers, plus
    the primary scan ports — the universe over which the paper's
    fault-tolerance metric aggregates.  Faults in global control (clock,
    reset) are excluded, as in the paper.

    For TMR-hardened multiplexer addresses the three replica sites are
    enumerated but masked (a single stuck-at is outvoted); the voter output
    remains an unmasked site that locks the selection.

    Three further {!model}s reuse the same machinery (summaries,
    collapsing, both accessibility engines) over different site universes:
    bridging faults between adjacent scan segments, selection-control
    faults (select lines, address logic, broken TMR voters), and transient
    single-event upsets of shadow bits, whose verdict is a
    recovery-reachability question. *)

type model = Stuck | Bridge | Select | Transient
(** Which fault universe {!universe} enumerates.  [Stuck] (the default
    everywhere) is the paper's single stuck-at universe; [Bridge] is
    wired-AND/wired-OR bridges between adjacent scan segments; [Select]
    restricts to the sites that corrupt mux selection (plus broken-voter
    sites); [Transient] is one single-event upset per shadow bit, where
    accessibility means a fault-free reconfiguration sequence recovers the
    target after the glitch. *)

val all_models : model list
val model_to_string : model -> string
val model_of_string : string -> model option

type site =
  | Seg_scan_in of int        (** data corrupted entering the segment *)
  | Seg_scan_out of int       (** data corrupted leaving the segment *)
  | Seg_shift_reg of int      (** a shift-register stage stuck *)
  | Seg_shadow_reg of int * int  (** shadow bit stuck *)
  | Seg_select of int         (** select port *)
  | Seg_capture_en of int     (** capture enable *)
  | Seg_update_en of int      (** update enable *)
  | Mux_addr of int * int     (** address port (voter output if TMR) *)
  | Mux_addr_replica of int * int * int
      (** TMR replica [r] of an address bit; masked *)
  | Mux_data_in of int * int  (** one data input port *)
  | Mux_out of int            (** output port *)
  | Primary_in                (** primary scan-in port *)
  | Primary_out               (** primary scan-out port *)
  | Bridge_segs of int * int
      (** bridge between the scan wires of two adjacent segments
          (canonical [a < b]); [stuck = false] is the wired-AND variant,
          [stuck = true] the wired-OR one *)
  | Mux_voter of int * int * int
      (** broken TMR voter of mux [m], address bit [b]: forwards replica
          [r] instead of the majority; masked under single faults (all
          replicas carry the correct value) *)
  | Glitch_shadow of int * int
      (** transient upset of shadow bit [(seg, bit)]; [stuck] is the
          upset value the bit holds when the glitch lands *)

type t = { site : site; stuck : bool }

val universe : ?model:model -> Ftrsn_rsn.Netlist.t -> t list
(** The fault universe of the given {!model} (default [Stuck]: all single
    stuck-at-0/1 faults of the netlist).  [Bridge] enumerates both
    dominance variants per adjacency ({!bridge_adjacencies}); [Select]
    the selection-control stuck-ats plus one broken-voter fault per TMR
    replica; [Transient] one upset per shadow bit, flipping it away from
    its reset value (the reset-valued upset is indistinguishable from
    fault-free). *)

val bridge_adjacencies : Ftrsn_rsn.Netlist.t -> (int * int) list
(** Adjacent segment pairs (canonical [a < b], deduplicated, deterministic
    order): segments connected by a dataflow edge, or driving data inputs
    of the same multiplexer. *)

val to_injection : Ftrsn_rsn.Netlist.t -> t -> Ftrsn_rsn.Sim.injection
(** Simulator overrides realizing the fault: the identity injection for a
    masked fault (TMR replicas, TMR-protected shadow bits, mux faults
    bypassed by {!port_mask_table}, primary-port faults under duplicated
    ports) and for sites no static override expresses (bridges, voters,
    glitches).  A stuck mux data input is forced on every input index
    that shares its driver, the one port the fault model sees.  This
    is the fault's only view in
    {!Ftrsn_access.Retarget}: its planner and its simulator replay both
    read the fault through this injection. *)

(** {2 Semantic summaries and equivalence collapsing}

    A fault's {!summary} is its canonical semantic effect on the netlist:
    the per-segment interface damage, data-corruption sites, pinned shadow
    bits and locked address ports that BOTH accessibility engines
    ({!Ftrsn_access.Engine} and {!Ftrsn_bmc.Bmc}) derive their per-fault
    effect records from.  Faults with equal summaries are therefore
    provably equivalent: they receive identical verdicts from either
    engine, so the metric needs to evaluate only one representative per
    class.  Classic cases collapsed this way: the two stuck values of a
    data fault (segment scan-in/out, shift stage, mux data/output port —
    corruption does not depend on the stuck polarity), benign faults
    (select/capture/update stuck-at-1, masked TMR replicas, faults
    bypassed by duplicated scan ports), and TMR-outvoted shadow replicas
    of the same segment. *)

type summary = {
  sm_hard_block : int list;         (** segments that cannot shift at all *)
  sm_corrupt_vertex : int list;     (** data through the segment corrupted *)
  sm_corrupt_in : int list;         (** data entering the segment corrupted *)
  sm_corrupt_out : int list;        (** data leaving the segment corrupted *)
  sm_kill_write : int list;         (** local write capability lost *)
  sm_kill_read : int list;          (** local read capability lost *)
  sm_mux_out : int list;            (** mux outputs corrupting data *)
  sm_mux_in : (int * int) list;     (** (mux, canonical input) data faults *)
  sm_locked_addr : (int * int * bool) list;  (** mux addr bits forced *)
  sm_stuck_shadow : (int * int * bool) list; (** shadow bits pinned *)
  sm_glitch_shadow : (int * int * bool) list;
      (** shadow bits transiently upset to the given value: the network
          starts from reset-with-these-bits-flipped instead of reset, and
          the bits remain rewritable afterwards (contrast
          [sm_stuck_shadow], which pins forever) *)
  sm_pi_dead : bool;
  sm_po_dead : bool;
}

val empty_summary : summary
(** The fault-free summary. *)

val summarize :
  ?port_masked:(int -> bool) -> Ftrsn_rsn.Netlist.t -> t -> summary
(** Canonical semantic summary of a single fault.  [port_masked] is the
    duplicated-scan-port masking predicate: callers that summarize many
    faults pass their cached {!port_mask_table}; by default it is computed
    afresh. *)

val summary_benign : summary -> bool
(** Whether the summary equals {!empty_summary}: the fault is
    indistinguishable from the fault-free network for both engines. *)

val summary_union : summary -> summary -> summary
(** Combined semantic effect of two simultaneous faults: per-site lists
    concatenate, the global port-kill flags disjoin.  Both engines apply
    summaries set-wise, so [summary_union] is commutative, associative and
    idempotent up to engine semantics — the basis of the double-fault pair
    reduction (a pair verdict depends only on the union of the two class
    summaries). *)

val port_mask_table : Ftrsn_rsn.Netlist.t -> int -> bool
(** The duplicated-scan-port masking rule (paper §III-E-4), defined here
    only: [port_mask_table net m] holds iff the netlist has [dual_ports]
    and mux [m] feeds the primary scan-out or a direct successor of the
    primary scan-in — the secondary port reaches around it, so faults in
    the mux are bypassed.  Partially applied, the predicate shares one
    walk over the segments' and the scan-out's mux trees across all
    muxes.
    {!to_injection}, {!summarize}, {!collapse}, the structural engine and
    the BMC model all use this rule. *)

type clas = {
  cls_rep : t;          (** representative (first member in input order) *)
  cls_members : t list; (** all members, in input order *)
  cls_summary : summary;
}

val summary_hash : summary -> int
(** A hash of the whole summary, every list entry included (the
    polymorphic [Hashtbl.hash] reads only its first few values).  Equal
    summaries hash equally; {!collapse} buckets by it. *)

val collapse : Ftrsn_rsn.Netlist.t -> t list -> clas list
(** Partition a fault list into semantic equivalence classes (equal
    {!summary}), in order of first appearance.  Every fault lands in
    exactly one class, so evaluating one representative per class,
    counted once per member, reproduces the unreduced metric bit for
    bit. *)

val pp : Ftrsn_rsn.Netlist.t -> Format.formatter -> t -> unit
val to_string : Ftrsn_rsn.Netlist.t -> t -> string
