(** Signature-based fault diagnosis of RSNs.

    The paper motivates fault-tolerant RSNs by post-silicon debug and
    diagnosis: before routing around a defect one must locate it.  This
    module implements the classic signature approach on top of the CSU
    simulator: a fixed, netlist-derived diagnostic stimulus (a sweep of
    CSU operations that progressively opens every hierarchy level while
    shifting an alternating pattern) is applied blindly; the scan-out
    streams observed from the device under diagnosis are compared against
    simulations of every candidate stuck-at fault.

    The candidates returned are exactly the faults whose behaviour is
    indistinguishable from the observation under this stimulus — the
    equivalence class that structure-oriented diagnosis (paper refs
    [17, 18]) would then refine with targeted patterns. *)

type stimulus = bool list list
(** The scan-in stream of each diagnostic CSU operation, in order. *)

type signature = bool list list
(** The scan-out stream observed for each CSU of the stimulus. *)

val signature_of_lines : stimulus -> string list -> (signature, string) result
(** Parses the textual signature format shared by the CLI and the service
    layer against the stimulus it answers: one line of ['0']/['1'] per
    diagnostic CSU, each as long as that CSU's scan-in stream;
    surrounding whitespace and blank lines are ignored.  [Error] names
    the expected line count, or the first offending line (counted from
    1, blank lines skipped) and what is wrong with it. *)

val lines_of_signature : signature -> string list
(** The inverse of {!signature_of_lines} (modulo dropped blank lines and
    surrounding whitespace). *)

val stimulus : Ftrsn_rsn.Netlist.t -> stimulus
(** The deterministic diagnostic stimulus for a netlist: one configuration
    CSU per hierarchy level (opening every select bit reachable so far,
    while shifting a 1-0-alternating payload), then one observation CSU. *)

val apply :
  Ftrsn_rsn.Netlist.t -> ?fault:Ftrsn_fault.Fault.t -> stimulus -> signature
(** Runs the stimulus on the simulator (with the fault injected, if any)
    and returns the observed signature. *)

val diagnose :
  Ftrsn_rsn.Netlist.t -> observed:signature -> Ftrsn_fault.Fault.t list
(** All single stuck-at faults of the universe whose signature equals the
    observation.  An empty result means the observation matches no single
    stuck-at fault; a result containing benign faults alongside a
    fault-free match means the observation is consistent with a healthy
    network. *)

val healthy : Ftrsn_rsn.Netlist.t -> signature
(** The fault-free reference signature. *)

val coverage : Ftrsn_rsn.Netlist.t -> float
(** Fault coverage of the stimulus: the fraction of the single stuck-at
    universe whose signature differs from the fault-free one (undetected
    faults are either masked by hardening or benign under this stimulus). *)

val distinguishable_classes : Ftrsn_rsn.Netlist.t -> int
(** Number of distinct signatures across the whole fault universe plus the
    fault-free case — a measure of the stimulus' diagnostic resolution. *)
