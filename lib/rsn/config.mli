(** Scan configurations and active-path computation.

    A {e scan configuration} is the state of all shadow registers and
    primary control inputs (paper §II-A).  The {e active scan path} is the
    unique scan route from the primary scan-in to the primary scan-out
    determined by the multiplexer address values; a configuration is valid
    iff tracing from the scan-out port reaches the scan-in port. *)

type t = {
  shadows : bool array array;        (** per segment, its shadow bits *)
  primaries : (string * bool) list;  (** primary control input values *)
}

val reset : Netlist.t -> t
(** The reset configuration: every shadow register at its reset state, all
    primary control inputs low. *)

val copy : t -> t
val equal : t -> t -> bool

val get_shadow : t -> seg:int -> bit:int -> bool
val set_shadow : t -> seg:int -> bit:int -> bool -> unit
val set_primary : t -> string -> bool -> t
(** Functional update of a primary control input. *)

val control_value : Netlist.t -> t -> Netlist.control -> bool
(** Value of a control source under a configuration. *)

val active_path : Netlist.t -> t -> int list option
(** [active_path net c] is the list of segment indices on the active scan
    path, ordered from scan-in to scan-out, or [None] if [c] is not a
    valid configuration (the backwards trace fails to reach scan-in). *)

val path_length : Netlist.t -> int list -> int
(** Number of shift cycles needed to traverse the given path: the sum of
    the segment shift-register lengths. *)

val is_selected : Netlist.t -> t -> int -> bool
(** Whether a segment lies on the active scan path. *)
