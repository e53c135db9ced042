(** Gate-equivalent area model (paper §IV-C).

    The paper extracts multiplexer, flip-flop ("bits"), net and area
    figures for the original and fault-tolerant RSNs from a commercial
    logic synthesis tool and reports their ratios.  This model substitutes
    a consistent gate-equivalent (GE) accounting: since only ratios are
    reported, any consistent technology mapping preserves the comparison
    (see DESIGN.md §2).

    Conventions: a scan flip-flop (shift stage, including its shift-path
    mux) is 5 GE, a plain flip-flop (shadow or TMR replica) 4 GE, a 2:1
    multiplexer 2 GE, a majority voter 1.5 GE, plain select logic 1.5 GE
    per segment and hardened (dual-stem) select logic 4 GE per segment.
    "Bits" counts all flip-flops; "nets" counts driven wires (flip-flop
    outputs, mux outputs, address and select lines). *)

(** Technology profile: gate-equivalent weights of the primitive cells.
    Only ratios matter for Table I, but profiles make the sensitivity of
    the area column to the mapping explicit (see the `area-profile`
    ablation bench). *)
type technology = {
  ge_scan_ff : float;   (** shift stage incl. its scan path mux *)
  ge_plain_ff : float;  (** shadow / TMR replica flop *)
  ge_mux2 : float;      (** 2:1 mux; a k:1 counts (k-1) of these *)
  ge_voter : float;     (** TMR majority voter *)
  ge_select_plain : float;     (** per-segment select logic *)
  ge_select_hardened : float;  (** dual-stem select logic *)
}

val default_technology : technology
(** 5 / 4 / 2 / 1.5 / 1.5 / 4 GE. *)

val compact_technology : technology
(** A denser mapping (4 / 3 / 1.5 / 1 / 1 / 2.5 GE): smaller relative mux
    cost, used by the sensitivity bench. *)

type report = {
  muxes : int;   (** scan multiplexers, including port-switch muxes *)
  bits : int;    (** flip-flops: shift + shadow + TMR replicas *)
  nets : int;    (** driven nets *)
  area : float;  (** gate equivalents *)
}

val of_netlist :
  ?technology:technology -> ?port_muxes:int -> Ftrsn_rsn.Netlist.t -> report
(** [of_netlist net] tallies the netlist; [port_muxes] adds the duplicated
    scan-port switch muxes reported by {!Synthesis.stats} (2:1, TMR'd
    primary-controlled address). *)

type ratios = {
  r_mux : float;
  r_bits : float;
  r_nets : float;
  r_area : float;
}

val ratios : orig:report -> ft:report -> ratios
(** Fault-tolerant over original, the four rightmost Table I columns. *)

val pp_ratios : Format.formatter -> ratios -> unit
