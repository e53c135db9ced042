(** Low-level netlist construction. *)

type b
(** A netlist under construction. *)

val create : string -> b

val add_segment :
  b ->
  ?shadow:int ->
  ?reset:bool array ->
  ?hier:int ->
  name:string ->
  len:int ->
  input:Netlist.node ->
  unit ->
  int
(** Adds a scan segment and returns its index.  [shadow] defaults to 0,
    [reset] to all-zero of length [shadow], [hier] to 1. *)

val add_mux :
  b ->
  ?tmr:bool ->
  ?rescue_from:int ->
  name:string ->
  inputs:Netlist.node list ->
  addr:Netlist.control list ->
  unit ->
  int
(** Adds a scan multiplexer and returns its index. *)

val seg_count : b -> int

val finish :
  b ->
  ?select_hardened:bool ->
  ?dual_ports:bool ->
  out:Netlist.node ->
  unit ->
  Netlist.t
(** Seals the netlist with [out] driving the primary scan-out port.
    @raise Invalid_argument if the result fails {!Netlist.validate}. *)
