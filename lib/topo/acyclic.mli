(** Cycle detection.  IEEE Std 1687 allows structural cycles in an RSN
    only if no active scan path can sensitize them; this reproduction
    accepts acyclic element graphs only ([Netlist.validate] rejects a
    structural cycle), so the dataflow view of a valid netlist is a DAG
    and no edge is ever dropped.  [find_cycle] serves the lazy
    acyclicity check (§III-C, eq. 4) of the augmentation's ILP oracle. *)

val find_cycle : Digraph.t -> int list option
(** [find_cycle g] is [Some vs] with [vs] the vertices of some directed
    cycle (in order, first vertex repeated implicitly), or [None] if [g] is
    acyclic. *)
