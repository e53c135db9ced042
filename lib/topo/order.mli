(** Topological ordering and topological levels of directed acyclic graphs. *)

val sort : Digraph.t -> int array option
(** [sort g] is [Some order] with vertices in a topological order (Kahn's
    algorithm), or [None] if [g] contains a cycle. *)

val is_acyclic : Digraph.t -> bool

val levels : Digraph.t -> int array
(** [levels g] assigns each vertex its topological level: sources are at
    level 0 and [level v = 1 + max (level u) over edges u -> v] — the
    longest-path depth used by the synthesis cost function.
    @raise Invalid_argument if [g] is cyclic. *)

val reachable : Digraph.t -> from:int -> Bitset.t
(** Vertices reachable from [from] (including [from] itself). *)

val co_reachable : Digraph.t -> to_:int -> Bitset.t
(** Vertices from which [to_] is reachable (including [to_] itself). *)
