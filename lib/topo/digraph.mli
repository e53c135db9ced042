(** Mutable directed graphs over dense integer vertices.

    Vertices are identifiers [0 .. vertex_count - 1], allocated with
    {!add_vertices}.  Parallel edges are rejected; self-loops are allowed at
    construction but rejected by the acyclicity-sensitive algorithms of this
    library. *)

type t

val create : ?size_hint:int -> unit -> t
(** [create ()] is the empty graph. *)

val add_vertices : t -> int -> unit
(** [add_vertices g k] allocates [k] fresh vertices. *)

val vertex_count : t -> int
val edge_count : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds edge [u -> v]; a duplicate edge is ignored.
    @raise Invalid_argument if a vertex is out of range. *)

val remove_edge : t -> int -> int -> unit
(** Removes edge [u -> v] if present. *)

val has_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Successors of a vertex, in insertion order. *)

val pred : t -> int -> int list
(** Predecessors of a vertex, in insertion order. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val iter_edges : (int -> int -> unit) -> t -> unit
(** [iter_edges f g] applies [f u v] to every edge [u -> v]. *)

val edges : t -> (int * int) list
(** All edges, ordered by source vertex. *)

val copy : t -> t
val transpose : t -> t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n es] is the graph with [n] vertices and edge list [es]. *)

val sources : t -> int list
(** Vertices with no incoming edge. *)

val sinks : t -> int list
(** Vertices with no outgoing edge. *)
