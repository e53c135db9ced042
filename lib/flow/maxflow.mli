(** Maximum flow on integer-capacity directed graphs (Dinic's algorithm).

    The graph is built incrementally with [add_edge]; every call creates the
    forward arc together with its residual reverse arc.  Capacities must be
    non-negative.  [max_flow] may be called repeatedly with different
    terminals; the residual state is reset before each run. *)

type t
(** A mutable flow network. *)

val create : n:int -> t
(** [create ~n] is an empty network over vertices [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** [add_edge g ~src ~dst ~cap] adds an arc of capacity [cap] and returns its
    edge identifier, usable with {!flow_on} after a [max_flow] run.
    @raise Invalid_argument if [cap < 0] or a vertex is out of range. *)

val max_flow : t -> s:int -> t:int -> int
(** [max_flow g ~s ~t] computes the maximum [s]-[t] flow value.  Any flow
    left from a previous run is cleared first.
    @raise Invalid_argument if [s = t] or a terminal is out of range. *)

val flow_on : t -> int -> int
(** [flow_on g e] is the flow currently routed through edge [e] (as returned
    by {!add_edge}) after the last {!max_flow} run. *)

val min_cut_side : t -> s:int -> bool array
(** [min_cut_side g ~s] is, after a {!max_flow} run, the characteristic
    vector of the source side of a minimum cut (vertices still reachable
    from [s] in the residual graph). *)
