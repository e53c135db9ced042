(** Minimum-cost flow (successive shortest augmenting paths with Johnson
    potentials) and minimum-cost feasible flow with arc lower bounds.

    Costs must be non-negative; capacities non-negative integers.  The
    lower-bound solver uses the standard super-source/super-sink reduction
    and solves the degree-constrained augmentation of the synthesis. *)

type t
(** A mutable min-cost flow network. *)

val create : n:int -> t
(** [create ~n] is an empty network over vertices [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> cost:int -> int
(** [add_edge g ~src ~dst ~cap ~cost] adds an arc and returns its edge id.
    @raise Invalid_argument on negative capacity or cost, or bad vertex. *)

val min_cost_max_flow : t -> s:int -> t:int -> int * int
(** [min_cost_max_flow g ~s ~t] is [(flow, cost)] for a maximum flow of
    minimum cost.  Residual state is reset before the run. *)

val min_cost_flow : t -> s:int -> t:int -> amount:int -> int option
(** [min_cost_flow g ~s ~t ~amount] routes exactly [amount] units at minimum
    cost, returning [Some cost], or [None] if the network cannot carry
    [amount] units. *)

val flow_on : t -> int -> int
(** [flow_on g e] is the flow on edge [e] after the last solver run. *)

(** Minimum-cost feasible flow with per-arc lower bounds, solved by the
    super-terminal reduction. *)
module With_lower_bounds : sig
  type spec = {
    lb_src : int;   (** tail vertex *)
    lb_dst : int;   (** head vertex *)
    lb_low : int;   (** lower bound on the arc flow *)
    lb_cap : int;   (** upper bound on the arc flow; [lb_low <= lb_cap] *)
    lb_cost : int;  (** non-negative unit cost *)
  }

  val solve :
    n:int -> arcs:spec array -> s:int -> t:int -> (int * int array) option
  (** [solve ~n ~arcs ~s ~t] finds an [s]-[t] flow respecting all bounds and
      of minimum cost among feasible flows that additionally saturate no more
      than necessary.  Returns [Some (cost, per_arc_flow)] or [None] if no
      feasible flow exists.  The [s]-[t] flow value itself is free (an
      unbounded zero-cost return arc [t -> s] closes the circulation). *)
end
