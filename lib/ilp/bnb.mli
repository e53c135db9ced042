(** 0/1 integer linear programming by branch & bound over the LP
    relaxation, with support for lazily separated constraints.

    The tests solve the paper's connectivity-augmentation ILP with it
    (§III-D, eqs. 2-5) as the oracle of the min-cost-flow solver: the
    subtour-elimination family (4) is
    exponential, so it is supplied as a [lazy_cuts] callback that inspects
    candidate integral solutions and returns violated cuts, exactly like a
    lazy-constraint callback of a commercial solver. *)

type t

val make : num_vars:int -> objective:float array -> t
(** A minimization problem over 0/1 variables. *)

val add_constraint :
  t -> coeffs:(int * float) list -> op:Ftrsn_lp.Simplex.relop -> rhs:float -> unit

val num_vars : t -> int

type solution = { obj : float; x : bool array }

type report = {
  best : solution option;  (** incumbent, [None] if infeasible *)
  optimal : bool;          (** proven optimal (node limit not hit) *)
  nodes : int;             (** branch & bound nodes explored *)
  cuts : int;              (** lazy cuts added *)
}

val solve :
  ?lazy_cuts:(bool array -> ((int * float) list * Ftrsn_lp.Simplex.relop * float) list) ->
  ?initial:bool array ->
  ?max_nodes:int ->
  ?integral_objective:bool ->
  t ->
  report
(** [solve t] explores the 0/1 search space.  [lazy_cuts x] is called on
    every candidate integral solution; returning violated constraints
    rejects the candidate and adds the cuts globally.  [initial] primes the
    incumbent (it must be feasible for the explicit constraints; it is
    {e not} checked against lazy cuts).  [integral_objective] enables
    pruning by [ceil] when all objective coefficients are integers. *)
