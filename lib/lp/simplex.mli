(** Linear programming by the two-phase dense primal simplex method.

    Problems are stated as: minimize [c^T x] subject to linear constraints
    and per-variable bounds [lo <= x_i <= hi] with [lo >= 0].  This is the
    relaxation engine of the 0/1 ILP of the connectivity augmentation
    (paper §III-D), which the tests use as the oracle of the min-cost-flow
    solver; sizes there are small enough for a dense tableau. *)

type relop = Le | Ge | Eq

type problem

val make : num_vars:int -> objective:float array -> problem
(** [make ~num_vars ~objective] is a minimization problem with the given
    objective; all variables start with bounds [0, +infinity].
    @raise Invalid_argument if lengths disagree. *)

val add_constraint :
  problem -> coeffs:(int * float) list -> op:relop -> rhs:float -> unit
(** Adds the constraint [sum coeffs . x  op  rhs].  Duplicate variable
    entries in [coeffs] are summed. *)

val set_bounds : problem -> int -> lo:float -> hi:float -> unit
(** Sets the bounds of a variable.  [hi] may be [infinity]; [lo] must be
    non-negative and at most [hi]. *)

val num_vars : problem -> int

type outcome =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Solves the problem.  The returned [x] has one entry per variable of the
    original problem.  The problem record is not consumed and may be
    extended with further constraints and re-solved (used by the lazy-cut
    loop of the ILP). *)
