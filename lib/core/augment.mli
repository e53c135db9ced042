(** Connectivity augmentation of RSN dataflow graphs (paper §III-C/§III-D).

    Fault tolerance requires every dataflow vertex to lie on two
    vertex-independent paths from the root (primary scan-in) and two to the
    sink (primary scan-out).  By the degree characterization used in the
    paper, it suffices for every vertex of the augmented DAG to have at
    least two incoming and two outgoing edges (from/to distinct vertices),
    where a constraint is only enforced for vertices that can satisfy it in
    principle.

    The optimization chooses a minimum-cost set of additional edges from
    the potential set [E_P = {(i,j) | level j >= level i}], with
    [cost (i,j) = 1 + level j - level i] for new edges (zero for edges of
    the original graph, which are always kept), subject to acyclicity.

    The solver is a min-cost-flow reduction (the degree cover is a
    b-matching) over a windowed candidate set.  Both orientations of a
    same-level pair are candidates; when the flow closes a cycle among
    them, a best-first search over orders of that level's vertices finds
    the cheapest acyclic cover within a flow budget (see {!solve}),
    whatever the order in which the netlist declares its segments.  Nets with one vertex per level (all SIB nets)
    take one flow per window.  The test suite checks the cost against the
    paper's exact formulation (eqs. 2-5, branch & bound over [lib/lp] and
    [lib/ilp] with lazily separated same-level subtour cuts), on SIB nets
    and on chains with parallel segments on one level. *)

type problem = {
  graph : Ftrsn_topo.Digraph.t;  (** the dataflow DAG *)
  levels : int array;            (** topological levels *)
  root : int;                    (** primary scan-in vertex *)
  sink : int;                    (** primary scan-out vertex *)
}

val of_netlist : Ftrsn_rsn.Netlist.t -> problem
(** The augmentation problem of a netlist's dataflow graph. *)

val edge_cost : problem -> int * int -> int
(** [1 + level j - level i] for a potential edge (0 for existing edges). *)

val demands : problem -> int array * int array
(** [(d_in, d_out)] per vertex: the missing in/out degree after accounting
    for existing edges, clamped by what the potential edge set can provide
    (root in-degree and sink out-degree are never demanded).  The
    potential partners of a vertex are counted per level, in
    O(vertices + edges). *)

type solution = {
  new_edges : (int * int) list;  (** augmenting edges not in the original *)
  cost : int;                    (** total cost of the new edges *)
}

exception Infeasible of int list
(** Raised by {!solve} with the vertices whose degree demands stay unmet:
    those left short of candidate edges on one side in some branch of
    the widest window's search, when no branch has an acyclic cover. *)

val describe_infeasible : Ftrsn_rsn.Netlist.t -> int list -> string
(** The user-facing message for [Infeasible short] on the netlist's
    problem; it names the segments (or scan-in, scan-out) left short. *)

val solve : problem -> solution
(** Minimum-cost acyclic augmentation over the candidates of level
    difference at most a window that starts at 4 and doubles up to the
    largest level, where every potential edge is a candidate; the first
    window with a cover gives the result.  Each window's search spends at
    most [8192 / vertices] flows on exact branching; past that it orients
    the same-level pairs it has not yet ordered by vertex id, which is
    acyclic by construction but may cost more or miss a cover.
    @raise Infeasible if even the widest window has no cover. *)

val verify : problem -> (int * int) list -> (unit, string) result
(** Checks that the original graph plus [new_edges] is acyclic, meets the
    degree demands, and actually gives every vertex of in-degree (out-
    degree) at least 2 two vertex-independent paths from the root (to the
    sink) — the semantic requirement of §III-C.  The path check reads two
    dominator trees, one from the root and one from the sink on the
    transpose ({!Ftrsn_topo.Dominator.two_paths}, Menger's theorem), so
    the whole verification is near-linear; the test suite checks it
    against two max-flows per vertex. *)
