(** Dominator trees of rooted directed graphs (iterative
    Cooper–Harvey–Kennedy algorithm).

    Vertex [d] dominates [v] iff every path from the root to [v] passes
    through [d].  In an RSN dataflow graph the proper dominators of a
    segment are exactly the scan elements whose failure cuts it off from
    the scan-in — the single points of failure of §III-C (the test suite
    cross-checks this against the Menger-based computation).  One tree
    from the root and one on the transpose from the sink therefore answer
    the two-path requirement of every vertex at once ({!two_paths}); this
    is how [Augment.verify] checks an augmented graph. *)

val idoms : Digraph.t -> root:int -> int array
(** [idoms g ~root] is the immediate-dominator array: [idoms.(v)] is the
    immediate dominator of [v], [root] for the root itself, and [-1] for
    vertices unreachable from [root]. *)

val dominators : Digraph.t -> root:int -> int -> int list
(** [dominators g ~root v] lists all proper dominators of [v] (excluding
    [v] itself, including the root), innermost first.  Empty for the root
    or unreachable vertices. *)

val dominates : int array -> int -> int -> bool
(** [dominates idoms d v] using a precomputed {!idoms} array ([d = v]
    counts as true for reachable [v]). *)

val two_paths : Digraph.t -> int array -> root:int -> int -> bool
(** [two_paths g idoms ~root v], with [idoms = idoms g ~root], holds iff
    there are at least two vertex-independent [root]-[v] paths, i.e.
    [Menger.vertex_disjoint_paths g ~src:root ~dst:v >= 2]: [v] is a
    reachable child of the root in the dominator tree and, when
    [root -> v] is itself an edge, another predecessor of [v] is reachable
    from the root without passing through [v].  Always false for
    [v = root].  On the transpose from a sink it answers the [v]-[sink]
    side. *)
