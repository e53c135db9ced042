(** The warm-state pool: one {!Ftrsn_core.Metric.warm} (plus lookup
    tables and, for fault-tolerant specs, the synthesis result) per
    distinct netlist spec, behind an LRU with a byte budget.

    Entries are pinned while a query holds them ({!acquire} …
    {!release}), so eviction never destroys state under a running
    evaluation; unpinned entries are evicted least-recently-used first
    whenever the pool's reachable size exceeds the budget.  Sizes are
    measured with [Obj.reachable_words] and recomputed lazily (every few
    releases), since a warm entry's footprint grows as its BMC sessions
    learn.

    All operations are thread-safe; the heavy work of building an entry
    (parsing, synthesis) runs outside the pool lock, so concurrent
    queries for different netlists never serialize on each other. *)

type t
type entry

val create : ?budget_bytes:int -> unit -> t
(** Default budget 256 MiB.  The budget bounds {e unpinned} state: a
    single entry larger than the budget is still served (and evicted as
    soon as it is released). *)

val acquire : t -> Query.net_spec -> (entry, string) result
(** Looks up (hit) or builds (miss) the entry for the spec and pins it.
    Errors are user errors: unknown benchmark name, unreadable file,
    netlist parse failure, or a fault-tolerant spec whose augmentation is
    infeasible (the message names the segments left short). *)

val release : t -> entry -> unit
(** Unpins; every [acquire] must be paired with exactly one [release]. *)

val net : entry -> Ftrsn_rsn.Netlist.t
val warm : entry -> Ftrsn_core.Metric.warm

val synthesis : entry -> Ftrsn_core.Pipeline.result
(** The synthesis artefacts; only available on entries whose spec has
    [ns_ft = true] (raises [Invalid_argument] otherwise — the executor
    rewrites synthesis queries to fault-tolerant specs). *)

val seg_index : entry -> string -> int option
(** Segment index by name (hash lookup, built on first use). *)

val fault_of_string :
  ?model:Ftrsn_fault.Fault.model ->
  entry ->
  string ->
  Ftrsn_fault.Fault.t option
(** Fault by canonical name ({!Ftrsn_fault.Fault.to_string}) in the
    given model's universe (default [Stuck]); one table per model,
    built on first use. *)

val stats : t -> Response.pool_r
val session_stats : t -> Response.session_r list
(** One row per idle pooled BMC session, across all entries. *)
