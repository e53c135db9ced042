(** Bounded model checking of scan-segment accessibility — the paper's
    formal model (§II-B) with the stuck-at extensions (§III-A), decided by
    SAT.

    The model M = {S, H, I, V, C, c0, Select, Updis, Capdis, Active} is
    encoded over boolean variables: one per shadow-register bit and primary
    control input and unrolling step.  The transition relation (eq. 1)
    constrains a shadow bit to keep its value unless its segment lies on
    the active scan path of the current configuration; the active path and
    the propagation of a stuck-at fault along it are compiled to boolean
    circuits over the configuration variables, and the n-step unrolling is
    handed to the CDCL solver.

    Solving is incremental: a {!Session} holds one solver per netlist and
    grows the encoding monotonically across queries — unrolling variables
    and Tseitin cones are shared between faults, depths and goals, with
    per-fault and per-goal clause groups gated behind activation literals.
    A model is immutable and may be shared across domains; each query
    goes to an explicit session.

    Semantics are aligned with the structural engine
    ([Ftrsn_access.Engine], which computes the same verdicts by graph
    fixpoints): both derive a fault's effect from
    {!Ftrsn_fault.Fault.summarize}, so writes through corrupted data are
    never relied upon (the transition keeps the old value), select
    stuck-at-1 faults are recoverable and hence benign, and TMR replicas
    and duplicated-port-adjacent mux faults are masked by the one rule
    {!Ftrsn_fault.Fault.port_mask_table}.  This library does not depend on
    the structural engine.  The test suite checks the two engines agree
    on entire fault universes of small networks. *)

type t

val create : Ftrsn_rsn.Netlist.t -> t
(** Builds the static model data (consumer maps, topological orders, the
    port-masking predicate). *)

type verdict =
  | Accessible of int
      (** accessible; payload = number of CSU operations needed: the
          minimal unrolling depth within [max_steps] *)
  | Inaccessible

type model = t
(** Alias so {!Session} can refer to the model type under its own [t]. *)

(** An incremental solving session: one SAT solver, one expression context
    and one streaming CNF emitter per netlist, reused across every query.

    The transition relation of each queried fault is emitted on demand,
    one goal's cone of influence at a time, and only grown, never
    rebuilt; the circuit nodes it reads are built on first read too, and
    a fault reuses the fault-free node of every element outside its
    taint.  Every solve goes through one kernel, a round: the goals of
    some pending targets at one depth, one clause [¬a ∨ goal₁ ∨ … ∨
    goalₖ] gated by a fresh activation [a], solved under exactly two
    assumptions (the fault's and [a]), and repeated on the targets a Sat
    model leaves unmet until all are met or an Unsat answer settles the
    rest.  The batched queries ({!check_targets_multi} and
    {!check_targets_base}) want no depth: each goal is a round at depth 0
    and one at the bound over all targets, at most four Unsat answers per
    batch.  The single-goal queries keep the minimal depth:
    depth 0, then the bound [max_steps] (Unsat there is [Inaccessible]),
    then a descent below the earliest step at which the Sat model meets
    the goal — at most two Unsat answers per goal (see DESIGN.md §7).
    Switching to a different fault retires the
    previous fault's clause groups (see DESIGN.md), so sweeping a fault
    universe keeps the live clause set bounded while the shared Tseitin
    cones keep a query no more expensive to encode than on a fresh
    session. *)
module Session : sig
  type t

  exception Certification_failed of string
  (** Raised in certified mode when the independent checker rejects a
      solver proof event or an [Unsat] verdict's final clause.  Never
      raised by a correct solver — this surfacing is the point of the
      certified mode. *)

  val create : ?certify:bool -> model -> t
  (** [~certify:true] runs the session in certified mode: an independent
      {!Ftrsn_sat.Checker} mirrors the solver's DRUP proof stream
      (inputs, RUP-verified lemmas, deletions), and every [Unsat]
      verdict is additionally certified inline by checking that the
      negation of the solver's failed-assumption set is RUP with respect
      to the logged proof.  Default [false] (no proof overhead). *)

  val certified : t -> bool
  (** Whether this session runs in certified mode. *)

  val check_write :
    t -> ?fault:Ftrsn_fault.Fault.t -> ?max_steps:int -> target:int ->
    unit -> verdict
  (** Can a pattern be shifted into the target segment through an
      uncorrupted prefix, using only reachable configurations?
      [max_steps] defaults to the netlist hierarchy depth + 2. *)

  val check_read :
    t -> ?fault:Ftrsn_fault.Fault.t -> ?max_steps:int -> target:int ->
    unit -> verdict
  (** Can the target's captured contents be shifted out unscathed? *)

  val write_witness :
    t -> ?fault:Ftrsn_fault.Fault.t -> ?max_steps:int -> target:int ->
    unit -> (int * Ftrsn_rsn.Config.t list) option
  (** Like {!check_write}, but also decodes the SAT model into the
      witness configuration sequence [c_0 .. c_n] (reset first): each
      consecutive pair satisfies the transition relation and the final
      configuration puts the target on the active path with clean write
      data.  [None] if inaccessible. *)

  val check_access :
    t -> ?fault:Ftrsn_fault.Fault.t -> ?max_steps:int -> target:int ->
    unit -> verdict
  (** Both {!check_write} and {!check_read}; the payload is the larger
      of the two unrolling depths.  Write and read legs share one
      encoding of the fault.  Before each solve at depth [d], only the
      transitions in the goal's cone of influence are emitted: the
      shadow bits the goal reads at steps [1 .. d], closed backwards
      through each bit's previous value and its segment's faulty
      writability, over the circuits after constant folding.  Every
      other bit can only stutter, so the verdict is exact; a faulty goal
      that folds to a constant emits no transition at all.  The read
      query reuses the transitions and circuits the write query
      emitted. *)

  val check_targets_multi :
    t -> ?max_steps:int -> faults:Ftrsn_fault.Fault.t list -> int list ->
    bool array
  (** Whether each target is accessible (written and read within
      [max_steps]) under a SET of simultaneous faults ([[]] =
      fault-free) — the same answer as [check_access <> Inaccessible],
      without the depth; the [k]-th entry answers the [k]-th target.
      The faults' canonical summaries are merged with
      {!Ftrsn_fault.Fault.summary_union} and encoded as one clause
      group, keyed by the list: the session keeps the last queried set
      live, so consecutive calls on one set share its encoding; the
      list order is the caller's canonical key — pass pairs in a fixed
      order.  All targets share that single encoding and are decided in
      batches: the write goal by a round of the kernel at depth 0 and
      one at the bound over the targets still unmet, then the read goal
      the same way over the written targets.  A Sat answer settles
      every target its model meets, an Unsat answer every target left,
      so one call certifies at most four Unsat answers however many
      targets it has.  Exactly the given targets are decided: the
      reduced metric passes a fault's cone of influence and splices in
      the fault-free answers elsewhere.  An empty target list encodes
      nothing. *)

  val check_targets_base : t -> bool array
  (** Fault-free {!check_targets_multi} over every segment, in segment
      order, decided once per session: the answers are deterministic
      per model, so a long-lived session (e.g. one held in a service
      pool) answers repeated baseline sweeps from the cache instead of
      re-solving them.  The returned array is shared — treat it as
      immutable. *)

  type cert_stats = {
    cert_unsat : int;    (** [Unsat] verdicts certified *)
    cert_lemmas : int;   (** solver derivations RUP-verified *)
    cert_inputs : int;   (** problem clauses mirrored to the checker *)
    cert_deletes : int;  (** deletion events forwarded *)
    cert_time : float;
        (** CPU seconds spent RUP-verifying (lemma checks and UNSAT
            certifications; the cheap clause mirror/delete events are
            not timed — the timer syscall would dominate them) *)
  }

  type stats = {
    queries : int;
        (** SAT solves: one per Sat or Unsat answer of the round kernel,
            batched and single-goal alike; a goal decided without a
            solve (statically killed, or folded to true) adds none *)
    clauses_emitted : int;  (** cumulative, whole session *)
    nodes_reused : int;     (** cumulative emitter memo hits *)
    search : Ftrsn_sat.Solver.search_stats;
        (** cumulative counters of the session's solver *)
    cert : cert_stats option;  (** [Some] iff the session is certified *)
  }

  val stats : t -> stats

  val solver : t -> Ftrsn_sat.Solver.t
  (** The session's underlying solver — exposed for tests and benchmark
      ablations (e.g. {!Ftrsn_sat.Solver.set_learnt_limit}); mutating it
      other than through the feature switches voids the warranty. *)

  val reuse_mismatches :
    t -> Ftrsn_fault.Fault.t list -> steps:int -> (int * string * int) list
  (** Test-only check of the taint a fault set's circuits reuse the
      fault-free skeleton through.  Builds the set's circuits as a query
      does (an element outside the taint returns the skeleton's node) and
      again without reuse, and lists every [(step, family, index)] of
      steps [0 .. steps] where the two nodes differ: families ["on"] and
      ["after"] per element, ["dirty_in"] per segment.  Empty when the
      taint covers every node the fault set changes.  Grows the
      session's expression context only. *)
end
