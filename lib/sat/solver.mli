(** A CDCL SAT solver: two-watched-literal propagation over flat watcher
    vectors with blocker literals, dedicated binary-clause watch lists,
    first-UIP conflict analysis with recursive learnt-clause minimization
    and non-chronological backjumping, VSIDS-style variable activities,
    phase saving, Luby restarts, and an LBD-tiered learnt-clause
    database.

    The external literal convention is DIMACS: variables are positive
    integers [1, 2, ...]; literal [v] is the positive phase, [-v] the
    negative phase.  This is the back end of the BMC accessibility checks
    (paper §II-B / §III-A). *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocates the next variable and returns its (positive) index. *)

val ensure_vars : t -> int -> unit
(** [ensure_vars s n] makes sure variables [1 .. n] exist. *)

val add_clause : t -> int list -> unit
(** Adds a clause of DIMACS literals.  Adding the empty clause (or a clause
    that is falsified at level 0) makes the instance permanently
    unsatisfiable.  Variables are allocated on demand.
    @raise Invalid_argument on a zero literal. *)

type result = Sat | Unsat

val solve : ?assumptions:int list -> t -> result
(** [solve s] decides satisfiability of the added clauses, under the given
    assumption literals if any.  The solver is incremental: more clauses
    may be added after a call and [solve] called again. *)

val failed_assumptions : t -> int list
(** After a [solve ~assumptions] call that returned [Unsat], the subset of
    the assumption literals whose conjunction was refuted (sorted, duplicate
    free) — the incremental-session analogue of a final conflict clause.
    Empty when the instance is unsatisfiable independently of the
    assumptions (or after a [Sat] answer). *)

(** {2 Activation literals}

    An activation literal [a] guards a group of clauses added with
    [add_clause_under s a]: the group is active exactly in the [solve]
    calls that assume [a].  Retiring [a] permanently asserts [-a] and
    deletes the group's clauses in time proportional to the group size —
    the lifecycle used by the BMC session layer to share one solver across
    many queries without accumulating dead clauses. *)

val new_activation : t -> int
(** A fresh activation literal (a plain variable; returned positive). *)

val add_clause_under : t -> int -> int list -> unit
(** [add_clause_under s a lits] adds the clause [(-a) :: lits]: [lits] is
    enforced only while [a] is assumed.
    @raise Invalid_argument if [a] is not an allocated variable. *)

val retire_activation : t -> int -> unit
(** Permanently asserts the negation of the activation literal and deletes
    the clauses registered under it (they can never constrain the search
    again); costs O(group size), with the watch lists cleaned lazily by
    propagation.  Assuming a retired activation in a later [solve] yields
    [Unsat] with that literal among the failed assumptions. *)

val value : t -> int -> bool
(** [value s v] is the phase of variable [v] in the model found by the last
    [solve] call that returned [Sat].
    @raise Invalid_argument if the last call did not return [Sat] or [v] is
    out of range. *)

type search_stats = {
  st_conflicts : int;
  st_decisions : int;
  st_propagations : int;
  st_restarts : int;  (** restart-budget exhaustions *)
  st_learnt_lits : int;
      (** literals of learnt clauses, before minimization *)
  st_minimized_lits : int;
      (** literals removed by learnt-clause minimization *)
  st_reductions : int;  (** learnt-database reduction passes *)
  st_learnt_db : int;  (** live learnt clauses right now *)
}

val search_stats : t -> search_stats
(** Cumulative search counters since creation ([st_learnt_db] is the
    current live learnt-clause count, i.e. the database size after the
    last reduction and subsequent learning). *)

(** {2 Test hook} *)

val set_learnt_limit : t -> int option -> unit
(** Overrides the learnt-database size that triggers a reduction
    ([Some n]); [None] (default) restores the adaptive limit of
    [2 * problem clauses + 1000].  [Some 0] forces a reduction after
    every root-level return — useful to exercise reduction in tests.
    Sound to change at any point between [solve] calls. *)

(** {2 DRUP proof logging}

    With a proof sink installed, the solver emits a DRUP-style trace of
    its clause database: problem clauses as [P_input], derived clauses as
    [P_add], and forgotten clauses as [P_delete].  All literals are in
    the DIMACS convention.  The trace satisfies the reverse-unit-
    propagation invariant checked by {!module:Checker}: every [P_add]
    clause (including the empty clause, logged once when the instance
    becomes unsatisfiable at the root) is RUP with respect to the
    non-deleted clauses logged before it.

    Specifics that make incremental sessions certifiable:
    - [P_input] carries the clause exactly as the caller gave it (before
      deduplication and level-0 strengthening), so the checker's formula
      is always a superset of the attached database — deletions of
      clauses the checker never attached are no-ops, which only
      strengthens its propagation.
    - Every level-0 assignment is also logged as a unit [P_add] lemma, so
      later deletion of its reason clause cannot invalidate the trace.
    - [retire_activation a] shows up as the input unit [-a] plus
      [P_delete] events for the group's clauses; clause revival by a
      higher layer is a fresh [P_input] — delete/re-add pairs keep the
      trace aligned with the live database.
    - A learnt clause is logged as [P_add] when it is learnt (already
      minimized) and as [P_delete] when database reduction or a
      retirement's level-0 sweep forgets it.
    - An [Unsat] answer under assumptions logs no event by itself: the
      certificate is that the negation of {!failed_assumptions} is RUP
      with respect to the trace so far, which a caller checks with
      {!Checker.check_rup}. *)

type proof_event =
  | P_input of int list  (** problem clause, exactly as added *)
  | P_add of int list  (** clause derivable by reverse unit propagation *)
  | P_delete of int list  (** clause forgotten by the solver *)

val set_proof_sink : t -> (proof_event -> unit) option -> unit
(** Installs (or removes) the proof sink.  Install it before adding
    clauses: events are emitted as they happen and are not replayed. *)
