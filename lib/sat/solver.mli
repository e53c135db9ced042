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

val num_vars : t -> int
val num_clauses : t -> int
(** Number of problem (non-learnt) clauses added. *)

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

val simplify : t -> unit
(** Removes clauses satisfied at decision level 0 from the watch lists
    (learnt and problem clauses alike); sound at any point between
    [solve] calls. *)

(** {2 Inprocessing}

    [inprocess] runs one bounded simplification pass over the live clause
    database: level-0 cleanup, backward subsumption with self-subsuming
    literal strengthening, clause vivification, and bounded variable
    elimination (BVE) with witness recording.  Every derived clause is
    emitted as [P_add] and every removed clause as [P_delete] through the
    proof sink, so certified sessions keep verifying unchanged.

    Incremental safety: variables are {e frozen} (never eliminated) when
    they are activation literals, have ever appeared in an assumption, or
    were frozen explicitly with {!freeze_var}.  If a later clause,
    assumption, or freeze mentions an eliminated variable, the variable is
    {e revived}: its deleted clauses are re-added as fresh inputs (they
    are consequences of the original formula) before the mention takes
    effect.  [solve] replays the elimination witnesses before returning
    [Sat], so {!value} always reports a model of the original formula. *)

val inprocess : ?budget:int -> t -> unit
(** One simplification pass, bounded by [budget] abstract work steps
    (candidate checks plus propagation during vivification); a no-op when
    inprocessing is disabled with {!set_inprocess} or the instance is
    already unsatisfiable at the root.  Sound at any point between
    [solve] calls; invalidates the current model. *)

val freeze_var : t -> int -> unit
(** Marks the (DIMACS, positive) variable as never eliminable, reviving
    it first if a previous pass eliminated it.  Activation literals and
    assumption variables are frozen automatically.
    @raise Invalid_argument if the variable is not allocated. *)

val var_eliminated : t -> int -> bool
(** Whether the variable is currently eliminated (test hook; [false] for
    out-of-range variables). *)

val value : t -> int -> bool
(** [value s v] is the phase of variable [v] in the model found by the last
    [solve] call that returned [Sat].
    @raise Invalid_argument if the last call did not return [Sat] or [v] is
    out of range. *)

val stats : t -> int * int * int
(** [(conflicts, decisions, propagations)] since creation. *)

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
  st_subsumed : int;  (** clauses deleted by subsumption *)
  st_strengthened_lits : int;
      (** literals removed by self-subsuming strengthening *)
  st_eliminated_vars : int;
      (** variables eliminated by BVE (cumulative; revival does not
          decrement) *)
  st_vivified_lits : int;  (** literals removed by vivification *)
  st_simp_passes : int;  (** completed inprocessing passes *)
}

val search_stats : t -> search_stats
(** Cumulative search counters since creation ([st_learnt_db] is the
    current live learnt-clause count, i.e. the database size after the
    last reduction and subsequent learning). *)

(** {2 Feature switches}

    Test hooks and the inprocessing ablation; the defaults are the fast
    configuration and there is no reason to change them in normal use.
    Both are sound to flip at any point between [solve] calls. *)

val set_learnt_limit : t -> int option -> unit
(** Overrides the learnt-database size that triggers a reduction
    ([Some n]); [None] (default) restores the adaptive limit of
    [2 * problem clauses + 1000].  [Some 0] forces a reduction after
    every root-level return — useful to exercise reduction in tests. *)

val set_inprocess : t -> bool -> unit
(** Enables/disables inprocessing (default [true]).  Disabled,
    {!inprocess} is a no-op — callers schedule passes unconditionally and
    this switch is the single ablation point. *)

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
    - Simplification ({!inprocess}) logs every derived clause
      (strengthenings, vivified clauses, BVE resolvents) as [P_add]
      {e before} the [P_delete] of the clauses it replaces, so each is
      RUP against a database that still contains its antecedents.
      Deletions need no justification in DRUP, which is what makes
      variable elimination certifiable.  Reviving an eliminated variable
      re-adds its deleted clauses as fresh [P_input]s — each is a
      consequence of the original formula, so the certificate that every
      verdict follows from the inputs is preserved.
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
