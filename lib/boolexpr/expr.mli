(** Hash-consed boolean expressions with constant folding, plus the Tseitin
    transformation to CNF used by the BMC engine.

    All expressions live in a {!ctx}; combining expressions from different
    contexts is a programming error (unchecked, but ids will collide). *)

type t
(** An immutable boolean expression. *)

type ctx
(** An expression context: hash-consing table and variable allocator. *)

val create : unit -> ctx

val etrue : ctx -> t
val efalse : ctx -> t
val const : ctx -> bool -> t

val fresh_var : ctx -> t
(** A fresh boolean variable. *)

val var : ctx -> int -> t
(** [var ctx i] is variable number [i]; allocates up to [i] if needed. *)

val var_index : t -> int option
(** [Some i] if the expression is exactly variable [i]. *)

val not_ : ctx -> t -> t
val and_ : ctx -> t -> t -> t
val or_ : ctx -> t -> t -> t
val xor_ : ctx -> t -> t -> t
val iff_ : ctx -> t -> t -> t
val ite : ctx -> t -> t -> t -> t
val and_list : ctx -> t list -> t
val or_list : ctx -> t list -> t

val equal : t -> t -> bool
(** Structural equality (constant time thanks to hash-consing). *)

val is_true : t -> bool
val is_false : t -> bool

val eval : (int -> bool) -> t -> bool
(** [eval env e] evaluates [e] under the variable assignment [env]. *)

val evaluator : (int -> bool) -> t -> bool
(** [evaluator env] evaluates expressions under [env] with one memo
    shared by every call, so evaluating several expressions over one
    DAG visits each shared node once. *)

val support : t -> int list
(** The variables the expression reads, in increasing order — after
    constant folding, so an expression that folded to a constant has an
    empty support. *)

(** Conjunctive normal form in DIMACS literal convention: a clause is a
    list of non-zero literals, [-v] the negation of variable [v]. *)
module Cnf : sig
  type clause = int list

  (** A {!emitter} Tseitin-encodes expressions incrementally into an
      existing solver: each DAG node is encoded at most once over the
      emitter's whole lifetime, so consecutive queries that share
      structure (one BMC unrolling step at a time, many faults over one
      network) re-emit only their genuinely new cones.  Because the
      expression context keeps allocating fresh variables between
      emissions, the emitter maps {e every} node — expression variables
      included — through the sink's allocator; translate models back with
      {!find_lit}. *)

  type sink = {
    fresh_var : unit -> int;   (** allocate the next solver variable *)
    add_clause : int option -> clause -> unit;
        (** [add_clause under c]: [under] is an opaque clause-group tag
            (e.g. a solver activation literal) that the sink may use to
            register [c] for group retirement; [None] means ungrouped.
            Tseitin definitions always arrive ungrouped — the memo shares
            them across groups. *)
  }

  type emitter

  val make_emitter : sink -> emitter

  val lit : ?under:int -> emitter -> t -> int
  (** The DIMACS literal equisatisfiably representing the expression,
      encoding any not-yet-emitted nodes into the sink (memoized).
      [?under] tags the definition clauses with a clause group: they are
      forwarded to the sink with that tag, and after {!retire_owner} on
      the tag the affected nodes are transparently re-encoded (for the
      same solver variable) the next time they are requested.  Nodes
      requested without [?under] get permanent definitions. *)

  val emit : emitter -> t list -> unit
  (** Asserts every expression (a unit clause on its {!lit}); asserting
      the same node twice emits nothing the second time. *)

  val emit_clause : ?under:int -> emitter -> clause -> unit
  (** Forwards a raw clause to the sink, counted in {!emitter_stats} —
      for gating clauses built from {!lit} results.  [?under] is passed
      through as the sink's clause-group tag. *)

  val retire_owner : emitter -> int -> unit
  (** Marks a clause group tag as retired: nodes whose definitions were
      emitted under it will be re-encoded on their next use.  Call this
      when the corresponding solver-side clause group is retired. *)

  val find_lit : emitter -> t -> int option
  (** The literal of an already-encoded node ([None] if the node never
      reached the solver); does not emit. *)

  val emitter_stats : emitter -> int * int
  (** [(clauses_emitted, nodes_reused)]: total clauses forwarded to the
      sink, and memo hits where an already-encoded node was requested
      again — the clause-reuse counters of the session layer. *)
end
