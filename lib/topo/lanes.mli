(** Lane vectors: one machine word per index, one lane (bit) per
    parallel analysis.

    The structural accessibility engine batches up to {!width} fault
    classes and answers all of them in one fixpoint sweep: every
    dataflow vertex carries a word whose bit L is the predicate value
    for lane L, and word-level AND/OR/ANDN replace per-class boolean
    evaluation.  [width] is [Sys.int_size] (63 on 64-bit OCaml — the
    native int drops one tag bit), so "64-wide" batches are
    [Sys.int_size]-wide. *)

val width : int
(** Lanes per word ([Sys.int_size]). *)

type t
(** A mutable vector of [length] words. *)

val create : int -> t
(** [create n] is the all-zero vector of [n] words. *)

val length : t -> int

val get : t -> int -> int

val or_in : t -> int -> int -> int
(** [or_in v i x] ORs [x] into word [i] and returns the NEWLY set bits
    ([x] minus what was already there) — the monotone-growth test the
    fixpoint worklist keys on. *)

val and_into : t -> t -> unit
(** [and_into dst src] replaces each [dst] word with [dst land src].
    @raise Invalid_argument on capacity mismatch. *)

val or_into : t -> t -> unit
(** [or_into dst src] replaces each [dst] word with [dst lor src]. *)

val andn_into : t -> t -> unit
(** [andn_into dst src] replaces each [dst] word with
    [dst land (lnot src)] — clears in [dst] every lane set in [src]. *)

val fill : t -> int -> unit
(** [fill v x] sets every word to [x]. *)

val clear : t -> unit
val copy : t -> t
val equal : t -> t -> bool

val popcount : int -> int
(** Set bits of one word (total on negative words). *)

val cardinal : t -> int
(** Sum of {!popcount} over all words. *)

val lane_mask : int -> int
(** [lane_mask k] is the word with the low [k] lanes set; [-1] (all
    lanes) for any [k >= width] — no shift by the word size is ever
    performed.  @raise Invalid_argument on negative [k]. *)

val iter_lanes : (int -> unit) -> int -> unit
(** [iter_lanes f x] applies [f] to the ascending lane indices set in
    the word [x], the sign lane ([width - 1]) included. *)
