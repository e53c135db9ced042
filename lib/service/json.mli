(** Minimal line-oriented JSON, the wire format of the query service.

    Hand-rolled on purpose: the service speaks newline-delimited JSON and
    the repo carries no JSON dependency.  The printer is deterministic
    (object fields keep construction order, floats print in the shortest
    form that round-trips), which is what lets CI diff a [serve]
    transcript against the equivalent one-shot CLI invocations
    byte-for-byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} and by the [get_*] accessors on a
    type/shape mismatch; the message names the offending position or
    field. *)

val to_string : t -> string
(** One line, no newlines, minimal whitespace.  Non-finite floats print
    as [null] (they are not representable in JSON). *)

val of_string : string -> t
(** Parses one JSON value (surrounding whitespace allowed); rejects
    trailing garbage.  @raise Parse_error on malformed input. *)

(** {2 Accessors} — total ([member], [to_*_opt]) and partial ([get_*],
    raising {!Parse_error} with the field name). *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on absent field or non-object. *)

val get : string -> t -> t
val get_str : string -> t -> string
val get_int : string -> t -> int
val get_bool : string -> t -> bool

val get_opt : string -> t -> t option
(** Like {!member} but treats an explicit [Null] as absent. *)

val get_str_opt : string -> t -> string option
val get_int_opt : string -> t -> int option

val get_bool_default : string -> bool -> t -> bool
val get_int_default : string -> int -> t -> int

val to_float : t -> float
(** [Int] and [Float] both coerce; anything else raises. *)

val to_str : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list
