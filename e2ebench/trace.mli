(** In-memory span recorder for the benchmark's traced runs.

    A span is one timed call at a layer boundary: a name, its start and
    end ([Unix.gettimeofday] seconds), the span that was open when it
    began (its parent) and, for service requests, the request id.  Spans
    stay in memory; nothing is formatted while the measured code runs.
    At the end of a run they are summarised as per-layer self times and
    written out as Chrome trace-event JSON. *)

type span = {
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_parent : int;  (** index of the parent span; [-1] for a root *)
  sp_req : int option;  (** request id, for spans serving one request *)
}

type t

val create : unit -> t

val with_span : t -> ?req:int -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a new span nested under the
    innermost open span.  An exception closes the span and propagates. *)

val add :
  t -> ?req:int -> ?parent:int -> string -> start:float -> stop:float -> int
(** Records a span measured elsewhere and returns its index.  [parent]
    defaults to the innermost open span (a root when none is open). *)

val spans : t -> span array
(** Every span, in the order it was opened or added. *)

val self_times : span array -> (string * float) list
(** Per span name, in order of first appearance, the summed self time:
    each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once). *)

val to_json : span array -> Ftrsn_service.Json.t
(** Chrome trace-event form: one complete (["ph":"X"]) event per span,
    timestamps in microseconds from the earliest span.  Spans of one
    request share a thread id so a viewer draws them on one track. *)

val write : span array -> string -> unit
(** Writes {!to_json} to a file. *)
