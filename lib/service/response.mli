(** Typed responses of the accessibility service.

    A response is either a payload mirroring the query's result or a
    typed error; both carry a stable wire encoding and a stable process
    exit code, so the CLI front-end and the [serve] loop report the same
    outcomes the same way.

    Determinism contract: the always-present payload fields are
    deterministic functions of the query (bit-identical whether they
    were computed cold or from warm pooled state); everything that can
    legitimately differ between runs — work-stealing counters,
    accumulated solver statistics of reused sessions — lives in the
    optional [*_stats] blocks
    that only appear when the query asked for them ([with_stats]).  CI
    diffs serve transcripts against one-shot CLI runs on the
    deterministic part. *)

type error_code =
  | Bad_request     (** malformed JSON / unknown op / unknown name *)
  | Inaccessible    (** probe target not accessible under the fault *)
  | Cert_failed     (** the RUP checker rejected a solver proof step *)
  | Admission       (** queue full or deadline expired before execution *)
  | Internal        (** unexpected exception; message carries details *)
  | Unsupported     (** well-formed query the engine cannot serve
                        (e.g. transient double faults, whose composition
                        is not a set-wise union of summaries) *)

type metric_stats_r = {
  ms_steals : int;
  ms_solver : Ftrsn_core.Metric.solver_stats option;
      (** volatile: a pooled session's counters accumulate over every
          query it served *)
  ms_lanes : Ftrsn_access.Engine.lane_stats option;
      (** lane batches (structural engine only); deterministic — a
          function of the class universe, not of scheduling — but
          reported here alongside the other engine internals *)
  ms_pair_lanes : Ftrsn_access.Engine.lane_stats option;
      (** lane batches of the interacting-pair sweep, one class pair
          per lane; deterministic like [ms_lanes] *)
}

type metric_r = {
  mr_worst_segments : float;
  mr_avg_segments : float;
  mr_worst_bits : float;
  mr_avg_bits : float;
  mr_faults : int;
  mr_weight : int;
  mr_reduction : Ftrsn_core.Metric.reduction_stats option;
      (** deterministic: the collapse is a function of the netlist *)
  mr_pairs : Ftrsn_core.Metric.pair_stats option;
      (** deterministic pair-dispatch counts; [p_stacks] is always 0
          and encoded only in the ["stats"] block *)
  mr_stats : metric_stats_r option;  (** [Some] iff [with_stats] *)
}
(** The metric payload carries {!Ftrsn_core.Metric}'s own counter
    records; {!encode} is their only JSON form. *)

val metric_r_of_result :
  with_stats:bool -> Ftrsn_core.Metric.result -> metric_r

val result_of_metric_r : metric_r -> Ftrsn_core.Metric.result
(** Reconstruction for human-readable rendering ({!Ftrsn_core.Metric.pp});
    lossless when the response carries its stats block, volatile fields
    zeroed otherwise. *)

type plan_r = {
  pl_target : string;
  pl_primaries : (string * bool) list;
  pl_steps : (string list * (string * int * bool) list) list;
      (** per configuration CSU: active path, (segment, bit, value) writes *)
  pl_access_path : string list;
  pl_cycles : int;
}

type netinfo_r = {
  ni_name : string;
  ni_segments : int;
  ni_muxes : int;
  ni_scan_bits : int;
  ni_shadow_bits : int;
  ni_control_bits : int;
  ni_primary_controls : int;
  ni_levels : int;
  ni_reset_path_bits : int;
  ni_full_path_bits : int;
}

type synth_r = {
  sy_added_muxes : int;
  sy_port_muxes : int;
  sy_added_ctrl_bits : int;
  sy_added_primary_ctrls : int;
  sy_area_ratio : float;
  sy_netlist : string option;  (** hardened netlist text iff [emit] *)
}

type pool_r = {
  po_entries : int;
  po_bytes : int;
  po_budget : int;
  po_hits : int;
  po_misses : int;
  po_evictions : int;
}

type session_r = {
  se_net : string;     (** pool key of the owning entry *)
  se_certified : bool;
  se_queries : int;
  se_solver : Ftrsn_core.Metric.solver_stats;
}

type stats_r = { st_pool : pool_r; st_sessions : session_r list }

type payload =
  | Metric_r of metric_r
  | Plan_r of plan_r
  | Svf_r of string
  | Diagnose_r of string list  (** candidate fault names, universe order *)
  | Synth_r of synth_r
  | Netinfo_r of netinfo_r
  | Stats_r of stats_r
  | Error_r of error_code * string

type t = payload

val error : error_code -> string -> t

val exit_code : t -> int
(** The CLI exit code this response maps to: 0 for any success payload,
    1 bad request/internal, 2 inaccessible, 3 certification failed,
    4 admission/deadline, 5 unsupported. *)

val encode : ?id:Json.t -> t -> Json.t
(** Wire form: [{"id":…, "ok":bool, "type":…, "data":{…}}]; ["id"] is
    present only when given (echoed from the request). *)

val decode : Json.t -> t * Json.t option
(** Inverse of {!encode}. @raise Json.Parse_error on malformed input. *)

val to_string : ?id:Json.t -> t -> string
