(** Typed queries of the accessibility service.

    One value of {!t} describes one request against one netlist — the
    same vocabulary whether it arrives as a CLI subcommand or as a line
    of JSON on a [serve] connection.  Both front-ends build queries,
    hand them to {!Exec.run} and render the {!Response.t}; the service
    pool behind them decides what per-netlist state is reused. *)

type net_spec = {
  ns_source :
    [ `Itc02 of string  (** a benchmark SoC by name, e.g. ["d695"] *)
    | `File of string   (** a netlist file; [.icl] parsed as ICL *)
    | `Inline of string (** flat-text netlist carried in the request *) ];
  ns_ft : bool;
      (** evaluate the fault-tolerant synthesis of the netlist instead
          of the netlist itself *)
}

val net_spec_of_cli : string -> net_spec
(** The CLI netlist argument: ["itc02:NAME"] selects a benchmark SoC,
    anything else is a file path. *)

val net_spec_key : net_spec -> string
(** Canonical pool key: equal specs (same source, same [ns_ft]) map to
    the same key and therefore the same warm pool entry. *)

type engine = [ `Structural | `Bmc ]

type metric_q = {
  mq_net : net_spec;
  mq_sample : int option;  (** every k-th fault, as [Metric.evaluate] *)
  mq_domains : int;
  mq_engine : engine;
  mq_reduce : bool;
  mq_inprocess : bool;
      (** Ignored and not encoded; decodes as [true].  Kept only because
          e2ebench builds this record as a literal; it goes once
          e2ebench builds queries through a constructor (ROADMAP item
          2).  A request's ["inprocess"] key is ignored like any unknown
          key. *)
  mq_model : Ftrsn_fault.Fault.model;
      (** fault universe to evaluate (wire field ["fault_model"]:
          "stuck" | "bridge" | "select" | "transient"; default stuck) *)
  mq_with_stats : bool;
      (** include the volatile statistics (steals, solver counters) in
          the response; off by default so that warm responses are
          byte-identical to cold ones *)
}

type pairs_q = {
  pq_net : net_spec;
  pq_fault_sample : int option;
  pq_pair_sample : int option;
      (** [None] = exhaustive class-pair sweep; [Some k] = every k-th
          pair of the brute enumeration *)
  pq_domains : int;
  pq_engine : engine;
  pq_reduce : bool;
  pq_model : Ftrsn_fault.Fault.model;
      (** as [mq_model]; [Transient] is rejected with the
          [unsupported] error (pairs undefined) *)
  pq_with_stats : bool;
}

type certify_q = {
  cq_net : net_spec;
  cq_sample : int option;
  cq_domains : int;
  cq_pairs : bool;  (** certify the exhaustive pair sweep instead *)
  cq_model : Ftrsn_fault.Fault.model;  (** as [mq_model] *)
  cq_with_stats : bool;
}

type probe_q = {
  pb_net : net_spec;
  pb_target : string;          (** segment name *)
  pb_fault : string option;    (** canonical fault name, as [Fault.to_string] *)
  pb_model : Ftrsn_fault.Fault.model;
      (** universe [pb_fault] is resolved against (default stuck) *)
  pb_svf : bool;               (** return SVF vectors (fault-free only) *)
}

type diagnose_q = {
  dq_net : net_spec;
  dq_signature : string list option;
      (** observed scan-out signature, one 0/1 line per diagnostic CSU;
          [None] diagnoses the healthy reference signature (self-test) *)
  dq_limit : int option;  (** cap on candidates returned *)
}

type synth_q = {
  sq_net : net_spec;  (** [ns_ft] is ignored (synthesis implies it) *)
  sq_emit : bool;     (** include the hardened netlist text *)
}

type t =
  | Metric of metric_q
  | Pairs of pairs_q
  | Certify of certify_q
  | Probe of probe_q
  | Diagnose of diagnose_q
  | Synthesize of synth_q
  | Netinfo of net_spec
  | Stats  (** pool and per-session solver statistics *)

val encode : t -> Json.t
(** The wire form: an object with an ["op"] discriminator. *)

val decode : Json.t -> t
(** Inverse of {!encode}, with defaults for omitted optional fields
    ([domains] 1, [engine] structural, [reduce] true, [with_stats]
    false).  @raise Json.Parse_error on malformed requests. *)

val decode_line : string -> (t * Json.t option, string) result
(** Parses one request line: the query plus the client's ["id"] field
    (echoed verbatim in the response), or a parse error message. *)

val to_string : t -> string
(** [Json.to_string (encode q)]. *)
