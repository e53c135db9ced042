(** Query execution against the warm pool — the single entry point both
    front-ends (CLI subcommands and the [serve] loop) call.

    [run] never raises: user errors, inaccessible targets, rejected
    certifications and unexpected exceptions all come back as typed
    {!Response.Error_r} payloads carrying their stable exit code. *)

val classify : Query.t -> [ `Light | `Heavy ]
(** Admission class: [`Heavy] for the open-ended computations — pair
    sweeps, unsampled BMC metrics (certified or not) and synthesis —
    which the server routes through a separate bounded queue so they
    cannot starve small queries. *)

val run : Pool.t -> Query.t -> Response.t
(** Executes one query against pooled warm state.  Deterministic
    response fields are bit-identical to a fresh one-shot evaluation of
    the same query (see {!Response}).  The query's counts are checked
    first, before a pool entry is built or a domain spawned: a sample
    stride ([sample], [fault_sample], [pair_sample]) or a diagnosis
    [limit] below 1, or [domains] outside 1..64, answers a [Bad_request]
    naming the field. *)
