(** Scan-segment accessibility in fault-free and faulty RSNs (paper
    contribution 1: "a model and an algorithm to compute scan paths in
    faulty RSNs").

    The engine decides, for every scan segment [s] and a given stuck-at
    fault, whether [s] is still {e writable} (a pattern can be shifted into
    [s] and latched) and {e readable} (the captured contents of [s] can be
    shifted out unscathed), using only reachable configurations:

    - a configuration change can only be performed through segments that
      are themselves writable, so multiplexer steering is computed as a
      least fixpoint starting from the reset configuration;
    - data faults partition the path condition: writing [s] needs a
      corruption-free prefix (scan-in up to and including [s]) and a
      shiftable suffix, reading [s] the converse;
    - a select line stuck at 0 makes a segment non-shifting, which blocks
      any path through it; stuck-at-1 select faults are recoverable (the
      segment can always be kept on the active path) and treated as
      benign;
    - TMR-protected address replicas are masked; primary scan-port faults
      are masked iff the netlist has duplicated ports.

    [accessible s = writable s && readable s]. *)

type ctx
(** Preprocessed netlist information shared across fault analyses. *)

val make_ctx : Ftrsn_rsn.Netlist.t -> ctx

val netlist : ctx -> Ftrsn_rsn.Netlist.t

type verdict = {
  writable : bool array;    (** per segment *)
  readable : bool array;    (** per segment *)
  accessible : bool array;  (** per segment: writable && readable *)
}

val analyze : ctx -> Ftrsn_fault.Fault.t option -> verdict
(** [analyze ctx fault] computes the per-segment verdicts under the given
    fault ([None] = fault-free).  This is the scalar engine, the brute
    oracle of the lane kernel below: one depth-first traversal over one
    edge-admission rule (steerable; for clean data also uncorrupted, the
    far vertex shiftable and the source passing data clean), iterated
    into the least writability fixpoint.  The same fixpoint builds the
    certificate forests of {!baseline} and {!probe} and the witnesses. *)

val analyze_multi : ctx -> Ftrsn_fault.Fault.t list -> verdict
(** Accessibility under a SET of simultaneous stuck-at faults — beyond the
    paper's single-fault scope; used for the double-fault experiments. *)

val accessible_count : verdict -> int
val accessible_bits : ctx -> verdict -> int

(** {2 Fault-free baseline and cone-of-influence deltas}

    Evaluating the whole fault universe repeats almost identical work per
    fault: most stuck-ats disturb only a small cone of the dataflow graph.
    {!baseline} packages the fault-free verdict together with static
    reachability and steering-dependency tables.  {!analyze_delta}
    answers the summaries that touch no traversal (benign, pure
    kill-read, local kill-write) by splicing the fault-free verdict,
    transient upsets by a full fixpoint, and everything else with a
    one-lane call of the lane kernel below, whose
    writability fixpoint is seeded with the fault-free writable set minus
    the fault's cone.  The result is bit-identical to {!analyze} —
    outside the cone the faulty least fixpoint provably coincides with
    the fault-free one — it is just computed faster. *)

type baseline
(** Fault-free verdict plus per-vertex cone tables and per-segment /
    per-mux edge dependency tables for one {!ctx}.  Immutable once
    built; safe to share across domains. *)

val baseline : ctx -> baseline
(** Builds the baseline.  The cone tables are the reach and co-reach
    bitsets of every dataflow vertex, closed under the writability
    cascade: whenever a segment is in a table, so is the reach of the
    head and the co-reach of the tail of every edge whose steering
    depends on that segment's writability (a requirement hosted in the
    segment whose reset value does not match).  The cascade adds
    vertices one at a time, so the closure of a union is the union of
    the closures; a fault's coarse cone is therefore a handful of
    unions of these tables, exactly the cone the per-fault cascade
    would reach.  The closure is a Kleene iteration of the topological
    reach/co-reach DPs; on cyclic dataflow every table is the full
    vertex set.  The baseline also keeps the fault-free fixpoint's
    certificate forest, one clean prefix tree and one suffix tree per
    round, which {!probe} replays under a fault. *)

val baseline_verdict : baseline -> verdict
(** The fault-free verdict ({!analyze}[ ctx None]). *)

val cones :
  ctx -> baseline -> Ftrsn_fault.Fault.summary array ->
  Ftrsn_topo.Bitset.t option array
(** Each summary's cone of influence as a set of segment indices: the
    segments whose verdict can differ from the fault-free baseline.
    [None] for a benign summary (empty cone, verdict = baseline).  Per
    summary the cone is {!probe}'s [pr_cone]: the killed segments of a
    kill-only summary, the coarse cone where the probe refuses, and
    otherwise the exact verdict diff.  The exact diffs share lane
    fixpoints: their verdicts come from one {!analyze_lanes} call,
    bit-identical to {!analyze_delta}'s, so a sweep that cuts its
    classes into {!lane_plan} units pays one batch fixpoint per unit
    instead of one fixpoint per class. *)

type gate = {
  g_region : Ftrsn_topo.Bitset.t;
      (** dataflow-vertex interaction region: endpoints of every live
          edge the fault killed, corrupted, or pinned into its required
          steering value, live neighborhoods of blocked/corrupting
          segments, and the surviving boundary of every access traversal
          the fault disturbed.  Empty for purely local kill_write /
          kill_read summaries. *)
  g_fragile : Ftrsn_topo.Bitset.t;
      (** segments that stay writable under the fault but lost their
          canonical baseline write certificate (their writability rests
          on a re-routed derivation).  Empty for purely local kill
          summaries. *)
  g_supp : Ftrsn_topo.Bitset.t;
      (** vertex footprint of the founded re-route certificates backing
          the fragile segments' writability under this fault.  Empty
          when nothing is fragile. *)
  g_supp_edges : Ftrsn_topo.Bitset.t;
      (** edge footprint of the same re-route certificates (indices into
          the dataflow edge array).  Empty when nothing is fragile. *)
  g_rhosts : Ftrsn_topo.Bitset.t;
      (** steering hosts (segments) the re-route certificates rest on.
          Empty when nothing is fragile. *)
  g_dead_edges : Ftrsn_topo.Bitset.t;
      (** baseline-live edges this fault kills (unsteerable under the
          faulty fixpoint) or corrupts.  Subset of the edge endpoints
          folded into [g_region]. *)
  g_dmg : Ftrsn_topo.Bitset.t;
      (** dataflow vertices the fault makes non-shifting or corrupting
          (hard blocks and data-corrupting segments).  Subset of
          [g_region]. *)
  g_wlost : Ftrsn_topo.Bitset.t;
      (** writability losses: baseline-writable segments the fault's
          verdict no longer writes *)
  g_gain : bool;
      (** a steering gain: a pin or lock on the required value of a
          requirement whose host the baseline cannot write.  It can make
          segments accessible that the baseline cannot reach, so the
          single-fault verdict bounds no pair verdict and the gate
          composes with nothing *)
}
(** A fault class's footprint for the double-fault factorization: every
    set but [g_wlost] is full when the probe is coarse.  It holds no
    verdict, so a sweep can keep one per class cheaply. *)

val composes : gate -> gate -> bool
(** The pair gate.  Two summaries compose POINTWISE — the verdict under
    both faults is the bitwise AND of the two single-fault verdicts —
    when neither is a steering gain ([g_gain]) and (a) their regions are
    DISJOINT, (b) each summary's re-route
    certificates avoid the other's damage ([g_supp_edges] disjoint
    from the other's [g_dead_edges], [g_supp] disjoint from the other's
    [g_dmg]), and (c) each summary's [g_rhosts] avoids both the
    other's [g_fragile] set and the other's [g_wlost].  Conditions
    (b)+(c) rule out mutual support: two faults that each destroy the
    other's only founded writability derivation can deflate the
    combined least fixpoint without any shared damage region; a fragile
    segment's re-route certificate provably survives the partner when
    the partner's damage (killed/corrupted live edges,
    blocked/corrupting vertices) misses its footprint and every
    steering host it rests on keeps both its writability and its
    canonical certificate.  Note (b) checks the partner's exact damage,
    not its whole region: the region also contains undamaged rim
    vertices that a re-route may freely traverse.  Under (a)-(c) the
    pair's accessibility counts follow from the single-fault results
    (subtract the partner's lost-but-still-accessible segments) and no
    pair fixpoint is needed.  NOT a splice: the two faults may well
    taint common segments (their cones need not be disjoint).
    Symmetric. *)

type probe = {
  pr_verdict : verdict;
      (** the class verdict, = [analyze_delta]'s (may share arrays with
          the baseline verdict; treat as immutable) *)
  pr_cone : Ftrsn_topo.Bitset.t;
      (** segment indices whose verdict differs from the fault-free
          baseline — EXACT (the verdict diff) unless [pr_coarse], then
          the coarse cone over the closed tables of {!baseline} *)
  pr_coarse : bool;
      (** the summary defeated the region analysis (dead scan ports,
          steering-improving pins on unwritable hosts, cyclic dataflow,
          transient upsets): every footprint of [pr_gate] is full *)
  pr_gate : gate;
}

val probe : ctx -> baseline -> Ftrsn_fault.Fault.summary -> probe
(** The verdict, tight cone and pair gate of a summary.  [pr_cone]
    agrees with {!cones} (modulo [None] vs empty). *)

val probes :
  ctx -> baseline -> Ftrsn_fault.Fault.summary array ->
  (int -> probe -> unit) -> unit
(** [probes ctx base sms f] calls [f i (probe ctx base sms.(i))] once per
    index, in no fixed order.  The probes that need a fixpoint share lane
    batches of up to {!lane_width}, and each lane's probe reads that
    lane's words of the batch; every probe goes to [f] as soon as it is
    built.  Field for field equal to {!probe}. *)

val coarse_cone :
  ctx -> baseline -> Ftrsn_fault.Fault.summary -> Ftrsn_topo.Bitset.t
(** The summary's coarse cone as a set of dataflow vertices (0 =
    scan-in, 1 = scan-out, [2 + i] = segment [i]): the reach and
    co-reach of every damaged site over the closed tables of
    {!baseline}, the whole network for a dead scan port.  Outside it
    the faulty least fixpoint equals the fault-free one, from any base
    state.  The rule fires per damaged site, so the cone of
    [Fault.summary_union a b] is the union of the two cones. *)

val analyze_delta :
  ctx -> baseline -> Ftrsn_fault.Fault.summary -> verdict * int
(** [analyze_delta ctx base sm] is the verdict under the summarized fault,
    bit-identical to [analyze ctx (Some f)] for any fault [f] with summary
    [sm], together with the cone size ([0] for a benign summary).  The
    returned verdict may share arrays with {!baseline_verdict}; treat it
    as immutable. *)

(** {2 Lane-parallel batch sweeps}

    One kernel computes every cone-restricted verdict: up to
    {!lane_width} classes share ONE fixpoint — every per-vertex /
    per-edge predicate becomes a machine word whose bit L answers lane
    L, and word-level AND/OR/ANDN replace per-class boolean evaluation.
    Each lane's writability is seeded with the baseline minus the lane's
    cone, so the sweep composes with the cone reduction; lanes whose
    seed is already settled never promote.  Writability and steering
    only grow, so the fixpoint's two traversals are extended across the
    edges whose steering grew instead of re-run each round.  A single
    class ({!analyze_delta}, {!probe}) is a one-lane call; many classes
    go through {!analyze_lanes} (per-lane verdicts) or {!count_lanes}
    (per-lane accessible counts, read from one accessible-lane word per
    segment without building any verdict) — two views of one dispatch —
    or {!probes}; explicit fault sets, such as the class pairs of a
    double-fault sweep, through {!analyze_batch} and {!count_batch}.
    Every lane is rooted at the fault-free baseline.  The per-lane
    verdicts are bit-identical to {!analyze}'s. *)

val lane_width : int
(** Classes per batch: [Ftrsn_topo.Lanes.width] = [Sys.int_size] (63 on
    64-bit OCaml — the native int drops one tag bit). *)

val lane_fast : baseline -> Ftrsn_fault.Fault.summary -> int array option
(** For the summaries {!analyze_delta} answers without any traversal
    (benign, pure kill-read, and kill-write of segments that host no
    not-reset-matching steering requirement), the segments they kill,
    sorted and distinct ([[||]] when benign); [None] for the rest.  Such
    a summary changes any verdict, single-fault or under a second fault,
    only by clearing its killed segments. *)

type lane = {
  ln_sms : Ftrsn_fault.Fault.summary list;
      (** the fault set: one summary for a single fault, two for a pair *)
  ln_cone : Ftrsn_topo.Bitset.t;
      (** its coarse cone ({!coarse_cone} of the union summary) *)
}
(** One lane of a batch. *)

val lane : ctx -> baseline -> Ftrsn_fault.Fault.summary -> lane
(** The lane of one summary. *)

val lane_union : lane -> lane -> lane
(** Both fault sets in one lane: the summaries appended, the cones
    united. *)

type lane_stats = {
  ls_batches : int;  (** batch sweeps run *)
  ls_lanes : int;    (** lanes occupied across all batches *)
  ls_masked : int;   (** lanes settled at their cone seed (no promotion) *)
  ls_fast : int;     (** classes answered by the O(1) fast paths instead *)
  ls_rounds : int;   (** fixpoint rounds across all batches *)
}

val lane_stats_add : lane_stats -> lane_stats -> lane_stats

type lane_count = {
  lc_segs : int;  (** accessible segments *)
  lc_bits : int;  (** accessible scan bits *)
  lc_cone : int;  (** cone size *)
}

val lane_plan :
  baseline -> Ftrsn_fault.Fault.summary array -> int list * int array list
(** [lane_plan base sms] splits the summaries into the fast indices
    (input order) and the lane batches.  Fast classes are the ones
    {!analyze_delta} answers without any traversal (benign, pure
    kill-read, local kill-write) plus glitch (transient) summaries,
    which take its full-fixpoint fallback; they never occupy a lane.
    The rest are grouped — dead-port classes, whose cones are the whole
    network, batch separately — then chunked {!lane_width} wide in
    input order.
    Deterministic, and stable: re-planning one of its batches, or a
    subset of its fast indices, gives back that batch or those fast
    indices alone. *)

val analyze_batch :
  ctx -> baseline -> lane array -> (verdict * int) array * lane_stats
(** One fixpoint over up to {!lane_width} lanes, rooted at the
    fault-free baseline: per lane the verdict under its fault set,
    bit-identical to {!analyze_multi} over the set, and its cone size.
    Lanes of any origin share a batch — each lane's seed is the
    baseline writable set minus its own cone, so its least fixpoint does
    not depend on its neighbours.  No fast path: every lane occupies the
    batch.  [Invalid_argument] on an empty or oversized batch or a
    glitch (transient) summary. *)

val count_batch :
  ctx -> baseline -> lane array -> lane_count array * lane_stats
(** The count view of {!analyze_batch}: per lane the accessible
    segments and bits and the cone size, read from the fixpoint's
    per-segment accessible words without building any verdict. *)

val analyze_lanes :
  ctx ->
  baseline ->
  Ftrsn_fault.Fault.summary array ->
  (verdict * int) array * lane_stats
(** Many summaries at once: the fast classes of {!lane_plan} through
    {!analyze_delta} (counted in [ls_fast]), its batches through
    {!analyze_batch}.  Per summary the verdict and cone size are
    bit-identical to {!analyze_delta}'s. *)

val count_lanes :
  ctx ->
  baseline ->
  Ftrsn_fault.Fault.summary array ->
  lane_count array * lane_stats
(** The count view of {!analyze_lanes}, through the same dispatch: per
    summary the accessible segment and bit counts of its verdict and
    its cone size, with the same lane statistics.  A batch is counted
    by {!count_batch} and builds no verdict. *)

val analyze_lanes_stats :
  ctx ->
  ?base:baseline ->
  Ftrsn_fault.Fault.clas array ->
  verdict array * lane_stats
(** [analyze_lanes_stats ctx classes] is {!analyze_lanes} over the class
    summaries, verdicts only.  [base] defaults to a freshly computed
    {!baseline}. *)

val stack :
  ctx -> baseline -> Ftrsn_fault.Fault.summary -> verdict * int
(** {!analyze_delta} under another name, kept only because e2ebench
    times it by name ([engine.stack] in a traced [pairs] run).  It goes
    once e2ebench stops naming it. *)

type witness = {
  w_vertices : int list;
      (** dataflow vertices from scan-in to scan-out, through the target *)
  w_routes : (int * int) list list;
      (** per edge of the path, the chosen steering route: (mux, input)
          pairs that must be configured to sensitize the interconnect *)
}

val access_witness : ctx -> Ftrsn_fault.Fault.t option -> int -> witness option
(** [access_witness ctx fault s] is, if [s] is writable under the fault, a
    minimum-shift-length scan path through [s] with a corruption-free
    prefix and steerable muxes, together with the mux route chosen for each
    hop — the witness used for pattern retargeting in the faulty RSN. *)

val read_witness : ctx -> Ftrsn_fault.Fault.t option -> int -> witness option
(** The read counterpart of {!access_witness}: a scan path through the
    target whose suffix (target to scan-out) is corruption-free and
    shiftable, so that captured contents can be observed unscathed. *)
