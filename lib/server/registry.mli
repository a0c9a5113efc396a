(** The persistent dataset registry behind [/v1/datasets]: named
    datasets that survive across requests, grow by appended rows, and
    carry materialized SDC state so a delta is absorbed incrementally —

    - a {!Vadasa_sdc.Risk.Incremental} scorer over the live microdata
      (only the quasi-identifier combinations the delta touches are
      re-scored; see its fallback conditions), and
    - when the measure is expressible as a Vadalog program, a saturated
      reasoning engine plus the {!Vadasa_vadalog.Engine.Snapshot} that
      lets {!append} continue the chase from the previous fixpoint
      instead of recomputing it ({e reuse-the-fixpoint}); a delta that
      invalidates a non-monotone stratum falls back to a from-scratch
      rebuild over the full data, transparently.

    Entries only ever move between consistent states: {!append}
    validates the delta and fires the ["dataset.append"] fault point
    before touching anything, and a failed chase continuation is
    replaced by a fresh fixpoint, never exposed. All operations are
    safe to call from concurrent worker domains. Capacity is bounded
    with least-recently-used eviction.

    Errors are typed {!Vadasa_base.Error} values: [dataset.not_found]
    (unknown id), [dataset.conflict] (re-PUT with different content,
    delta schema mismatch), [dataset.bad_id], [dataset.bad_delta].
    See docs/STREAMING.md. *)

type t

type entry
(** A registered dataset. The handle stays valid after eviction or
    deletion (operations on it still work); it just no longer resolves
    via {!find}. *)

val create :
  ?capacity:int ->
  ?audit:(string -> unit) ->
  ?pool:Vadasa_base.Task_pool.t ->
  ?persist:Persist.t ->
  unit ->
  t
(** [capacity] (default 16) bounds registered datasets, LRU-evicted.
    [audit] receives one compact JSONL line per register / append /
    delete (the registry's decision trail — same conventions as the
    anonymization cycle's audit events). [pool] is shared with the
    entries' chase engines.

    [persist] makes the registry crash-safe: every successful put /
    append / delete is journaled {e before} it becomes visible (the
    record is durable by the time the HTTP response acks it), and the
    registry registers itself as the ["datasets"] snapshot section /
    ["dataset.*"] replay applier, so {!Persist.recover} rebuilds every
    committed dataset — reports byte-identical to the pre-crash state.
    Without it (the default) the registry is memory-only, as before. *)

type put_outcome = { entry : entry; created : bool }

val put :
  t ->
  id:string ->
  digest:string ->
  bytes:int ->
  options:Codec.options ->
  measure:Vadasa_sdc.Risk.measure ->
  semantics:Vadasa_relational.Null_semantics.t ->
  compiled:(Vadasa_vadalog.Program.t * Vadasa_vadalog.Stratify.t) option ->
  Vadasa_sdc.Microdata.t ->
  put_outcome
(** Register [md] under [id]. [digest] identifies the base payload:
    re-PUTting the identical payload is idempotent ([created = false]),
    a different payload under a live id raises [dataset.conflict].
    [measure] and [semantics] are the decoded [options] the scorer runs
    with. [compiled] is the measure's parsed/stratified program (rule ids must
    be stable under a facts-only union — the compiled-program cache's
    contract); [None] skips chase materialization (measure outside the
    logic). [bytes] is the base document size, for accounting. *)

val find : t -> string -> entry option

val get : t -> string -> entry
(** Raises [dataset.not_found]. *)

val delete : t -> string -> bool
(** [false] when the id was not registered. *)

val not_found : string -> Vadasa_base.Error.t
(** The [dataset.not_found] error value for an id (handlers raise it
    when {!delete} reports [false]). *)

val ids : t -> string list
(** Sorted. *)

type append_outcome = {
  rows_added : int;
  rows_total : int;
  risk : Vadasa_sdc.Risk.Incremental.outcome;
  chase_mode : string;
      (** ["incremental"] — continued from the snapshot; ["rebuild"] —
          the continuation was invalidated and a fresh fixpoint was
          computed; ["none"] — no chase is materialized *)
  chase_facts : int;  (** saturated database size after the append *)
}

val append : t -> entry -> csv:string -> append_outcome
(** Absorb a delta CSV (same header as the base document) into the
    dataset: rows join the live relation, the risk report is delta-
    maintained, and the chase continues from its snapshot. After
    [append], the entry's report and chase are byte-/set-identical to
    from-scratch evaluation over the unioned data (the test suite and
    the CI smoke job assert this). Raises [dataset.conflict] on a
    schema-mismatched delta, [dataset.bad_delta] on unparseable CSV —
    both before any state changes. *)

(** {2 Entry accessors} *)

val entry_options : entry -> Codec.options

val entry_measure : entry -> Vadasa_sdc.Risk.measure

val entry_semantics : entry -> Vadasa_relational.Null_semantics.t

val entry_report : entry -> Vadasa_sdc.Risk.report
(** The maintained risk report — equals a fresh
    {!Vadasa_sdc.Risk.estimate} over the current data, byte-for-byte. *)

val risk_report_string : threshold:float -> entry -> string
(** The maintained report as {!Codec.risk_report_string} renders it,
    byte-identical to a cold render of the same state. Dataset name,
    row count and report are read under the entry lock, so an append
    never tears the body. The entry keeps its report's per-row text
    ({!Codec.Report_text}): a row whose [risk] or [weight_sum] float
    kept its bits since the last render is blitted, and only re-scored
    and new rows are formatted. *)

val formatted_floats : entry -> int
(** Floats the entry's last {!risk_report_string} formatted
    ({!Codec.Report_text.formatted}): after an append that re-scored
    [r] rows, the next render formats at most [2r + 2]. *)

val entry_csv : entry -> string
(** The current (base ∪ deltas) relation as a CSV document — what a
    from-scratch run must be fed to reproduce the dataset's reports.
    A copy of the text the entry keeps: rendered once at PUT or
    restore, then extended by each {!append} with only the delta's
    rows, so it is byte-identical to {!Vadasa_relational.Csv.write_string}
    of the relation without re-rendering it. Snapshots copy the same
    text. *)

val entry_md_snapshot : entry -> Vadasa_sdc.Microdata.t
(** A deep copy of the live microdata at this instant; safe to hold
    across later appends (and therefore cacheable — the handlers' LRU
    invalidates it on append). *)

val entry_engine : entry -> Vadasa_vadalog.Engine.t option
(** The saturated chase engine, when materialized. Treat as read-only
    and quiescent; it is replaced (not mutated) on rebuilds. *)

val entry_json : entry -> Vadasa_base.Json.t
(** Deterministic metadata object (id, rows, bytes, measure, appends,
    chase counters, timestamps); the [GET /v1/datasets/{id}] body. *)

(** {2 Registry-wide accounting} *)

val metrics : t -> Vadasa_telemetry.Telemetry.Metric.t list
(** [registered], [capacity], [rows] and [bytes] of the live datasets;
    lifetime [appends], [chase_rebuilds] and [evictions] (they survive
    delete and eviction). One read under the registry lock; aggregates
    only, never labelled per dataset id. *)
