(** The persistent dataset registry behind [/v1/datasets]: named
    datasets that survive across requests, grow by appended rows, and
    carry a {!Vadasa_sdc.Risk.Incremental} scorer over the live
    microdata, so a delta is absorbed incrementally (only the
    quasi-identifier combinations the delta touches are re-scored; see
    its fallback conditions). No reasoning engine runs on any registry
    operation.

    Entries only ever move between consistent states: {!append}
    validates the delta and fires the ["dataset.append"] fault point
    before touching anything. All operations are safe to call from
    concurrent worker domains. Capacity is bounded with
    least-recently-used eviction.

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
  ?persist:Persist.t ->
  unit ->
  t
(** [capacity] (default 16) bounds registered datasets, LRU-evicted.
    [audit] receives one compact JSONL line per register / append /
    delete (the registry's decision trail — same conventions as the
    anonymization cycle's audit events).

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
  Vadasa_sdc.Microdata.t ->
  put_outcome
(** Register [md] under [id]. [digest] identifies the base payload:
    re-PUTting the identical payload is idempotent ([created = false]),
    a different payload under a live id raises [dataset.conflict].
    [measure] and [semantics] are the decoded [options] the scorer runs
    with. [bytes] is the base document size, for accounting. *)

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
}

val append : t -> entry -> csv:string -> append_outcome
(** Absorb a delta CSV (same header as the base document) into the
    dataset: rows join the live relation and the risk report is delta-
    maintained. After [append], the entry's report is byte-identical to
    a from-scratch estimate over the unioned data (the test suite and
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

val entry_json : entry -> Vadasa_base.Json.t
(** Deterministic metadata object (id, rows, bytes, measure, appends,
    full re-scores, timestamps); the [GET /v1/datasets/{id}] body. *)

(** {2 Registry-wide accounting} *)

val metrics : t -> Vadasa_telemetry.Telemetry.Metric.t list
(** [registered], [capacity], [rows] and [bytes] of the live datasets;
    lifetime [appends] and [evictions] (they survive delete and
    eviction). One read under the registry lock; aggregates only, never
    labelled per dataset id. *)
