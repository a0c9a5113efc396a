(** The SDC service endpoints over the two shared caches.

    - [GET /healthz] — liveness.
    - [GET /metrics] — uptime, cache statistics, per-endpoint request
      counters, circuit-breaker states, armed fault points (plus
      whatever the server grafts on: pool stats).
    - [POST /v1/risk] — native risk estimation; the response body is the
      exact string the CLI's [risk --json] prints. With
      [reasoned=true] the measure also runs as a Vadalog program under
      the request budget; an interrupted chase degrades to the native
      report plus ["degraded": true].
    - [POST /v1/anonymize] — anonymization cycle; counters + output CSV.
      With ["audit": true] the response embeds the per-round decision
      trail (one {!Vadasa_sdc.Audit} event per cycle iteration).
    - [POST /v1/categorize] — Algorithm 1 over the CSV's header.
    - [POST /v1/reason] — the measure as a Vadalog program on the
      reasoning engine, through the compiled-program cache; an
      interrupted chase answers with the partial risk decode and
      ["degraded": true].
    - [POST /v1/explain] — program + fact → provenance derivation tree,
      byte-identical to [vadasa explain --json] for the same input; a
      fact the chase never derived answers 422 [fact.not_found].

    The dataset registry ({!Registry}) adds the streaming surface
    (docs/STREAMING.md):

    - [PUT /v1/datasets/{id}] — register the payload as a persistent
      dataset (201; idempotent re-PUT 200; clashing content 409
      [dataset.conflict]).
    - [GET /v1/datasets] — registered datasets with metadata.
    - [GET /v1/datasets/{id}] — metadata; [?include=csv] adds the
      current (base ∪ deltas) CSV document.
    - [POST /v1/datasets/{id}/facts] — append a delta CSV: incremental
      risk re-scoring, no chase. Fault point ["dataset.append"] fires
      after validation, before any state is committed.
    - [GET /v1/datasets/{id}/risk] — the maintained risk report,
      byte-identical to [POST /v1/risk] over the union CSV;
      [?mode=full] re-estimates from scratch on a cached union snapshot
      (invalidated on every append), [?threshold=] overrides.
    - [DELETE /v1/datasets/{id}] — unregister.

    The jobs API ({!Jobs}, docs/JOBS.md) runs anonymize/risk work
    asynchronously over registered datasets:

    - [POST /v1/jobs] — submit [{"dataset", "op", ...options}] (202).
      Per-tenant token-bucket rate limits and active-job quotas answer
      typed 429s ([tenant.rate_limited] / [tenant.quota_exceeded]) with
      a [Retry-After] header; a full worker queue answers 503
      [jobs.queue_full]. The tenant comes from the [X-Vadasa-Tenant]
      header (or [?tenant=], default ["default"]).
    - [GET /v1/jobs] / [GET /v1/jobs/{id}] — status; terminal jobs
      carry their result body or [{code; message}] error.
    - [DELETE /v1/jobs/{id}] — cooperative cancel ([job.cancelled]).

    Every failure renders through {!Codec.response_of_error}: the body
    carries a stable [error.code] and the status follows the error's
    category. Each endpoint sits behind a per-endpoint circuit breaker
    — consecutive 5xx responses open the circuit and subsequent
    requests get 503 [breaker.open] with a [Retry-After] until the
    cooldown lets a probe through. Fault point ["handler.dispatch"]
    fires on every guarded request.

    Handler state is shared by all worker domains: both caches are
    internally synchronized, and cached microdata is only ever read
    ([Cycle.run] transforms a copy). *)

type compiled = {
  program : Vadasa_vadalog.Program.t;
  strat : Vadasa_vadalog.Stratify.t;
  warded : bool;
}
(** The program cache's value: one parse + stratification + wardedness
    analysis per distinct program text. *)

type t

val create :
  ?registry_capacity:int ->
  ?dataset_audit:(string -> unit) ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?default_max_facts:int ->
  ?engine_pool:Vadasa_base.Task_pool.t ->
  ?persist:Persist.t ->
  ?job_domains:int ->
  ?job_queue:int ->
  ?tenant_quota:int ->
  ?job_retain:int ->
  ?tenant_rate:float ->
  ?tenant_burst:float ->
  unit ->
  t
(** The program cache holds 64 compiled programs and the dataset cache
    16 loaded datasets. Breaker defaults as {!Breaker.create}: 5
    consecutive failures to open, 10 s cooldown. [default_max_facts] is a server-wide
    derived-fact ceiling ([serve --max-facts]) applied to requests that
    don't carry their own. [engine_pool] is a shared chase worker pool
    ([serve --engine-domains]): request engines borrow it for parallel
    evaluation instead of spawning domains per request, so the
    process-wide domain count stays [--domains + --engine-domains - 1].
    The caller owns the pool's lifecycle (stop it after the server
    drains). [registry_capacity] bounds the dataset registry (default
    16, LRU eviction); [dataset_audit] receives the registry's JSONL
    decision trail ([serve --dataset-audit], one line per
    register/append/delete).

    [persist] ([serve --data-dir]) makes the registry and the jobs
    table crash-safe: both register their snapshot sections and replay
    appliers, then [create] runs {!Persist.recover} and {!Jobs.resume}
    — a freshly created handler set already holds every committed
    dataset and job. Call {!shutdown} when done with it.

    [job_domains]/[job_queue] size the async job worker pool (defaults
    2/64; created lazily on first submission);
    [tenant_quota]/[tenant_rate]/[tenant_burst] parameterize per-tenant
    admission (defaults 16 active jobs, 50 submissions/s, burst 100);
    [job_retain] (default 256) caps the terminal jobs kept per tenant
    — older ones are pruned so the table and snapshots stay bounded. *)

val shutdown : t -> unit
(** Stop the job workers (draining queued jobs) and close the
    persistence store (final snapshot + journal shutdown). Idempotent.
    The HTTP accept loop has its own [Server.shutdown]; call that
    first so no request races the closing journal. *)

val programs : t -> (string, compiled) Cache.t

val datasets : t -> (string, Vadasa_sdc.Microdata.t) Cache.t

val registry : t -> Registry.t

val jobs : t -> Jobs.t

val persist : t -> Persist.t option

val breaker : t -> Breaker.t

val budget_of : Http.request -> Codec.options -> Vadasa_base.Budget.t option
(** The per-request work budget: the earlier of the deadline the server
    stamped on the request and the request's own [budget_ms], capped by
    [max_facts]; [None] when no constraint applies. *)

val router :
  ?extra_metrics:(unit -> Vadasa_telemetry.Telemetry.Metric.t list) ->
  t ->
  Router.t
(** The standard endpoint surface; [extra_metrics] adds entries to
    [GET /metrics] (the server's pool numbers, nested under ["pool"]).

    [GET /metrics] content-negotiates: an [Accept] header naming
    [text/plain] (e.g. [text/plain; version=0.0.4]) or an OpenMetrics
    type selects Prometheus text exposition — the telemetry registry
    merged across worker-domain shards, then the samples of every
    component's entries ({!Cache.metrics}, {!Registry.metrics},
    {!Jobs.metrics}, request counters, {!Breaker.metrics},
    {!Persist.metrics}, uptime); anything else keeps the JSON body,
    the same entries nested by key. *)

(** {2 Content negotiation for [GET /metrics]}

    The exposition text is written by [Telemetry.Prometheus.render];
    see [docs/SERVER.md] for the series. *)

val content_type : string
(** ["text/plain; version=0.0.4; charset=utf-8"]. *)

val wants_prometheus : Http.request -> bool
(** [true] when the request's [Accept] header lists [text/plain] or
    [application/openmetrics-text] as an acceptable media type (e.g.
    [text/plain; version=0.0.4]). Entries are parsed per RFC 9110: the
    media type is matched as a token (not a substring) and an entry
    with [q=0] is explicitly not acceptable; a missing header or a bare
    [*/*] keeps the JSON body. *)
