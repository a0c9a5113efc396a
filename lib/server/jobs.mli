(** Asynchronous anonymization/risk jobs over registered datasets — the
    subsystem behind [POST /v1/jobs].

    Submissions pass three admission gates in order — the tenant's
    token-bucket rate limit, the tenant's active-job quota, and the
    worker pool's bounded queue — and only then are journaled and
    published, so a rejected submission leaves no durable trace. The
    typed rejections carry a [retry_after_s] context pair (rendered as
    a real [Retry-After] header by {!Codec.response_of_error}):
    [tenant.rate_limited] and [tenant.quota_exceeded] map to HTTP 429,
    [jobs.queue_full] to 503.

    Each work attempt fires the ["job.step"] fault point; transient
    (Io/Resource) failures re-execute under a
    {!Vadasa_resilience.Retry} policy. {!cancel} is cooperative: it
    cancels the job's {!Vadasa_base.Budget}, which queued jobs observe
    before starting and running jobs observe at the engine/cycle poll
    points — a cancelled job always releases its worker slot and
    reports [job.cancelled].

    With a {!Persist} store attached, [job.submit] / [job.start] /
    [job.finish] transitions are journaled ahead of becoming visible.
    After {!Persist.recover}, {!resume} settles what the journal left
    open: still-queued jobs re-run (marked [replayed] in their status),
    jobs that were mid-flight fault terminally as [job.orphaned] (they
    may have had observable effects; re-running them silently could
    double-apply). Terminal jobs survive restarts byte-identically,
    results included. See docs/JOBS.md. *)

type t

type job
(** A submitted job; handles stay valid after terminal transitions. *)

type state = Queued | Running | Done | Failed | Cancelled | Orphaned

val state_to_string : state -> string
(** ["queued"], ["running"], ["done"], ["failed"], ["cancelled"],
    ["orphaned"]. *)

val create :
  ?domains:int ->
  ?queue:int ->
  ?quota:int ->
  ?retain:int ->
  ?rate:float ->
  ?burst:float ->
  ?retry:Vadasa_resilience.Retry.policy ->
  ?persist:Persist.t ->
  Registry.t ->
  t
(** [domains] (default 2) and [queue] (default 64) size the worker
    pool, which is created lazily on first submission (a server that
    never sees a job never spawns it). [quota] (default 16) bounds each
    tenant's queued+running jobs; [retain] (default 256) bounds each
    tenant's {e terminal} jobs — once exceeded the oldest are pruned
    from the table (and hence from listings and snapshots), so a
    long-lived server's memory and snapshot size stay bounded.
    [rate]/[burst] (default 50/s, 100) parameterize the per-tenant
    submission token bucket. [retry] is the per-step re-execution
    policy. *)

val register : t -> unit
(** Register the jobs table with the [persist] store given at creation
    (section ["jobs"], record prefix ["job."]); no-op without one. Call
    before {!Persist.recover}. *)

val resume : t -> unit
(** Settle non-terminal jobs after {!Persist.recover}: re-run queued
    ones (counted and marked [replayed]), fault previously-running ones
    as [job.orphaned]. *)

val submit :
  t -> tenant:string -> dataset:string -> op:string -> options:Codec.options ->
  job
(** Admit, journal, publish and enqueue a job. [op] is ["risk"] (the
    dataset's maintained incremental report — byte-identical to
    [GET /v1/datasets/{id}/risk]) or ["anonymize"] (a suppression/
    recoding cycle over a snapshot, honouring [options]). Raises
    [job.bad_op], [tenant.bad_id], [dataset.not_found],
    [tenant.rate_limited], [tenant.quota_exceeded], [jobs.queue_full]. *)

val cancel : t -> string -> job
(** Cooperatively cancel: a still-queued job settles as [Cancelled]
    immediately; a running one is interrupted at its next budget poll
    point. Idempotent; terminal jobs are returned unchanged. Raises
    [job.not_found]. *)

val find : t -> string -> job option

val get : t -> string -> job
(** Raises [job.not_found]. *)

val list : t -> job list
(** Sorted by id (= submission order). *)

val job_json : job -> Vadasa_base.Json.t
(** The [GET /v1/jobs/{id}] body: id, tenant, op, dataset, state,
    attempts, replayed, timestamps, plus [result] (the Done body) or
    [error] ([{code; message}]). *)

(** {2 Job accessors} *)

val job_id : job -> string

(** {2 Lifecycle and accounting} *)

val stop : t -> unit
(** Stop the worker pool (drains queued jobs first). Idempotent. *)

val metrics : t -> Vadasa_telemetry.Telemetry.Metric.t list
(** Lifetime [submitted], [completed], [failed], [cancelled],
    [orphaned], [replayed], [rejected_quota]/[_rate]/[_queue] (one
    [gate]-labelled family) and [pruned] (terminal jobs dropped by the
    per-tenant retention cap); the [queued] and [running] jobs now; and
    the admission settings [quota], [retain], [rate], [burst] (JSON
    only). One read under the table's lock. *)
