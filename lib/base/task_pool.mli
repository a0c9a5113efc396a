(** A reusable fork-join scheduler over a fixed set of OCaml 5 domains.

    This is the compute-side sibling of the server's job pool
    ([lib/server/pool.ml]): where that pool is a fire-and-forget queue
    with backpressure and deadlines for independent requests, this one
    is a {e fork-join} primitive — {!run_all} submits a batch of
    closures, the calling domain {e participates} in draining it, and
    the call returns only when every closure has finished, with the
    results in submission order.

    Several domains may call {!run_all} on the same pool concurrently:
    batches are queued and workers claim tasks from the oldest live
    batch first, so a shared pool composes with the server's worker
    pool without spawning domains per request (no oversubscription —
    the process-wide domain count is fixed at creation time).

    Because the caller always participates, a pool created with
    [~domains:1] spawns {e no} worker domains and [run_all] degenerates
    to a plain sequential [Array.map] — callers can treat "no
    parallelism" and "parallelism" uniformly. *)

type t

val create : ?on_wait:(float -> unit) -> domains:int -> unit -> t
(** Spawn [domains - 1] worker domains ([domains] must be >= 1; the
    calling domain is the remaining unit of parallelism). [on_wait] observes per-task queue wait: it is
    called once per task that runs through a parallel {!run_all}, with
    the seconds elapsed between the batch's submission and that task's
    start, on the domain that runs the task — inject a telemetry probe
    here ([lib/base] itself stays dependency-free). It is not called on
    the sequential path (one domain, one task, or a stopped pool).
    Raises [Invalid_argument] when [domains < 1]. *)

val domains : t -> int
(** The parallelism the pool was created with (workers + the
    participating caller), i.e. the [~domains] given to {!create}. *)

val recommended : unit -> int
(** The parallelism this host can actually deliver:
    [Domain.recommended_domain_count ()], floored at 1. Honours cgroup
    and CPU-affinity limits, so a CI container pinned to one core
    reports 1 regardless of the machine's core count. Domains beyond
    this number buy no throughput and cost garbage-collector
    synchronization — see {!effective}. *)

val effective : requested:int -> int
(** [min requested (recommended ())], floored at 1 — the width a
    consumer should size a pool to when [requested] comes from
    configuration rather than measurement. The engine applies this cap
    to [Engine.create ~domains]; callers that want to oversubscribe
    deliberately (scheduler tests, fairness experiments) bypass it by
    building the pool themselves and passing [Engine.create ~pool]. *)

val run_all : t -> (unit -> 'a) array -> ('a, exn) result array
(** Execute every closure, returning per-task results in input order.
    Tasks may run on any worker domain or on the calling domain; the
    call blocks until all of them completed. A raising task yields
    [Error exn] in its slot and never takes a domain down; deciding
    which error wins is the caller's job (task order is stable, so
    "first [Error] in the array" is deterministic given deterministic
    tasks). Safe to call from several domains concurrently; do {e not}
    call it from inside one of the pool's own tasks (the nested batch
    would wait on the domain executing it). *)

val stop : t -> unit
(** Drain queued batches, join every worker domain, and mark the pool
    stopped. Idempotent. After [stop], {!run_all} still works but runs
    everything on the calling domain. *)

val stopped : t -> bool
