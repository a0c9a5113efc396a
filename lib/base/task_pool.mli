(** A fixed set of OCaml 5 worker domains draining one FIFO of closures.

    Two ways in share the queue:

    - {!submit} is fire-and-forget with backpressure: it enqueues one
      closure and returns [false] at once when [capacity] closures are
      already waiting or the pool is stopping. The server's HTTP and
      job pools use it.
    - {!run_all} is {e fork-join}: it submits a batch of closures, the
      calling domain {e participates} in draining it, and the call
      returns only when every closure has finished, with the results in
      submission order. The parallel chase uses it.

    Several domains may call {!run_all} on the same pool concurrently:
    each batch enqueues its own helpers, so a shared pool composes with
    the server's worker pool without spawning domains per request (no
    oversubscription — the process-wide domain count is fixed at
    creation time).

    Because the caller always participates, a pool created with
    [~domains:1] spawns {e no} worker domains and [run_all] degenerates
    to a plain sequential [Array.map] — callers can treat "no
    parallelism" and "parallelism" uniformly. *)

type t

val create :
  ?on_wait:(float -> unit) -> ?capacity:int -> domains:int -> unit -> t
(** Spawn [domains - 1] worker domains ([domains] must be >= 1; for
    {!run_all} the calling domain is the remaining unit of
    parallelism, so a pool fed only through {!submit} runs on
    [domains - 1] workers). [capacity] bounds the closures {!submit}
    may leave queued (default: unbounded; must be >= 1); {!run_all}'s
    helpers are not counted against it.

    [on_wait] observes queue wait, on the domain that runs the task:
    once per {!submit}ted closure, with the seconds between its
    submission and its start, and once per task of a parallel
    {!run_all}, with the seconds between the batch's submission and
    that task's start. Inject a telemetry probe here ([lib/base] itself
    stays dependency-free). It is not called on [run_all]'s sequential
    path (one domain, one task, or a stopped pool).
    Raises [Invalid_argument] when [domains < 1] or [capacity < 1]. *)

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

val submit : t -> (unit -> unit) -> bool
(** Enqueue one closure for a worker domain and return [true], or
    return [false] without blocking when [capacity] closures are
    already queued, the pool is stopping, or it has no worker domains
    ([~domains:1]). A closure that raises never takes its domain down;
    the exception is discarded, so a submitter that cares catches it
    itself. *)

val queue_length : t -> int
(** Closures waiting for a worker domain. *)

val run_all : t -> (unit -> 'a) array -> ('a, exn) result array
(** Execute every closure, returning per-task results in input order.
    Tasks may run on any worker domain or on the calling domain; the
    call blocks until all of them completed. A raising task yields
    [Error exn] in its slot and never takes a domain down; deciding
    which error wins is the caller's job (task order is stable, so
    "first [Error] in the array" is deterministic given deterministic
    tasks). Safe to call from several domains concurrently. *)

val stop : t -> unit
(** Drain queued closures, join every worker domain, and mark the pool
    stopped. Idempotent. After [stop], {!submit} returns [false] and
    {!run_all} still works but runs everything on the calling domain. *)

val stopped : t -> bool
