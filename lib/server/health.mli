(** Runtime health: per-domain GC statistics, and the submit and
    supervision steps shared by the server's two worker pools (HTTP
    connections and async jobs, both {!Vadasa_base.Task_pool}s).

    GC statistics in OCaml 5 are largely per-domain ([Gc.quick_stat]
    reports the calling domain's minor-heap counters), so sampling
    happens where the work happens: every finished request samples its
    worker domain ({!sample_gc} from the connection loop), and a
    [/metrics] capture samples the scraping domain — the exposition
    always carries at least the capturing domain's current picture.
    Gauge names embed the domain id ([gc.domain<i>.minor_words]);
    cardinality is bounded by the pool size fixed at startup. See
    [docs/OBSERVABILITY.md] for the full metric tables. *)

val sample_gc : unit -> unit
(** Publish the calling domain's [Gc.quick_stat] into the global
    telemetry registry: per-domain [gc.domain<i>.minor_words] /
    [.major_words] / [.promoted_words] plus process-wide
    [gc.heap_words], [gc.top_heap_words], [gc.minor_collections],
    [gc.major_collections] and [gc.compactions]. No-op while telemetry
    is disabled. *)

val submit : Vadasa_base.Task_pool.t -> (unit -> unit) -> bool
(** {!Vadasa_base.Task_pool.submit} behind the ["pool.enqueue"] fault
    point: armed to fail, the submission is rejected exactly like a
    full queue ([false], nothing enqueued). *)

val supervise : (unit -> unit) -> string option
(** Run one pool task. A raise is logged at warning level on the
    [vadasa.pool] source ("job raised: ...") and returned as its
    rendering instead of propagating, so a raising task never takes its
    worker domain down. [None] when the task returned normally. *)
