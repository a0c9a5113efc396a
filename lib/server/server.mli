(** The [vadasa serve] daemon: listener, accept loop, worker pool.

    Lifecycle: {!create} binds and listens (port 0 picks an ephemeral
    port, read back with {!port}); {!run} blocks in the accept loop
    until {!stop}; {!start} runs the loop on its own domain for
    in-process use (tests). {!stop} is async-signal-safe — it flips a
    flag and writes one byte to a self-pipe — so it is exactly what
    {!install_signal_handlers} wires to SIGINT/SIGTERM. Shutdown is
    graceful: the listener closes, queued requests drain, worker domains
    are joined.

    Every request carries a correlation id: the client's
    [X-Vadasa-Request-Id] header if present, a generated one otherwise.
    The id is echoed in the response headers and in the access-log line,
    and — when [trace_sample] is set and telemetry is enabled — keys the
    sampled span-tree lines dumped on the same sink (schema in
    [docs/SERVER.md]). Every request feeds a per-endpoint
    [http.latency.*] histogram on the worker domain's registry shard;
    endpoint names come from the route table only (a path no route
    serves collapses into the single "unmatched" endpoint, so
    client-controlled paths can never grow the instrument set). The
    [http.request/<endpoint>] span tree is recorded only for sampled
    requests, through the retention-independent local trace collector —
    sampling keeps working however long the daemon runs. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  domains : int;  (** worker domains serving connections, >= 1 *)
  queue_capacity : int;
  request_timeout : float;
      (** seconds — socket read deadline and maximum queue wait *)
  max_body_bytes : int;
  access_log : (string -> unit) option;
      (** called with one JSON line per finished request *)
  trace_sample : int option;
      (** [Some n]: every [n]th request also dumps its full span tree
          as a JSON line on [access_log] (requires telemetry enabled);
          [None] disables sampling *)
  slow_ms : int option;
      (** [Some ms]: any request slower than [ms] milliseconds dumps
          its full span tree on [access_log] — independently of
          [trace_sample], so the tail-latency lens is always on. Slow
          trace lines carry ["slow": true] and ["latency_ms"]; each
          slow request also bumps the [http.slow_requests] counter.
          Arming it makes every request collect its local trace
          (whether a request was slow is only known once it finished). *)
}

val default_config : config
(** 127.0.0.1:8080, 4 domains, 128-deep queue, 30 s timeout, 16 MiB
    bodies, no access log, no trace sampling, no slow-request log. *)

type t

val create : ?config:config -> ?router:Router.t -> Handlers.t -> t
(** Binds and listens; raises [Unix.Unix_error] when the address is
    taken, [Invalid_argument] when [domains] or [queue_capacity] is
    below 1. The default router is {!Handlers.router} with pool
    statistics grafted onto [GET /metrics]; tests can pass their own. *)

val port : t -> int
(** The actually bound port. *)

val handlers : t -> Handlers.t

val pool : t -> Vadasa_base.Task_pool.t
(** The HTTP worker pool: [domains] worker domains behind a queue of
    [queue_capacity] accepted connections. Its queue wait feeds the
    [server.pool.wait] histogram; connection outcomes (submitted,
    rejected, completed, expired, raised) and busy workers are counted
    by the server and exposed on [/metrics]. *)

val run : t -> unit
(** Block in the accept loop until {!stop}; then drain and join the
    pool. *)

val start : t -> unit
(** {!run} on a fresh domain. *)

val stop : t -> unit
(** Signal the accept loop to finish (async-signal-safe, idempotent). *)

val join : t -> unit
(** Wait for a {!start}ed server to finish. *)

val shutdown : t -> unit
(** [stop], [join], close the self-pipe. *)

val install_signal_handlers : t -> unit
(** SIGINT and SIGTERM → {!stop}. *)
