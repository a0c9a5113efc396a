(** Per-endpoint circuit breaker.

    Tracks consecutive failures per key (an endpoint like
    ["POST /v1/risk"]). After [threshold] consecutive failures the
    circuit {e opens}: {!check} rejects requests (the caller answers
    503 with a [Retry-After]) without running the handler. Once the
    [cooldown] has elapsed the circuit {e half-opens}: exactly one
    probe request is let through — its success closes the circuit, its
    failure re-opens it for another cooldown. All timing uses the
    non-decreasing {!Vadasa_base.Clock}. Thread-safe. *)

type t

val create : ?threshold:int -> ?cooldown:float -> unit -> t
(** Defaults: 5 consecutive failures to open, 10 s cooldown. *)

type decision =
  | Allow  (** closed, or the half-open probe slot *)
  | Rejected of float  (** open; seconds until a retry makes sense *)

val check : t -> string -> decision
(** Must be called once per request before running the handler; the
    half-open probe slot is claimed by the [check] call itself. *)

val success : t -> string -> unit
(** Report the request outcome. Success closes the circuit and resets
    the failure count. *)

val failure : t -> string -> unit
(** A failure (5xx or an escaped exception). In half-open state it
    re-opens the circuit immediately. *)

val state : t -> string -> string
(** ["closed" | "open" | "half_open"] — for tests. *)

val metrics : t -> Vadasa_telemetry.Telemetry.Metric.t list
(** Per key, sorted: [state] (the name in JSON; gauge
    [vadasa_breaker_state{endpoint}] 0 closed, 1 half-open, 2 open) and
    [consecutive_failures] (JSON only). *)
