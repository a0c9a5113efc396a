(** Content negotiation for [GET /metrics]. The exposition text is
    written by [Telemetry.Prometheus.render]; see [docs/SERVER.md] for
    the series. *)

val content_type : string
(** ["text/plain; version=0.0.4; charset=utf-8"]. *)

val wants_prometheus : Http.request -> bool
(** [true] when the request's [Accept] header lists [text/plain] or
    [application/openmetrics-text] as an acceptable media type (e.g.
    [text/plain; version=0.0.4]). Entries are parsed per RFC 9110: the
    media type is matched as a token (not a substring) and an entry
    with [q=0] is explicitly not acceptable; a missing header or a bare
    [*/*] keeps the JSON body. *)
