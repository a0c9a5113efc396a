(** Metrics and tracing for the Vada-SA stack.

    A {e registry} groups counters, gauges, histograms (with
    reservoir-sampled p50/p95/p99 summaries and fixed log-ladder
    buckets) and nestable timed spans. Library instrumentation goes
    through the {!count}/{!observe}/{!span} helpers on the implicit
    {!global} registry; these are gated behind one boolean
    ({!set_enabled}) so that a run with telemetry off pays a single
    load-and-branch per probe site. Harnesses that always want
    measurements (the bench driver) create their own registry and pass
    it explicitly — explicit registries are never gated.

    Registries are safe across OCaml 5 domains: each domain records
    into its own {e shard} (created on first use, cached in
    domain-local storage), so the hot path stays a plain unsynchronised
    field mutation. {!Report.capture} merges the shards — counters sum,
    gauges keep the process-wide last write (value and write sequence
    publish as one atomic pair, so the merge never pairs a stale value
    with a fresh sequence), histograms combine on
    count/sum/min/max/buckets and pool their reservoir samples for the
    percentiles, and per-shard dropped-span counts sum to an exact
    total. Because counter and histogram updates are plain mutations, a
    capture racing an actively-recording shard may observe an
    instrument mid-update (count bumped, sum not yet); no increment is
    ever lost, and a capture of quiesced shards is exact. Span nesting
    is per-domain (a span opened on one domain never parents a span on
    another).

    See [docs/OBSERVABILITY.md] for the metric-name and span-hierarchy
    conventions used across the stack. *)

(** The shared JSON module ({!Vadasa_base.Json}), re-exported so
    telemetry callers can keep writing [Telemetry.Json]. *)
module Json = Vadasa_base.Json

type t
(** A metrics registry. *)

type registry = t
(** Alias usable inside submodule signatures that define their own [t]. *)

val create : ?span_limit:int -> unit -> t
(** [span_limit] bounds the retained finished-span events (default
    100_000); completions beyond it are counted as dropped. *)

val set_span_limit : t -> int -> unit
(** Adjust the retained finished-span bound at run time (the CLI's
    [--span-limit]). Already-dropped spans stay dropped; raising the
    limit only affects future completions. *)

val span_limit : t -> int

val global : t
(** The registry behind the gated helpers and the CLI's [--metrics]. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Arms the gated helpers on {!global}. Off by default. *)

val reset : t -> unit

module Counter : sig
  type t

  val v : ?registry:registry -> string -> t
  (** Interned by name: same name, same counter. *)

  val incr : t -> unit

  val add : t -> int -> unit

  val set : t -> int -> unit
  (** Overwrite the value: lets producers publish absolute totals
      idempotently (re-publishing never double-counts). *)

  val value : t -> int
end

module Gauge : sig
  type t

  val v : ?registry:registry -> string -> t

  val set : t -> float -> unit

  val value : t -> float
end

module Histogram : sig
  type t

  type summary = {
    count : int;
    sum : float;
    min : float;
    max : float;
    mean : float;
    p50 : float;
    p95 : float;
    p99 : float;
    buckets : (float * int) list;
        (** Cumulative [(le, n)] pairs on a fixed log ladder shared by
            every histogram (1/2.5/5 per decade, 1e-5 .. 1e4):
            [n] observations were [<= le]. Observations above the top
            bound appear only in [count] (the implicit [+Inf] bucket). *)
  }

  val v : ?registry:registry -> string -> t

  val observe : t -> float -> unit

  val summary : t -> summary
  (** Percentiles come from a 512-element reservoir sample; count, sum,
      min, max, mean and the buckets are exact. *)

  val count : t -> int
end

module Span : sig
  type info = {
    sp_name : string;
    sp_path : string;  (** slash-joined ancestry, e.g. ["engine.run/engine.stratum"] *)
    sp_start : float;
    sp_duration : float;
    sp_depth : int;
  }

  val with_ : ?registry:registry -> string -> (unit -> 'a) -> 'a
  (** Times [f] as a span nested under the registry's currently open
      span; the event is recorded even when [f] raises. *)

  val timed : ?registry:registry -> string -> (unit -> 'a) -> 'a * float
  (** Like {!with_}, also returning the duration in seconds. *)

  val finished : registry -> info list
  (** Completed spans: per-shard completion order, shards concatenated
      in shard-creation order. *)

  val finished_by_shard : registry -> (int * info list) list
  (** Completed spans grouped by the recording shard (one shard per
      domain, ids in creation order starting at 0); shards that
      recorded nothing are omitted. *)

  val dropped : registry -> int
  (** Spans dropped by the retention limit, summed across shards —
      exact even under concurrent multi-domain recording. *)
end

val count : string -> int -> unit
(** [count name n] bumps counter [name] on {!global}; no-op when
    telemetry is disabled. *)

val gauge : string -> float -> unit

val observe : string -> float -> unit

val span : string -> (unit -> 'a) -> 'a
(** Gated {!Span.with_} on {!global}: runs [f] untimed when disabled. *)

val with_local_trace : ?registry:t -> (unit -> 'a) -> 'a * Span.info list
(** [with_local_trace f] runs [f] and also returns the spans that
    completed on the {e calling domain} while it ran, oldest first —
    the per-request trace of a server worker. Spans recorded
    concurrently by other domains are excluded by design. The trace is
    collected independently of the registry's [span_limit]: spans the
    retention bound drops (and counts as dropped) still appear here, so
    sampled request traces keep working in a long-running server whose
    registry has filled up. *)

module Report : sig
  type span_agg = {
    agg_path : string;
    agg_count : int;
    agg_total : float;
    agg_max : float;
  }

  type t = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * Histogram.summary) list;
    spans : span_agg list;  (** aggregated per path, first-seen order *)
    dropped_spans : int;
  }

  val capture : registry -> t
  (** Snapshot a registry: instruments sorted by name, spans aggregated
      by path. *)

  val to_json : t -> Json.t

  val to_text : t -> string
  (** Span aggregates are printed ranked by total time (descending) with
      a self-time column (total minus direct children), so the text
      report doubles as a quick profile. *)

  val pp_text : Format.formatter -> t -> unit

  val self_times : t -> (string * float) list
  (** Self time per span path — the aggregate total minus the totals of
      its direct children in the slash-joined path hierarchy — in report
      order, clamped at 0. *)
end

(** {2 Prometheus text exposition} *)

val prometheus_name : string -> string
(** Sanitize a Vada-SA metric name into the Prometheus charset
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: every other character (the dots of
    ["engine.facts.derived"], spaces, slashes) becomes ['_']. *)

(** Numbers kept outside the registry (the server's caches, datasets,
    jobs, journal, breaker, pool and request counts), each declared
    once: its JSON key and, when exported, its Prometheus sample. A
    component's [metrics] function returns a list of these; the JSON
    body is the nested list ({!to_json}) and {!Prometheus.render}
    writes their samples. *)
module Metric : sig
  type kind = Counter | Gauge

  type sample = {
    family : string;
        (** full exposition name, e.g. ["vadasa_cache_hits_total"] *)
    kind : kind;
    help : string;
    labels : (string * string) list;
    value : float;
  }

  type t = {
    path : string list;
        (** JSON keys, outermost first; [[]] for a Prometheus-only entry *)
    json : Json.t;
    sample : sample option;  (** [None] for a JSON-only entry *)
  }

  val json : string -> Json.t -> t
  (** A JSON-only entry (a capacity, a directory, a last error). *)

  val counter :
    ?labels:(string * string) list -> family:string -> help:string ->
    string -> int -> t
  (** [counter ~family ~help key n]: [n] under JSON [key] and as a
      counter sample of [family]. *)

  val gauge :
    ?labels:(string * string) list -> family:string -> help:string ->
    string -> int -> t
  (** As {!counter}, typed gauge. *)

  val prom :
    kind -> ?labels:(string * string) list -> family:string -> help:string ->
    float -> t
  (** A Prometheus-only entry; set [path] and [json] on the result to
      give it a JSON form that differs from its sample (a float, a state
      name). *)

  val nest : string -> t list -> t list
  (** Prefix every entry's JSON path with one key; an empty list becomes
      an empty object under that key. *)

  val to_json : t list -> Json.t
  (** Entries nested by path into one object, keys in first-seen
      order; Prometheus-only entries are skipped. *)
end

module Prometheus : sig
  val render : ?namespace:string -> ?metrics:Metric.t list -> Report.t -> string
  (** Text exposition format 0.0.4 of a captured report followed by
      the samples of [metrics]; the only writer of exposition text in
      the stack. Every metric family gets its HELP and TYPE comment
      lines once; registry counters are suffixed [_total]; histograms
      render cumulative [_bucket{le="..."}] series plus [+Inf], [_sum]
      and [_count]. Registry names are sanitized with
      {!prometheus_name} and prefixed with [namespace ^ "_"] (default
      ["vadasa"]). Samples group by family in first-seen order, the
      first sample of a family giving its help and type; label values
      are escaped. A family whose name was already written is dropped,
      so the exposition never repeats a series. Integral values render
      bare, the rest as {!Json.float_repr} prints them ([123456.7], not
      [123457]); histogram [_sum] lines alone keep six significant
      digits ([%g]). Span aggregates are not exported (scrape the JSON
      report or a trace for those); a positive dropped-span count
      appears as [<ns>_telemetry_dropped_spans_total]. *)
end

val trace_json : t -> Json.t
(** Every finished span as a JSON list of
    [{name; path; start_s; duration_s; depth}] events. *)

(** {2 Trace exporters}

    Three interchangeable renderings of the finished spans, selected on
    the CLI with [--trace-format]; see [docs/OBSERVABILITY.md] for how
    to open each one. *)

type trace_format =
  | Events  (** the native {!trace_json} event list *)
  | Chrome  (** Chrome/Perfetto trace-event JSON ([chrome://tracing], ui.perfetto.dev) *)
  | Folded  (** folded-stacks lines for Brendan Gregg's [flamegraph.pl] *)

val trace_format_of_string : string -> (trace_format, string) result
(** Accepts [json]/[events], [chrome]/[perfetto], [folded]/[flamegraph]. *)

val trace_chrome : t -> Json.t
(** [{displayTimeUnit; traceEvents}] with one complete ([ph = "X"])
    event per finished span; [ts]/[dur] in microseconds, span path and
    depth under [args]. Each shard (domain) renders as its own thread
    track ([tid] = shard id + 1) so per-domain nesting survives. *)

val trace_folded : t -> string
(** One [stack self_µs] line per distinct span path, where the stack is
    the slash path re-joined with [;] and the value is the path's self
    time in integer microseconds. *)

val write_trace_as : trace_format -> t -> string -> unit
(** [write_trace_as format registry path] dumps the registry's finished
    spans to [path] in [format]. *)
