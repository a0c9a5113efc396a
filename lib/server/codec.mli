(** Request decoding, typed-error HTTP mapping, and canonical JSON
    rendering of SDC results.

    The CLI fills {!options} from its flags and the server from the
    query string or JSON body; both turn it into SDC configuration only
    through the decoders here, so bad options fail alike.

    {!risk_report_string} is shared with the CLI's [risk --json], which
    makes server responses byte-identical to CLI output for the same
    input — the CI smoke job byte-compares the two. Decoding failures
    are {!Vadasa_base.Error.t} values; {!status_of_category} maps their
    category to an HTTP status and {!response_of_error} renders the
    machine-readable error body. *)

type options = {
  name : string;
  measure : string;
  k : int;
  threshold : float;
  msu_threshold : int;
  categories : (string * string) list;
  reasoned : bool;
  method_ : string;
  semantics : string;
  budget_ms : int option;
      (** per-request chase/cycle wall-clock budget (query [budget-ms],
          JSON [budget_ms]) *)
  max_facts : int option;
      (** per-request derived-fact ceiling (query [max-facts], JSON
          [max_facts]) *)
  audit : bool;
      (** anonymize: embed the per-round audit trail in the response
          (query [audit=true], JSON [audit]) *)
}

val default_options : options

val options_to_json : options -> Vadasa_base.Json.t
(** The exact inverse of the JSON-body options decoding (same field
    names): what the registry journal records so replay rebuilds
    identical state, and what job submissions echo back. *)

val options_of_json :
  Vadasa_base.Json.t -> (options, Vadasa_base.Error.t) result
(** Decode options from a JSON object (the [application/json] body
    fields; unknown fields ignored, missing fields defaulted). *)

type payload = { csv : string; options : options }

val parse_payload : Http.request -> (payload, Vadasa_base.Error.t) result
(** [application/json] bodies carry [{"csv": "...", ...options}];
    [text/csv] (or untyped) bodies are the CSV itself with options in the
    query string ([measure], [k], [threshold], [msu-threshold],
    [category=attr=cat] repeatable, [reasoned=true], [method],
    [semantics], [name], [budget-ms], [max-facts]). All failures are
    [Parse]-category errors (HTTP 400): [json.invalid],
    [request.missing_csv], [request.bad_field], [request.bad_param],
    [request.empty_body], [request.unsupported_media]. *)

val measure_of_options :
  options -> (Vadasa_sdc.Risk.measure, Vadasa_base.Error.t) result
(** [measure.unknown] (Wardedness, 422) for unrecognized measures. *)

val parse_fact :
  string ->
  (string * Vadasa_base.Value.t array, Vadasa_base.Error.t) result
(** A ground fact in Vadalog syntax — ["p(a, 1)"], trailing dot
    optional — parsed with the program parser so the accepted value
    syntax matches programs exactly. [fact.invalid] (Parse, 400) on
    anything that is not exactly one ground fact. *)

type explain_request = {
  explain_program : string;
  explain_pred : string;
  explain_args : Vadasa_base.Value.t array;
  explain_max_depth : int option;
  explain_budget_ms : int option;
  explain_max_facts : int option;
}
(** [POST /v1/explain]'s decoded body: the Vadalog program text, the
    fact to explain, and optional depth/budget bounds. *)

val parse_explain_payload :
  Http.request -> (explain_request, Vadasa_base.Error.t) result
(** JSON bodies only: [{"program": "...", "fact": "p(a, 1)",
    "max_depth"?, "budget_ms"?, "max_facts"?}]. Failures are Parse
    errors: [json.invalid], [request.missing_program],
    [request.missing_fact], [request.bad_field], [fact.invalid],
    [request.unsupported_media]. *)

val explain_string : Vadasa_vadalog.Provenance.t -> string
(** Indented {!Vadasa_vadalog.Provenance.to_json} plus trailing newline
    — the canonical rendering used verbatim by both [vadasa explain
    --json] and [POST /v1/explain]. *)

val semantics_of_options :
  options -> (Vadasa_relational.Null_semantics.t, Vadasa_base.Error.t) result
(** [semantics.unknown] (Wardedness, 422) for anything but
    [maybe-match] / [standard]. *)

val microdata_of_relation :
  options ->
  Vadasa_relational.Relation.t ->
  (Vadasa_sdc.Microdata.t, Vadasa_base.Error.t) result
(** Relation → categorized microdata with the expert overrides of
    [options.categories] honoured. A misspelled category is
    [category.unknown]; attributes Algorithm 1 leaves unresolved are
    [categorize.failed] (both Wardedness). *)

val microdata_of_payload :
  payload -> (Vadasa_sdc.Microdata.t, Vadasa_base.Error.t) result
(** CSV → relation ({!microdata_of_relation}). Propagates the CSV
    reader's typed errors ([csv.ragged_row], …). *)

val cycle_config :
  options ->
  Vadasa_sdc.Microdata.t ->
  (Vadasa_sdc.Cycle.config, Vadasa_base.Error.t) result
(** The anonymization cycle's configuration: measure
    ({!measure_of_options}), threshold, semantics
    ({!semantics_of_options}) and method — [suppress], or [recode] over
    the synthetic hierarchy of the given microdata; anything else is
    [method.unknown] (Wardedness). *)

val status_of_category : Vadasa_base.Error.category -> int
(** Parse → 400, Wardedness → 422, Resource → 503, Io → 500,
    Internal → 500. *)

val status_of_error : Vadasa_base.Error.t -> int
(** {!status_of_category} of the error's category, except the registry
    and jobs codes the lattice can't express: [dataset.not_found] /
    [job.not_found] → 404, [dataset.conflict] → 409,
    [tenant.quota_exceeded] / [tenant.rate_limited] → 429. *)

val error_of_exn : exn -> Vadasa_base.Error.t
(** Total mapping of escaped exceptions to the taxonomy:
    [Vadasa_base.Error.Error] passes through; parser/lexer/stratifier
    failures become [program.*] (Wardedness); [Engine.Limit] becomes
    [engine.limit] (Resource); [Vadalog_bridge.Unsupported] becomes
    [measure.unsupported] (Wardedness); [Unix_error] becomes [io.unix];
    everything else lands in [internal.*]. *)

val response_of_error : Vadasa_base.Error.t -> Http.response
(** [{"error": {"code", "category", "message", "context"}}] with the
    status from {!status_of_error}. An error carrying a
    [retry_after_s] context pair (quota / rate-limit / queue-full
    rejections) additionally gets a real [Retry-After] header — the
    same convention as the circuit breaker's 503. *)

(** {2 Risk reports} *)

(** What a maintained report keeps of its last rendering, so the next
    one prints only the numbers that changed. Two text columns, one for
    [risk] and one for [weight_sum], hold each row's text next to the
    bits of the float it was printed from, up to a filled-prefix length.
    A render blits a row's stored text when the row's float has the same
    bits, and prints (and stores) a fresh one when they differ or the
    row is new. An append re-scores a few rows, so the next body
    formats only theirs. Not thread-safe: its owner renders under a
    lock ({!Registry.risk_report_string}). *)
module Report_text : sig
  type t

  val create : unit -> t

  val formatted : t -> int
  (** Floats the last render through [t] printed with
      {!Vadasa_base.Json.float_repr} rather than reusing a stored text:
      the changed and new rows' [risk] and [weight_sum] values, plus
      [threshold] and [global_risk], which are always printed. *)
end

val risk_report_string :
  ?text:Report_text.t ->
  ?interrupt:Vadasa_vadalog.Engine.interrupt ->
  threshold:float ->
  Vadasa_sdc.Microdata.t ->
  Vadasa_sdc.Risk.report ->
  string
(** The risk report as indented JSON plus a trailing newline: the one
    rendering used by the CLI's [risk --json], [POST /v1/risk], the
    maintained and [?mode=full] [GET /v1/datasets/{id}/risk] and the
    jobs runner, so their bodies are byte-identical for the same state.
    Fields, in order: [dataset], [tuples], [measure], [threshold],
    [global_risk], [risky_count], [risky], [risk], [freq], [weight_sum];
    floats print as {!Vadasa_base.Json.float_repr} does. One writer
    appends them straight into a buffer, without building a
    {!Vadasa_base.Json.t} tree.

    [text] reuses and refreshes a maintained report's per-row text
    ({!Report_text}), and the buffer is sized from the last body
    rendered through it; it changes no byte. Without it the render
    fills fresh columns. [interrupt] appends
    ["degraded": true] and a ["partial"] object ({!interrupt_json}) after
    the baseline fields, so a degraded body's prefix is the unbudgeted
    rendering. *)

val interrupt_json : Vadasa_vadalog.Engine.interrupt -> Vadasa_base.Json.t
(** [{"reason", "stratum", "iteration", "facts_derived"}] — the partial
    progress carried by a degraded response. *)

val anonymize_outcome_json :
  ?audit:Vadasa_sdc.Audit.event list ->
  Vadasa_sdc.Microdata.t ->
  Vadasa_sdc.Cycle.outcome ->
  Vadasa_base.Json.t
(** Outcome counters plus the anonymized relation as a [csv] field.
    [audit] appends the per-round trail as an ["audit"] list (the same
    event objects the CLI's [--audit] JSONL holds). When the cycle was
    interrupted by its budget, appends ["degraded": true] and
    ["interrupt_reason"]. *)

val categorize_result_json : Vadasa_sdc.Categorize.result -> Vadasa_base.Json.t

val reason_json :
  ?interrupt:Vadasa_vadalog.Engine.interrupt ->
  cached:bool ->
  warded:bool ->
  threshold:float ->
  Vadasa_sdc.Microdata.t ->
  float array ->
  Vadasa_base.Json.t
(** Reasoned-path risk report; [cached] reports whether the compiled
    program came from the program cache, [warded] the static wardedness
    verdict cached alongside it. [interrupt] marks a chase cut short by
    its budget: the risks rendered are the partial decode and the body
    carries ["degraded": true]. *)
