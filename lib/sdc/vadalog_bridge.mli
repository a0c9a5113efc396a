(** The reasoned execution path: microdata encoded as extensional facts,
    risk measures and anonymization as Vadalog programs run by the engine.

    This is the paper's actual architecture — the native implementations in
    {!Risk} and {!Cycle.native} are the "compiled" fast path, and the
    property tests assert both paths agree. The reasoned path additionally
    yields {!Vadasa_vadalog.Provenance} explanations for every derived risk
    fact.

    Encoding: each tuple at position [i] contributes
    [val(M, i, attr, value)] facts for its quasi-identifiers and weight,
    plus the dictionary's [cat(M, attr, category)] facts (categories are
    rendered with [-] replaced by [_], e.g. [quasi_identifier], to keep
    them bare Vadalog constants). *)

val microdata_facts :
  Microdata.t -> (string * Vadasa_base.Value.t array) list

val microdata_facts_range :
  Microdata.t -> lo:int -> hi:int -> (string * Vadasa_base.Value.t array) list
(** The delta slice of the encoding: [val(M, i, attr, value)] facts for
    rows [i ∈ \[lo, hi)] only, in the same row-major order
    {!microdata_facts} emits them. No [cat] facts — those are
    schema-level and already present from the base upload. Feeds
    appended rows to an engine ahead of
    {!Vadasa_vadalog.Engine.run_incremental}. *)

val base_program : string
(** Algorithm 2, Rule 1: assemble [qset(I, QSet)] (quasi-identifier
    name–value pairs) and [wval(I, W)] from the [val]/[cat] encoding. *)

val k_anonymity_program : k:int -> string
(** Algorithm 4 over the encoding, deriving [riskoutput(I, R)]. Groups by
    exact combination equality — correct on null-free data. *)

val k_anonymity_maybe_program : k:int -> string
(** Algorithm 4 under the maybe-match semantics of Section 4.3: frequencies
    are counted over the pairwise =⊥ relation ([maybe_eq] builtin), so
    labelled nulls from earlier suppression rounds are credited. Quadratic
    in the tuple count — the risk step of {!executor} under maybe-match. *)

val reidentification_program : string
(** Algorithm 3: R = 1 / msum of weights per combination. *)

val individual_program : string
(** Algorithm 5: R = F / msum of weights (frequency over estimated
    population frequency). *)

val suda_program : max_size:int -> threshold_size:int -> string
(** Algorithm 6: combination generation, sample uniques, minimal sample
    uniques, risk 1 for tuples with an MSU smaller than the threshold.
    Exponential in the quasi-identifier count — reasoned path for small
    data only. *)

val enhanced_k_anonymity_program : k:int -> string
(** Algorithm 9 declaratively: the k-anonymity program, the company-control
    rules, the symmetric-transitive link closure, and the cluster risk
    1 − mprod(1 − ρ), deriving [enhancedrisk(I, R)]. Needs [ident(I, E)]
    (tuple → entity) and [own(X, Y, W)] facts. *)

val enhanced_risk_via_engine :
  ?k:int ->
  Microdata.t ->
  id_attr:string ->
  ownerships:Business.ownership list ->
  float array
(** Run {!enhanced_k_anonymity_program} end-to-end on the engine; the
    declarative counterpart of {!Risk.estimate} +
    {!Business.risk_transform}. *)

exception Unsupported of string

val program_of_measure : Risk.measure -> string
(** Vadalog source of a measure's program (the text
    {!risk_via_engine} executes). Raises {!Unsupported} for measures that
    live outside the logic — Benedetti–Franconi closed forms, Monte
    Carlo sampling, custom OCaml functions. Callers that cache compiled
    programs (the server) key their cache on this text. *)

val decode_risks : ?pred:string -> Vadasa_vadalog.Engine.t -> int -> float array
(** Per-tuple risks from a saturated engine's [pred] facts (default
    [riskoutput]; 0 where no fact was derived), for [n] tuples. *)

val risk_via_engine :
  ?budget:Vadasa_base.Budget.t ->
  ?domains:int ->
  ?pool:Vadasa_base.Task_pool.t ->
  Risk.measure ->
  Microdata.t ->
  float array
(** Run the measure's program and decode per-tuple risks (0 where no
    [riskoutput] fact was derived). Raises {!Unsupported} for
    [Individual (Monte_carlo _)] (sampling lives outside the logic).
    [budget] is passed to {!Vadasa_vadalog.Engine.run}; on exhaustion
    [Vadasa_vadalog.Engine.Interrupted] escapes — callers turn it into
    a degraded report. [domains]/[pool] select parallel chase evaluation
    (see {!Vadasa_vadalog.Engine.create}); the decoded risks are
    identical for any domain count. *)

val explain_risk :
  Risk.measure -> Microdata.t -> tuple:int -> string option
(** Provenance tree of the tuple's [riskoutput] fact, rendered. *)

val executor : Cycle.executor
(** The engine executor of {!Cycle.run}: Algorithm 2 with both steps on
    the engine.

    - {e Risk}: the measure's program, {!k_anonymity_maybe_program} under
      [Maybe_match], decoded like {!risk_via_engine}; [freq] and
      [weight_sum] come from {!Risk.group_stats} under the config's
      semantics. The program is parsed once per run.
    - {e Suppression}: a round's suppressions run as Algorithm 7
      ({!Suppression.program}) in one chase; the invented nulls are
      labelled from the run's generator and folded back into the
      relation.

    Before round 1 it raises {!Unsupported} for any configuration with no
    program: a measure other than k-anonymity under [Maybe_match],
    Benedetti–Franconi, Monte Carlo or [Custom] risk, and either recoding
    method. The audit trail, budget and heuristics are {!Cycle.run}'s. *)
