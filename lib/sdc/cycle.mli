(** The anonymization cycle — the core of the Vada-SA architecture
    (paper, Algorithm 2; enhanced form, Algorithm 9).

    Disclosure-risk evaluation and anonymization alternate until every
    tuple's risk falls under the threshold T: each round estimates risk
    with the configured polymorphic measure, selects the violating tuples,
    and greedily removes a minimal amount of information (one suppression
    or recoding per risky tuple per round), in the order given by the
    runtime heuristics. The cycle is {e preemptive} (risk is known before
    sharing), {e active} (it transforms the data), {e statistics
    preserving} (minimal, utility-ordered removal) and {e fully explained}
    (every action carries the binding that motivated it). *)

type anonymization_method =
  | Local_suppression  (** Algorithm 7: fresh labelled nulls *)
  | Global_recoding of Hierarchy.t  (** Algorithm 8: hierarchy roll-up *)
  | Recode_then_suppress of Hierarchy.t
      (** try the hierarchy first, fall back to suppression when the value
          has no coarser parent *)

type action_kind =
  | Suppressed of Vadasa_base.Value.t  (** the erased value *)
  | Recoded of Vadasa_base.Value.t * Vadasa_base.Value.t  (** from, to *)

type action = {
  round : int;
  tuple : int;
  attr : string;
  kind : action_kind;
  risk_before : float;
  freq_before : int;
}

type config = {
  measure : Risk.measure;
  threshold : float;  (** T *)
  semantics : Vadasa_relational.Null_semantics.t;
  tuple_order : Heuristics.tuple_order;
  qi_choice : Heuristics.qi_choice;
  method_ : anonymization_method;
  max_rounds : int;
  per_round_limit : int option;
      (** anonymize at most this many tuples per round (finer greed) *)
  share_nulls : bool;
      (** within-round gain bookkeeping: skip a pending risky tuple once
          earlier suppressions of the round already gave it enough
          maybe-matches — the paper's "wider risk reduction effect"
          (default true; disable for ablation) *)
  risk_transform : (Microdata.t -> float array -> float array) option;
      (** Algorithm 9 hook: e.g. propagate risk along business clusters *)
}

val default_config : config
(** k-anonymity (k=2), T=0.5, maybe-match semantics, less-significant-first,
    most-risky-qi, local suppression, 100 rounds. *)

type outcome = {
  anonymized : Microdata.t;  (** a transformed copy; the input is untouched *)
  rounds : int;
  nulls_injected : int;
  recoded_cells : int;
  risky_initial : int;
  unresolved : int list;
      (** tuples still over threshold with no anonymization move left *)
  info_loss : float;  (** Figure 7b's metric *)
  trace : action list;  (** chronological *)
  converged : bool;
  interrupted : Vadasa_base.Budget.reason option;
      (** [Some _] when a budget stopped the cycle at a round boundary:
          the outcome is degraded — [anonymized] holds every action
          applied so far but tuples may remain over threshold *)
}

(** The two steps of a round, as an executor runs them. The loop — tuple
    order, attribute choice, within-round null sharing, per-round limit,
    audit and budget — is {!run}'s alone. *)
type executor = {
  risk : config -> Microdata.t -> Risk.report;
      (** Estimate the configured measure under the configured semantics.
          Applied to the config once, before round 1: an executor rejects
          a configuration it cannot run there, and may prepare its work
          for the rounds. [freq] and [weight_sum] must be those of
          {!Risk.group_stats} under [config.semantics]: the loop's null
          sharing and trace read them. *)
  suppress : Vadasa_base.Ids.t -> Microdata.t -> (int * string) list -> unit;
      (** Apply one round's [(tuple, attribute)] suppressions in place, in
          action order, drawing every null label from the run's generator
          (its count is the outcome's [nulls_injected]). Each attribute
          holds a constant. *)
}

val native : executor
(** {!Risk.estimate} and {!Suppression.suppress}: the compiled path. The
    engine executor is {!Vadalog_bridge.executor}. *)

val run :
  ?config:config ->
  ?executor:executor ->
  ?audit:Audit.recorder ->
  ?budget:Vadasa_base.Budget.t ->
  Microdata.t ->
  outcome
(** [executor] (default {!native}) estimates each round's risk and
    applies its suppressions; recodings always run natively. Executors
    whose risks agree give the same trace, and anonymized relations
    equal up to a renaming of null labels.

    [budget] is polled between rounds (the derived-fact ceiling counts
    injected nulls); on exhaustion the cycle stops cleanly and reports
    [interrupted = Some reason] instead of raising.

    [audit] receives exactly one {!Audit.event} per executed round
    (including a final converging round that applied no action), so the
    trail's length always equals the outcome's [rounds]. Run-level
    totals additionally mirror into telemetry whether or not a recorder
    is attached: counters [sdc.cells_suppressed]/[sdc.cells_recoded]
    and histograms [sdc.info_loss]/[sdc.iterations]. *)

val pp_outcome : Format.formatter -> outcome -> unit
