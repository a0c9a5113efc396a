(** Statistical disclosure risk estimation — the [#risk] plug-in point of
    the anonymization cycle (paper, Section 4.2).

    All measures instantiate the same scheme ρ_q̂ = 1/λ(σ_{q=q̂} M): an
    aggregate λ over the tuples sharing a quasi-identifier combination,
    turned into a per-tuple risk in [\[0, 1\]]. The polymorphic {!measure}
    selects the λ:

    - {!Re_identification}: λ = Σ W over the combination's tuples
      (Algorithm 3);
    - {!K_anonymity}: risky iff the combination's frequency < k
      (Algorithm 4);
    - {!Individual}: Benedetti–Franconi-style estimation of E[1/F | f]
      (Algorithm 5), with the estimator variants of
      {!Vadasa_stats.Estimator};
    - {!Suda}: risky iff some minimal sample unique is smaller than a
      threshold (Algorithm 6, see {!Risk_suda}). *)

type estimator =
  | Naive  (** f/Σw, the paper's λ = ΣW_t/f *)
  | Benedetti_franconi  (** closed-form posterior mean *)
  | Monte_carlo of { samples : int; seed : int }
      (** sampling from the negative-binomial posterior — the "off-the-shelf
          statistical library" plug-in whose cost dominates Figure 7e.
          Draws are keyed by [(seed, f, ŵ)] ({!Vadasa_stats.Estimator.monte_carlo}),
          so tuples sharing a combination's statistics share its risk and
          each distinct pair is sampled once per {!estimate}. *)

type measure =
  | Re_identification
  | K_anonymity of { k : int }
  | Individual of estimator
  | Suda of { max_msu_size : int; threshold_size : int }
  | Custom of {
      name : string;
      score : freq:int -> weight_sum:float -> float;
    }
      (** user-delegated measure (paper desideratum vii): any risk-weight
          function λ over the combination's frequency and weight sum, i.e.
          an instance of ρ_q̂ = 1/λ(σ_{q=q̂} M); must land in [0,1] *)

type report = {
  measure : measure;
  risk : float array;  (** per tuple, in [\[0,1\]] *)
  freq : int array;  (** sample frequency of each tuple's combination *)
  weight_sum : float array;  (** estimated population frequency *)
}

val group_stats :
  ?semantics:Vadasa_relational.Null_semantics.t ->
  Microdata.t ->
  Vadasa_relational.Algebra.Group_stats.t
(** Frequency and weight sum of every tuple's quasi-identifier combination;
    default semantics is [Maybe_match] so anonymized tuples are credited. *)

val estimate :
  ?semantics:Vadasa_relational.Null_semantics.t ->
  measure ->
  Microdata.t ->
  report

val risky : report -> threshold:float -> int list
(** Tuple positions whose risk strictly exceeds the threshold, ascending. *)

val global_risk : report -> float
(** Expected number of re-identifications (sum of per-tuple risks). *)

val measure_to_string : measure -> string

(** {2 Incremental re-scoring}

    Delta-aware maintenance of a {!report} for datasets that grow by
    appended rows (the server's dataset registry). Per-tuple risk is a
    pure function of the tuple's combination statistics, so an append
    only re-scores the members of the quasi-identifier combinations the
    new rows land in; the maintained buckets replay [Group_stats]'s
    accumulation order, keeping the arrays float-bit-identical to a full
    {!estimate} over the grown relation — asserted by the test suite.

    When that equivalence cannot hold, {!Incremental.append} silently
    performs a full re-estimate instead and reports which fallback
    fired: maybe-match semantics with labelled nulls present (groups
    overlap), or a measure that is not a function of the group
    statistics (SUDA, custom closures). Monte Carlo is such a function:
    its draws are keyed by [(seed, f, ŵ)]. Either way the resulting
    report is exactly what {!estimate} returns on the current data. *)
module Incremental : sig
  type t

  type fallback =
    | Measure_order
        (** SUDA / custom: scores depend on more than the per-group
            statistics *)
    | Null_semantics
        (** maybe-match with labelled nulls in a quasi-identifier
            projection: groups overlap, delta maintenance is invalid *)

  val fallback_to_string : fallback -> string
  (** ["measure-order"] / ["null-semantics"] (metric label values). *)

  type outcome = {
    rows_added : int;
    rows_rescored : int;
        (** members of touched combinations — the whole relation when a
            fallback fired *)
    groups_touched : int;  (** [0] when a fallback fired *)
    fallback : fallback option;
  }

  val create :
    ?semantics:Vadasa_relational.Null_semantics.t -> measure -> Microdata.t -> t
  (** Scores the whole dataset once ({!estimate}) and indexes its
      combinations. The microdata is shared, not copied: the caller
      appends rows to its relation in place, then calls {!append}. *)

  val append : t -> outcome
  (** Re-score after rows were appended to the microdata's relation.
      After [append], {!report} equals [estimate measure md] on the
      grown data byte-for-byte. *)

  val report : t -> report

  val microdata : t -> Microdata.t

  val appends : t -> int
  (** {!append} calls so far. *)

  val full_rescores : t -> int
  (** How many of them fell back to a full re-estimate. *)
end

val pp_report :
  ?limit:int -> Format.formatter -> Microdata.t * report -> unit
(** Human-readable top-risk table (explainability surface). *)
