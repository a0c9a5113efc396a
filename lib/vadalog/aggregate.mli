(** Monotonic aggregations (msum, mcount, mprod, mmin, mmax, munion).

    Vadalog's monotonic aggregation semantics (paper, Section 4.3): inside
    one aggregation group, contributions are keyed by the {e contributor}
    terms, and a contributor that contributes several times is counted only
    once — the replacement rule keeps the extremal contribution, so that
    when anonymization re-derives a tuple in a "more anonymous version" the
    new version supersedes the old one in the aggregate rather than piling
    on top of it. This replacement is what makes the anonymization cycle
    converge.

    Replacement policy per operator: [Sum], [Prod], [Max] and [Union] keep
    the {b greatest} contribution per contributor (the paper's "least risk";
    note labelled nulls order after constants, so a suppressed pair
    supersedes the original in a [Union]); [Min] keeps the smallest;
    [Count] counts each contributor once. *)

type op = Sum | Count | Prod | Min | Max | Union

val op_of_string : string -> op option
(** Recognizes the Vadalog surface names: msum, mcount, mprod, mmin, mmax,
    munion. *)

val op_to_string : op -> string

val is_agg_name : string -> bool

(** Mutable per-group state: the contributor table plus the current
    aggregate value, updated incrementally. *)
type state

val create : op -> state

val contribute :
  state -> contributor:Vadasa_base.Value.t array -> Vadasa_base.Value.t -> bool
(** Feed one contribution keyed by the contributor terms' values
    (identified by {!Vadasa_base.Value.equal_array}).
    Returns [true] when the aggregate value changed. Raises
    [Invalid_argument] on non-numeric contributions to numeric operators. *)

val current : state -> Vadasa_base.Value.t
(** The aggregate value over the current contributor table. [Sum]/[Prod]
    over an empty table are 0/1; [Count] is 0; [Min]/[Max] over an empty
    table raise; [Union] is the empty collection. *)

val contributors : state -> int
