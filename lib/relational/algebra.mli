(** Relational algebra over {!Relation.t}, plus the null-aware group
    statistics that every risk measure is built on.

    The paper frames statistical disclosure risk as ρ = 1/λ(σ_{q=q̂} M): an
    aggregate λ over the tuples sharing a quasi-identifier combination q̂.
    {!Group_stats.compute} evaluates, for every tuple at once, the frequency
    and the weight sum of its combination — under either labelled-null
    semantics — so the individual measures reduce to arithmetic on the
    result. *)

val select : (Tuple.t -> bool) -> Relation.t -> Relation.t

val project : Relation.t -> string list -> Relation.t
(** Keeps duplicates (bag semantics, like the microdata DBs themselves). *)

val distinct : Relation.t -> Relation.t
(** Removes duplicate tuples under standard equality, keeping first
    occurrences in order. *)

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Join on all shared attribute names; result carries the left schema
    followed by the right-only attributes. Standard null semantics
    (nulls join only with themselves). *)

val equi_join :
  left:Relation.t -> right:Relation.t -> on:(string * string) list ->
  Relation.t
(** Join on explicit attribute pairs; all attributes of both sides are kept
    (right-side names prefixed with the right schema name and a dot when
    they clash). *)

val union : Relation.t -> Relation.t -> Relation.t
(** Bag union; schemas must have equal arity. *)

val sort_by :
  Relation.t -> (Tuple.t -> Tuple.t -> int) -> Relation.t

val group_indices :
  Relation.t -> cols:int array -> int list Vadasa_base.Value.Array_tbl.t
(** Standard-semantics grouping: projected values → member positions
    (ascending). *)

(** Per-tuple statistics of the quasi-identifier combination each tuple
    belongs to. *)
module Group_stats : sig
  type t = {
    freq : int array;
        (** [freq.(i)] — how many tuples (including tuple [i] itself) match
            tuple [i] on the projection, under the chosen semantics. This is
            the sample frequency f of the paper. *)
    weight_sum : float array;
        (** [weight_sum.(i)] — sum of the sampling weights of those same
            tuples; the estimator ŵ of the population frequency F. Equal to
            [float freq] when no weight column is given. *)
  }

  val compute :
    semantics:Null_semantics.t ->
    rel:Relation.t ->
    qi:int array ->
    ?weight:int ->
    unit ->
    t
  (** [qi] — positions of the quasi-identifiers to compare on; [weight] —
      position of the sampling-weight column, if any.

      Under [Maybe_match] the groups overlap: a tuple with [k] nulls among
      its quasi-identifiers contributes to (and collects from) every
      compatible combination, exactly as in the paper's Section 4.3 example
      where one suppression lifts the frequency of tuple 1 from 1 to 5 and
      of tuples 2–5 from 2 to 3.

      Grouping runs on {!Column_codes}: the quasi-identifier columns are
      encoded once per call and every grouping below is a pass over dense
      group ids. Values group under {!Vadasa_base.Value.equal}, so values
      that merely render alike ([Int 1] and [Str "1"]) stay apart.

      Under [Maybe_match], each null-bearing tuple first collects the
      constant tuples agreeing with it on its non-null positions (one
      grouping per distinct null mask), then its null-pattern class
      collects every compatible class. Classes (same null positions, same
      constants) are numbered in order of first appearance in the
      relation, and each tuple collects its compatible classes in that
      order, its own class at its own index; that order fixes the
      floating-point additions into [weight_sum] of null-bearing tuples.

      Cost: O(n·q) for all-constant data over q quasi-identifiers; plus
      O(n·q) per distinct null mask, O(m·n̄) cohort crediting and the
      class tests, where m is the number of null-bearing tuples, n̄ the
      size of their matched constant cohorts and c the number of
      null-pattern classes. Classes are compared on their codes, bucketed
      by the code at the position where the fewest classes are null: a
      pair is tested only when it shares that code or one of the two is
      null there. That is O(c²·q) at worst (every class null at every
      position), and on the cycle's suppressed data about a third of the
      c(c−1)/2 pairs. *)
end
