(** Built-in functions available inside Vadalog expressions.

    These cover the operations the paper's rule programs rely on: pair
    construction, collection access ([VSet\[A\]]), filtering by a name set
    ([VSet\[AnonSet\]]), suppression rewriting ([VSet \ (A,_)] ∪ [(A,Z)]),
    size, membership, the conditional, and the maybe-match comparison of
    collections used when labelled nulls take part in group formation. *)

exception Error of string

val apply : string -> Vadasa_base.Value.t list -> Vadasa_base.Value.t
(** [apply name args]. Raises {!Error} on unknown names or ill-typed
    arguments. *)

val resolve : string -> Vadasa_base.Value.t list -> Vadasa_base.Value.t
(** [resolve name] looks the function up once; applying the result is
    {!apply} [name] without the name lookup. Unknown names still raise
    {!Error} when applied, not when resolved. *)

val is_builtin : string -> bool

val names : unit -> string list

(** Supported functions:
    - [pair(a, b)] — an attribute/value pair (also written [(a, b)]).
    - [fst(p)], [snd(p)] — pair projections.
    - [coll(x1, …, xn)] — a collection (canonical set).
    - [get(c, k)] — second component of the pair keyed [k] in [c]; raises
      if absent.
    - [filter(c, keys)] — sub-collection of pairs whose key is in [keys].
    - [remove_key(c, k)] — drop pairs keyed [k] ([VSet \ (k, _)]).
    - [union(a, b)] — set union of collections.
    - [member(c, x)] — membership test.
    - [size(c)] — cardinality.
    - [keys(c)] — collection of the first components of [c]'s pairs.
    - [is_null(x)] — whether [x] is a labelled null.
    - [maybe_eq(a, b)] — the =⊥ comparison (Section 4.3).
    - [ite(c, a, b)] — conditional on a boolean.
    - [min(a, b)], [max(a, b)], [abs(x)], [log(x)], [exp(x)], [pow(x, y)].
    - [concat(a, b)] — string concatenation of renderings. *)
