(** The fact store: facts per predicate, in insertion order, with duplicate
    elimination, lazily-built positional indexes and optional provenance.

    Insertion order is what the semi-naive evaluator's deltas are defined
    over: facts with index ≥ a watermark are "new". Facts are identified
    structurally — {!Vadasa_base.Value.equal_array} — so two facts are
    one exactly when their arguments are equal values: [Int 1],
    [Float 1.] and [Str "1"] stay apart, [1.00000000000001] and [1.] stay
    apart, and [-0.] is [0.].

    {b Thread-safety contract.} A database is {e single-writer}: {!add}
    and {!rel_add} (and anything that calls them), and {!relation} when
    it creates a predicate, must come from at most one domain at a time,
    with no concurrent readers. Once the store is {e quiescent} — no
    further writes — any number of domains may concurrently call the
    read-side operations ({!mem}, {!rel_mem}, {!facts}, {!nth},
    {!rel_nth}, {!iter_pred}, {!lookup}, {!probe}, {!provenance_of}, …).
    Probes stay safe even though positional indexes are built lazily:
    each index table, buckets included, is fully built before being
    published through an atomic compare-and-set of an immutable
    position → index map, so a concurrent reader sees either no index
    (and builds its own candidate; CAS losers are discarded) or a
    complete one, never a partially-built table. After publication a
    bucket's growable array changes only under {!add}, i.e. never while
    readers run; a single-domain caller that keeps a {!Bucket.t} across
    its own inserts still reads a valid prefix, because growth copies
    the ascending indexes into a larger array and leaves the old one
    intact. *)

type provenance =
  | Edb  (** asserted input fact *)
  | Derived of {
      rule_id : int;
      rule_label : string;
      parents : (string * Vadasa_base.Value.t array) list;
    }

type t

val create : unit -> t
(** An empty store. It keeps the {!provenance} of every fact, so
    explanations ({!provenance_of}) work. *)

val add : t -> ?prov:provenance -> string -> Vadasa_base.Value.t array -> bool
(** [true] when the fact was new. Default provenance is [Edb].
    Write-side: subject to the single-writer contract above. *)

val mem : t -> string -> Vadasa_base.Value.t array -> bool
(** Membership under standard equality (labelled nulls compare by
    label). Read-side: safe from any domain on a quiescent store. *)

val pred_size : t -> string -> int
(** Number of facts of a predicate (0 for unknown predicates). *)

val nth : t -> string -> int -> Vadasa_base.Value.t array
(** Fact by insertion index. *)

val facts : t -> string -> Vadasa_base.Value.t array list
(** All facts of a predicate, in insertion order. *)

val iter_pred : t -> string -> (Vadasa_base.Value.t array -> unit) -> unit
(** Iterate a predicate's facts in insertion order without building the
    intermediate list of {!facts}. This is the scan the semi-naive
    evaluator's delta ranges are defined over — and what the parallel
    evaluator's workers run concurrently on a quiescent store. *)

val lookup : t -> string -> pos:int -> Vadasa_base.Value.t -> int list
(** Insertion indexes, ascending, of facts whose argument at [pos]
    equals the value (standard equality); builds the positional index on
    first use and maintains it afterwards. Safe to call from multiple
    domains on a quiescent store (see the thread-safety contract
    above). *)

(** {2 Relation handles}

    The chase resolves each predicate once, when it compiles a rule, and
    then works on the handle: no predicate-name hashing per probe or per
    insert. *)

type relation
(** One predicate's facts, indexes and provenance. *)

val relation : t -> string -> relation
(** The predicate's store, created empty on first request (a write). *)

val rel_add :
  t -> relation -> ?prov:provenance -> Vadasa_base.Value.t array -> bool
(** {!add} through a handle of this database. Write-side. *)

val rel_mem : relation -> Vadasa_base.Value.t array -> bool

val rel_size : relation -> int

val rel_nth : relation -> int -> Vadasa_base.Value.t array
(** Fact by insertion index, unchecked beyond array bounds. *)

module Bucket : sig
  type t

  val length : t -> int

  val get : t -> int -> int
  (** [get b i], [i < length b]: the [i]-th insertion index, ascending. *)
end

val probe : relation -> pos:int -> Vadasa_base.Value.t -> Bucket.t
(** The facts whose argument at [pos] equals the value, as an index
    bucket (empty when none); builds the position's index on first
    use. Facts inserted later are appended to the same bucket. *)

val total : t -> int
(** Facts across all predicates — the number the engine's fact-ceiling
    budget counts against. *)

val predicates : t -> string list
(** Every predicate with at least one fact, sorted. *)

val provenance_of : t -> string -> Vadasa_base.Value.t array -> provenance option
(** [None] when the fact is absent. *)
