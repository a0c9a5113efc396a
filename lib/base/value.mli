(** Typed constants shared by the relational and reasoning layers.

    A value is a plain constant (integer, float, string, boolean), a
    {e labelled null} [Null n] — the invented symbols introduced by the chase
    for existentially quantified variables and the anonymization device of
    local suppression (paper, Section 4.3) — or one of the two structured
    forms the Vadalog layer needs for its set-typed variables: pairs and
    collections. A collection is kept canonical (sorted, deduplicated) so
    that set-valued join keys compare positionally. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null of int  (** labelled null ⊥ₙ *)
  | Pair of t * t  (** attribute–value pairs inside collections *)
  | Coll of t list  (** canonical set: sorted, duplicate-free *)

val compare : t -> t -> int
(** Total order: by constructor first, then by payload. Numeric values of
    different constructors ([Int] vs [Float]) are {e not} identified. *)

val equal : t -> t -> bool
(** Standard equality: two labelled nulls are equal iff they carry the same
    label; a null never equals a constant. *)

val equal_maybe : t -> t -> bool
(** Maybe-match equality [=⊥] (paper, Section 4.3): equal constants match,
    and a labelled null matches anything. Pairs and equal-sized collections
    are compared component-wise (collections positionally, in canonical
    order). *)

val hash : t -> int
(** Consistent with {!equal}: [-0.] and [0.] hash alike, as do all
    [nan]s. Allocation-free. *)

val equal_array : t array -> t array -> bool
(** Same length and {!equal} componentwise — fact identity. *)

val hash_array : t array -> int
(** Consistent with {!equal_array}. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by values under {!equal}. *)

module Array_tbl : Hashtbl.S with type key = t array
(** Hash tables keyed by value tuples under {!equal_array}: the fact
    store's dedup table, Skolem memos, aggregation groups. *)

val is_null : t -> bool

val int : int -> t
val float : float -> t
val str : string -> t
val bool : bool -> t
val null : int -> t
val pair : t -> t -> t

val coll : t list -> t
(** Builds a canonical collection: sorts and deduplicates. *)

val coll_elements : t -> t list
(** Elements of a collection. Raises [Invalid_argument] on non-collections. *)

val coll_union : t -> t -> t

val coll_mem : t -> t -> bool
(** [coll_mem c x] — membership of [x] in collection [c]. *)

val coll_assoc : t -> t -> t option
(** [coll_assoc c k] — in a collection of pairs, the second component of the
    (first) pair whose first component equals [k]. *)

val coll_filter_keys : t -> t -> t
(** [coll_filter_keys c keys] — the sub-collection of pairs of [c] whose
    first component is a member of the collection [keys]; the paper's
    [VSet\[AnonSet\]] filtering. *)

val coll_remove_key : t -> t -> t
(** Drop every pair whose first component equals the given key — the
    [VSet \ (A, _)] operation of local suppression (Algorithm 7). *)

val to_string : t -> string
(** Round-trippable rendering for scalars: strings print bare, nulls as
    [#n]; pairs as [(a, b)] and collections as [{x; y}]. *)

val pp : Format.formatter -> t -> unit

val of_literal : string -> t
(** Parse a scalar literal the way the CSV loader and the Vadalog lexer
    agree on: ["12"] is an [Int], ["1.5"] a [Float], ["true"]/["false"] a
    [Bool], ["#3"] the labelled null ⊥₃, anything else a [Str]. *)

val type_name : t -> string

val as_float : t -> float option
(** Numeric view: [Int] and [Float] convert, everything else is [None]. *)
