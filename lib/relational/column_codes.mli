(** Dictionary-encoded columns: each selected column of a relation mapped to
    dense integer codes, and dense group ids computed from those codes.

    Grouping tuples by a projection is the inner loop of every risk
    measure: group statistics, SUDA's per-subset frequency tables and the
    cycle's leave-one-out caches. Encoding the columns once lets each of
    those groupings run on ints, with no projected tuple and no hashed
    value per row.

    {b Codes.} Within a column, two cells get the same code iff their
    values are {!Vadasa_base.Value.equal}. Codes start at 1 and follow
    first appearance in row order. Distinct labelled nulls get distinct
    codes, so raw codes group exactly as the standard null semantics does.
    Code 0 is reserved: it is never assigned to a value,
    and null-normalized keys use it for every labelled null ("some null
    here", the pattern that maybe-match grouping compares on).

    {b Encoding is per call.} An encoding is a snapshot of the relation.
    Suppression, recoding and registry appends mutate relations in place,
    so a cached encoding would have to be invalidated on each of them.
    Encoding costs one hash lookup per cell, well under a millisecond for
    the paper's datasets, so every consumer encodes the relation it is
    handed and drops the encoding when it returns. *)

type t

val encode : Relation.t -> int array -> t
(** [encode rel cols] encodes columns [cols] (positions into [rel]'s
    schema) of every tuple of [rel], in one pass. Column [j] of the
    encoding is [cols.(j)]. *)

val width : t -> int
(** Number of encoded columns. *)

val cardinality : t -> int -> int
(** One more than the largest code of column [j]: codes of column [j]
    (raw or null-normalized) lie in [\[0, cardinality t j)]. *)

val distinct_values : t -> int -> int
(** Number of distinct values in column [j], each labelled null counted
    as its own value. *)

val null_mask : t -> int -> int
(** Bit [j] set iff column [j] holds a labelled null at the row. Raises
    [Invalid_argument] when the encoding is wider than 62 columns. *)

val has_null : t -> int -> bool
(** Some encoded column holds a labelled null at the row. *)

val pattern_code : t -> int -> int -> int
(** [pattern_code t row j] — the row's code in column [j], or [-1] when the
    cell holds a labelled null. Rows of one null-pattern class (same null
    positions, same constants) agree at every column. *)

type groups = {
  id : int array;
      (** [id.(row)] — the row's group, in [\[0, count)]. Groups are
          numbered in order of first appearance. *)
  count : int;  (** number of groups *)
}

val group_ids : ?normalize_nulls:bool -> t -> int array -> groups
(** [group_ids t cols] groups the rows by their codes at columns [cols]
    (positions into the encoding). Two rows share a group iff their codes
    agree at every position in [cols]. With [~normalize_nulls:true]
    (default [false]) every labelled null counts as code 0, so rows
    differing only in null labels share a group.

    The codes are packed into one int per row as a mixed-radix number
    while the product of the columns' cardinalities stays within 62 bits.
    Past that, the packed prefix is renumbered to dense ids
    ([< rows]) and packing continues from them ([id * card + code], which
    always fits). The final keys are renumbered densely in order of first
    appearance. Cost: O(rows · |cols|), allocation-free per row. The
    renumbering table is scratch kept in [t], so one encoding must not be
    grouped from two domains at once. *)

val group_sizes : groups -> int array
(** [group_sizes g] — [(group_sizes g).(k)] is the number of rows in group
    [k]. *)
