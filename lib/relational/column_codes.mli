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

    {b Kept, and kept in step.} An encoding describes the relation as it
    was when encoded. The SDC layer's [Microdata] keeps the encoding of its
    quasi-identifier columns together with the {!Relation.version} it was
    taken at, and hands it out while the version is unchanged, so the
    risk measures, SUDA and the cycle's leave-one-out tables and
    within-round gains over one relation share one encoding. Suppression
    and recoding rewrite cells through {!set}, which keeps the encoding
    exact; any other mutation bumps the version and the next reader
    encodes afresh. After a {!set}, codes no longer follow first
    appearance and a column may keep codes no row holds any more, but two
    cells still share a code iff their values are equal, so every grouping
    below comes out as on a fresh encoding. *)

type t

val encode : Relation.t -> int array -> t
(** [encode rel cols] encodes columns [cols] (positions into [rel]'s
    schema) of every tuple of [rel], in one pass. Column [j] of the
    encoding is [cols.(j)]. Recorded as the [relational.codes.encode]
    span. *)

val copy : t -> t
(** An independent copy: {!set} on one does not show in the other. *)

val set : t -> row:int -> int -> Vadasa_base.Value.t -> unit
(** [set t ~row j v] records that the row's cell in column [j] now holds
    [v]: the cell takes [v]'s code (a new one when [v] is new to the
    column), the row's null mask follows, and {!distinct_values} counts
    only values some row still holds. Afterwards [t] groups exactly as a
    fresh {!encode} of the updated relation. *)

val width : t -> int
(** Number of encoded columns. *)

val cardinality : t -> int -> int
(** One more than the largest code of column [j]: codes of column [j]
    (raw or null-normalized) lie in [\[0, cardinality t j)]. *)

val distinct_values : t -> int -> int
(** Number of distinct values in column [j], each labelled null counted
    as its own value: what a fresh {!encode} would count, also after
    {!set}. *)

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
    appearance, so the ids depend only on which rows share codes, not on
    how the codes are numbered. Cost: O(rows · |cols|), allocation-free
    per row. The renumbering table is per-domain scratch, so one encoding
    can be grouped from several domains at once (it must not be {!set}
    meanwhile). *)

val group_sizes : groups -> int array
(** [group_sizes g] — [(group_sizes g).(k)] is the number of rows in group
    [k]. *)
