(** Microdata DBs: a relation whose attributes are categorized as direct
    identifiers, quasi-identifiers, non-identifying attributes or the
    sampling weight (paper, Section 2.1, schema M(i, q, a, W)).

    A microdata DB keeps the {!Vadasa_relational.Column_codes} encoding of
    its quasi-identifier columns ({!qi_codes}), so every risk measure,
    SUDA and the cycle's leave-one-out tables and within-round gains read
    one encoding instead of each encoding the relation again or hashing
    projected values. The encoding is tied to this
    microdata's relation at one {!Vadasa_relational.Relation.version}:
    {!set_cell} (suppression, recoding) keeps it in step, and any other
    mutation of the relation (the engine executor's rewrite, registry
    appends) leaves it stale, so the next {!qi_codes} encodes afresh. *)

module Relational = Vadasa_relational

type category =
  | Identifier  (** a single value discloses the respondent (SSN, fiscal code) *)
  | Quasi_identifier  (** combinations disclose (area, sector, size, …) *)
  | Non_identifying  (** never disclose, alone or combined *)
  | Weight  (** the sampling weight W *)

val category_to_string : category -> string

val category_of_string : string -> category option

type t

val make :
  Relational.Relation.t -> (string * category) list -> t
(** Pairs every attribute of the relation's schema with a category. Raises
    [Invalid_argument] when an attribute is missing a category, a category
    names an unknown attribute, or more than one attribute is the
    [Weight]. *)

val relation : t -> Relational.Relation.t

val schema : t -> Relational.Schema.t

val name : t -> string

val cardinal : t -> int

val category_of : t -> string -> category

val categories : t -> (string * category) list
(** In schema order. *)

val quasi_identifiers : t -> string list

val qi_positions : t -> int array

val identifier_positions : t -> int array

val weight_position : t -> int option

val weight_of : t -> int -> float
(** Sampling weight of the tuple at a position; [1.0] when the microdata DB
    has no weight attribute or the value is not numeric. *)

val qi_codes : t -> Relational.Column_codes.t
(** The encoding of the quasi-identifier columns ({!qi_positions}) of the
    relation as it is now: the kept one while the relation is unchanged
    since it was taken, otherwise a fresh
    {!Vadasa_relational.Column_codes.encode}, which is then kept. Reading
    it from several domains at once is safe as long as none of them
    mutates the relation. *)

val set_cell : t -> tuple:int -> pos:int -> Vadasa_base.Value.t -> unit
(** [set_cell t ~tuple ~pos v] replaces the value at schema position [pos]
    of the tuple, in place. When the kept encoding was valid it stays
    valid: the cell's code is updated ({!Vadasa_relational.Column_codes.set})
    instead of the whole relation being encoded again. *)

val with_relation : t -> Relational.Relation.t -> t
(** Same categorization over another relation with an equal schema; no
    encoding kept yet. *)

val copy : t -> t
(** Deep copy (fresh relation, fresh tuples). A valid kept encoding is
    copied too, so the copy starts encoded. *)

val drop_identifiers : t -> Relational.Relation.t
(** The exchanged view: direct identifiers removed (they must never be
    disclosed), all other attributes kept. *)

val qi_projection : t -> int -> Relational.Tuple.t
(** Quasi-identifier values of the tuple at a position. *)

val pp : Format.formatter -> t -> unit
