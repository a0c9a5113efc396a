(** Tuples: flat arrays of values, positionally matching a schema. *)

type t = Vadasa_base.Value.t array

val of_list : Vadasa_base.Value.t list -> t

val get : t -> int -> Vadasa_base.Value.t

val set : t -> int -> Vadasa_base.Value.t -> t
(** Functional update: a fresh tuple with position [i] replaced. *)

val project : t -> int array -> t
(** Sub-tuple at the given positions, in the given order. *)

val equal : t -> t -> bool
(** Positional equality under the standard value equality. *)

val compare : t -> t -> int

val hash : t -> int

val has_null : t -> bool

val null_positions : t -> int list
(** Positions holding labelled nulls, ascending. *)

val null_mask : t -> int
(** Bitmask of null positions; tuples wider than 62 attributes are not
    supported by the mask (raises [Invalid_argument]). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
