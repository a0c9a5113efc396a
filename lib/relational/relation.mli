(** Relations: a schema plus a growable sequence of tuples.

    Tuples keep their insertion order and are addressed by a stable integer
    position — risk reports and anonymization traces refer to tuples by that
    position. *)

type t

val create : Schema.t -> t

val of_tuples : Schema.t -> Tuple.t list -> t
(** Raises [Invalid_argument] on an arity mismatch. *)

val schema : t -> Schema.t

val cardinal : t -> int

val version : t -> int
(** A counter that every {!set} and {!add} on this relation increases. A
    value derived from the relation at some version (an encoding of its
    columns) is still valid while the version is unchanged. *)

val get : t -> int -> Tuple.t

val set : t -> int -> Tuple.t -> unit
(** In-place replacement (used by anonymization to swap in the suppressed
    version of a tuple). *)

val add : t -> Tuple.t -> unit

val iter : (Tuple.t -> unit) -> t -> unit

val iteri : (int -> Tuple.t -> unit) -> t -> unit

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val map : (Tuple.t -> Tuple.t) -> t -> t
(** Fresh relation with the same schema. *)

val filter : (Tuple.t -> bool) -> t -> t

val to_list : t -> Tuple.t list

val copy : t -> t
(** Deep copy: the new relation shares no tuple arrays with the old one. *)

val column : t -> string -> Vadasa_base.Value.t array

val count_nulls : t -> int
(** Total number of labelled-null occurrences across all tuples — the
    paper's "number of injected nulls" metric when the input had none. *)

val pp : Format.formatter -> t -> unit
(** Render as an aligned table (all tuples; use {!pp_sample} for a prefix). *)

val pp_sample : ?limit:int -> Format.formatter -> t -> unit
