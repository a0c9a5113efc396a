(** Global recoding (paper, Algorithm 8): decrease the granularity of
    quasi-identifier values by climbing a domain hierarchy.

    "Global" because the same coarsening is applied to the whole microdata
    DB: when Milano rolls up to North, every Milano becomes North, so the
    recoded values stay comparable across tuples and statistical utility
    degrades uniformly rather than per cell. *)

type step = {
  recoded_attr : string;
  from_value : Vadasa_base.Value.t;
  to_value : Vadasa_base.Value.t;
  cells_changed : int;
}

val recode_value :
  Hierarchy.t -> Microdata.t -> attr:string -> Vadasa_base.Value.t ->
  step option
(** Roll the given value of a quasi-identifier up one hierarchy level,
    rewriting {e every} tuple holding it through {!Microdata.set_cell}, so
    a kept encoding of the quasi-identifiers stays valid. [None] when the
    hierarchy has no parent for the value. *)

val recode_tuple :
  Hierarchy.t -> Microdata.t -> tuple:int -> attr:string -> step option
(** Convenience: recode (globally) the value the given tuple currently
    holds for [attr]. This is how the anonymization cycle invokes recoding
    on a risky tuple. *)

val recode_attr_fully :
  Hierarchy.t -> Microdata.t -> attr:string -> step list
(** Roll {e all} distinct values of the attribute up one level (classic
    full-domain generalization). *)

val program : string
(** Vadalog source of Algorithm 8 against [tuple/2], [anonymize/2] and the
    hierarchy facts ([type_of/2], [sub_type_of/2], [inst_of/2], [is_a/2]),
    deriving the recoded [tuple_r/2]. *)
