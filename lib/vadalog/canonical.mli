(** Canonical chase output: the database rendered modulo labelled-null
    renaming and insertion order.

    An incremental continuation ({!Engine.run_incremental}) derives the
    same {e set} of facts as a from-scratch chase over the unioned
    input, but may insert them in a different order and under different
    null labels. {!of_engine} renders every invented null as the Skolem
    term recorded by {!Engine.null_origin} — [sk(rule, var, frontier)],
    recursively — and sorts the fact lines, so byte-equality of two
    canonical forms is exactly fact-set equality modulo null renaming.
    Input nulls (labels present in the data) render as [#n]: their
    labels are data, not chase bookkeeping. *)

val of_engine : Engine.t -> string
(** One sorted line per fact, [pred(type:value,...)], newline-terminated.
    Scalars are type-tagged, floats rendered losslessly in hexadecimal,
    collections re-sorted under the canonical null naming. Intended for saturated,
    quiescent engines. *)
