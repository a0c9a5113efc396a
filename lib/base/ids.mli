(** Generators for fresh labelled nulls and fresh symbols.

    A generator is an explicit value (not global mutable state) so that every
    reasoning task and every anonymization run owns its own supply and runs
    are reproducible. *)

type t

val create : ?start:int -> unit -> t
(** A fresh generator whose first null label is [start] (default [1]). *)

val fresh_null : t -> Value.t
(** The next labelled null, [Null n] with strictly increasing [n]. *)

val fresh_label : t -> int
(** The next raw label. [fresh_null g = Value.null (fresh_label g)]. *)

val next_label : t -> int
(** The label the next {!fresh_label} returns, drawing none. *)

val fresh_symbol : t -> prefix:string -> string
(** A fresh identifier such as ["z_7"]; used for invented predicate and
    variable names. *)

val count : t -> int
(** Number of labels handed out so far — the "number of injected nulls"
    metric of the paper's Figure 7a/7c/7d when the generator is dedicated to
    an anonymization run. *)
