(** Minimal JSON values shared across the stack.

    One encoder and one parser for everything that speaks JSON — the
    telemetry reports ({!Vadasa_telemetry}), the bench regression-guard
    reader and the server codec — so renderings cannot drift between
    subsystems. Encoding is deterministic: object fields print in the
    order given, floats use the shortest representation that
    round-trips, and [nan]/[inf] are clamped to finite literals. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** How {!to_string} prints a [Float]: the shortest of [%.12g] and
    [%.17g] that parses back to the same float; [nan] prints as [0] and
    the infinities as [±1e308]. *)

val to_string : ?float_repr:(float -> string) -> ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with two-space
    indentation. [float_repr] (default {!float_repr}) prints each
    [Float]; a caller passing its own must return what {!float_repr}
    would, so a memoized printer changes no byte. *)

val of_string : string -> (t, string) result
(** Full JSON parser (strings with escapes and surrogate pairs, numbers,
    nested containers). The error carries the byte offset. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing fields and non-objects. *)

val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** [Int] widens to float. *)

val to_string_opt : t -> string option

val to_list_opt : t -> t list option

val to_bool_opt : t -> bool option
