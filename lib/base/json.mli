(** Minimal JSON values shared across the stack.

    One encoder and one parser for everything that speaks JSON — the
    telemetry reports ({!Vadasa_telemetry}), the counter gate's run
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

val add_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal: quoted, with the quote, the
    backslash and the control characters escaped; other bytes pass
    through. *)

val add_escaped : Buffer.t -> string -> unit
(** {!add_string} without the surrounding quotes: a writer can emit one
    JSON string literal from several pieces. *)

val add_member : Buffer.t -> first:bool -> string -> unit
(** Append one object member's key, [,"key":] — without the comma when
    it is the [first] member — for a writer that streams an object's
    values itself. *)

val to_buffer : ?indent:bool -> ?depth:int -> Buffer.t -> t -> unit
(** Append the encoding of a value. With [~indent:true] it is laid out
    as if nested [depth] levels deep (default [0]): a writer that
    prints an enclosing object itself can embed the value in it. *)

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with two-space
    indentation. *)

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
