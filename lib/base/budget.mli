(** Cooperative cancellation budget.

    A budget bundles the three ways a long computation can be told to
    stop: an absolute wall-clock {!Clock} deadline, a ceiling on
    derived facts, and an externally settable cancel flag. The holder
    (the chase engine, the anonymization cycle) polls {!check} at
    natural iteration boundaries and raises a structured exception
    carrying partial progress when the budget is exhausted.

    A budget is cheap to poll (one or two atomic/float loads) and safe
    to share across domains: [cancel] may be called from any thread
    while the worker polls [check]. *)

type t

type reason = Cancelled | Deadline | Fact_ceiling

val create : ?deadline_in:float -> ?deadline:float -> ?max_facts:int -> unit -> t
(** [create ~deadline_in:s ()] expires [s] seconds from now;
    [~deadline] gives an absolute {!Clock} time instead (if both are
    set, the earlier wins). [~max_facts] caps the number of derived
    facts reported to {!check}. With no argument the budget only
    responds to {!cancel}. *)

val cancel : t -> unit
(** Request cooperative cancellation; idempotent, thread-safe. *)

val cancelled : t -> bool

val deadline : t -> float option
val max_facts : t -> int option

val check : t -> facts:int -> reason option
(** [check b ~facts] is [Some reason] when the budget is exhausted:
    cancel flag set, deadline reached (inclusive, see
    {!Clock.expired}), or [facts] at/over the ceiling. Priority when
    several are exceeded: cancel, then deadline, then fact ceiling. *)

val reason_to_string : reason -> string
(** ["cancelled" | "deadline" | "fact_ceiling"] *)

val reason_code : reason -> string
(** Error-taxonomy code: ["budget.cancelled" | "budget.deadline" |
    "budget.fact_ceiling"]. *)
