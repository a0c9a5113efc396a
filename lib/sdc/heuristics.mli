(** Runtime heuristics (paper, Section 4.4): which risky tuple to anonymize
    first, and which quasi-identifier of it to touch.

    These reproduce the routing strategies of the underlying reasoning
    system: bindings of the anonymization rule are prioritized rather than
    processed in arbitrary order. *)

(** Order in which risky tuples are anonymized within a round. *)
type tuple_order =
  | Less_significant_first
      (** ascending sampling weight: sacrifice the least statistically
          significant tuples first, preserving data utility *)
  | Most_risky_first  (** descending estimated risk *)
  | In_order  (** source position *)

val order_tuples :
  tuple_order -> Microdata.t -> risk:float array -> int list -> int list

(** Which quasi-identifier of a risky tuple to suppress or recode. *)
type qi_choice =
  | Most_risky_qi
      (** the attribute whose removal raises the tuple's frequency the most
          — maximal risk-reduction per suppressed value (the paper's
          "most risky first" routing strategy) *)
  | Most_selective_qi
      (** the attribute with the most distinct values globally — a cheap
          static proxy for {!Most_risky_qi} *)
  | First_qi  (** schema order *)

(** Per-round cache of leave-one-out frequency tables for
    {!Most_risky_qi}; build once per anonymization round. *)
type cache

val build_cache : Microdata.t -> cache
(** Groups the microdata's kept quasi-identifier encoding
    ({!Microdata.qi_codes}) and keeps, per attribute, each tuple's group id
    with that attribute left out plus each group's size. A snapshot: later
    suppressions in the round do not show. *)

val freq_without : cache -> tuple:int -> int -> int
(** [freq_without cache ~tuple j] — how many tuples agree with [tuple] on
    every quasi-identifier except the [j]-th (standard semantics: a
    labelled null agrees only with the same label), as of {!build_cache}. *)

val choose_qi :
  qi_choice -> cache -> Microdata.t -> tuple:int -> candidates:string list ->
  string option
(** Pick among [candidates] (attributes still suppressible/recodable for
    the tuple); [None] when the list is empty. *)

val tuple_order_to_string : tuple_order -> string
val qi_choice_to_string : qi_choice -> string
