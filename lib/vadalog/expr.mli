(** Expressions: the computational layer of rule bodies and heads.

    Expressions appear as guards ([R > T]), assignments ([R = 1/S]) and head
    arguments (e.g. the suppression head
    [tuple(M, I, union(remove_key(VSet, A), pair(A, Z)))], Algorithm 7). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** always real division *)
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type t =
  | Const of Vadasa_base.Value.t
  | Var of string
  | Call of string * t list  (** builtin function application *)
  | Binop of binop * t * t
  | Not of t
  | Neg of t

exception Eval_error of string

type env = (string, Vadasa_base.Value.t) Hashtbl.t

(** {2 Compiled expressions}

    The chase resolves every variable to an integer slot of a per-rule
    register file once, when it compiles the rule, and evaluates
    {!code} against that array. *)

type code
(** An expression whose variables are resolved to slots, and whose
    builtin calls are resolved to functions. *)

val compile : slot:(string -> int option) -> t -> code
(** [slot x] is [x]'s register, or [None] for a variable that is not
    bound where the code runs — evaluating it then raises {!Eval_error}
    ("unbound variable"), exactly when by-name evaluation would. *)

val run : Vadasa_base.Value.t array -> code -> Vadasa_base.Value.t
(** Evaluate against a register file. Raises {!Eval_error} on unbound
    variables or type errors. Arithmetic on two [Int]s stays integral
    except [Div]; comparisons use the total value order; [Eq]/[Ne] use
    standard (not maybe-match) equality — use the [maybe_eq] builtin
    for =⊥. *)

val run_bool : Vadasa_base.Value.t array -> code -> bool
(** {!run}, requiring a boolean. *)

val eval : env -> t -> Vadasa_base.Value.t
(** By-name evaluation: {!compile} against the environment, then
    {!run}. For the parser's constant folding and tests; the chase
    uses compiled code. *)

val vars : t -> string list
(** Distinct variables, first-occurrence order. *)

val of_term : Term.t -> t

val as_term : t -> Term.t option
(** [Some] when the expression is a bare variable or constant. *)

val binop_to_string : binop -> string

val pp : Format.formatter -> t -> unit

val to_string : t -> string
