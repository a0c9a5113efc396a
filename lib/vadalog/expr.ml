module Value = Vadasa_base.Value

type binop = Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or

type t =
  | Const of Value.t
  | Var of string
  | Call of string * t list
  | Binop of binop * t * t
  | Not of t
  | Neg of t

exception Eval_error of string

type env = (string, Value.t) Hashtbl.t

(* An expression with its variables resolved to register slots. A
   variable the resolver does not know stays [C_free] and raises only if
   evaluation reaches it, as an unbound name always has. *)
type code =
  | C_const of Value.t
  | C_slot of int
  | C_free of string
  | C_call of (Value.t list -> Value.t) * code list
  | C_binop of binop * code * code
  | C_not of code
  | C_neg of code

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let rec compile ~slot = function
  | Const v -> C_const v
  | Var x -> (match slot x with Some i -> C_slot i | None -> C_free x)
  | Call (name, args) ->
    C_call (Builtins.resolve name, List.map (compile ~slot) args)
  | Binop (op, a, b) -> C_binop (op, compile ~slot a, compile ~slot b)
  | Not e -> C_not (compile ~slot e)
  | Neg e -> C_neg (compile ~slot e)

let arith op_name int_op float_op a b =
  match (a : Value.t), (b : Value.t) with
  | Int x, Int y -> Value.Int (int_op x y)
  | _ ->
    (match Value.as_float a, Value.as_float b with
    | Some x, Some y -> Value.Float (float_op x y)
    | _ ->
      err "%s: non-numeric operands %s, %s" op_name (Value.to_string a)
        (Value.to_string b))

let rec run regs code =
  match code with
  | C_const v -> v
  | C_slot i -> regs.(i)
  | C_free x -> err "unbound variable %s" x
  | C_call (f, args) ->
    let vals = List.map (run regs) args in
    (try f vals with Builtins.Error m -> raise (Eval_error m))
  | C_not e ->
    (match run regs e with
    | Bool b -> Value.Bool (not b)
    | v -> err "not: expected boolean, got %s" (Value.to_string v))
  | C_neg e ->
    (match run regs e with
    | Int x -> Value.Int (-x)
    | Float x -> Value.Float (-.x)
    | v -> err "unary minus: non-numeric %s" (Value.to_string v))
  | C_binop (op, a, b) ->
    (match op with
    | And ->
      (match run regs a with
      | Bool false -> Value.Bool false
      | Bool true ->
        (match run regs b with
        | Bool r -> Value.Bool r
        | v -> err "and: expected boolean, got %s" (Value.to_string v))
      | v -> err "and: expected boolean, got %s" (Value.to_string v))
    | Or ->
      (match run regs a with
      | Bool true -> Value.Bool true
      | Bool false ->
        (match run regs b with
        | Bool r -> Value.Bool r
        | v -> err "or: expected boolean, got %s" (Value.to_string v))
      | v -> err "or: expected boolean, got %s" (Value.to_string v))
    | _ ->
      let va = run regs a and vb = run regs b in
      (match op with
      | Add -> arith "+" ( + ) ( +. ) va vb
      | Sub -> arith "-" ( - ) ( -. ) va vb
      | Mul -> arith "*" ( * ) ( *. ) va vb
      | Div ->
        (match Value.as_float va, Value.as_float vb with
        | Some x, Some y ->
          if y = 0.0 then err "division by zero" else Value.Float (x /. y)
        | _ ->
          err "/: non-numeric operands %s, %s" (Value.to_string va)
            (Value.to_string vb))
      | Mod ->
        (match va, vb with
        | Int x, Int y ->
          if y = 0 then err "modulo by zero" else Value.Int (x mod y)
        | _ -> err "%%: integer operands required")
      | Eq -> Value.Bool (numeric_equal va vb)
      | Ne -> Value.Bool (not (numeric_equal va vb))
      | Lt -> Value.Bool (numeric_compare va vb < 0)
      | Le -> Value.Bool (numeric_compare va vb <= 0)
      | Gt -> Value.Bool (numeric_compare va vb > 0)
      | Ge -> Value.Bool (numeric_compare va vb >= 0)
      | And | Or -> assert false))

(* Comparisons identify Int and Float numerically (2 = 2.0), so that rules
   mixing integer thresholds and real risks behave as users expect. *)
and numeric_compare a b =
  match Value.as_float a, Value.as_float b with
  | Some x, Some y -> Float.compare x y
  | _ -> Value.compare a b

and numeric_equal a b = numeric_compare a b = 0

let run_bool regs code =
  match run regs code with
  | Bool b -> b
  | v -> err "guard: expected boolean, got %s" (Value.to_string v)

(* By-name evaluation is [run] over a register file holding the
   environment's bindings of the expression's variables. *)
let eval env e =
  let bound = ref [] and n = ref 0 in
  let slot x =
    match Hashtbl.find_opt env x with
    | Some v ->
      bound := v :: !bound;
      incr n;
      Some (!n - 1)
    | None -> None
  in
  let code = compile ~slot e in
  run (Array.of_list (List.rev !bound)) code

let vars expr =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var x ->
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        acc := x :: !acc
      end
    | Call (_, args) -> List.iter go args
    | Binop (_, a, b) ->
      go a;
      go b
    | Not e | Neg e -> go e
  in
  go expr;
  List.rev !acc

let of_term = function
  | Term.Const v -> Const v
  | Term.Var x -> Var x

let as_term = function
  | Const v -> Some (Term.Const v)
  | Var x -> Some (Term.Var x)
  | Call _ | Binop _ | Not _ | Neg _ -> None

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"

let rec to_string = function
  | Const v -> Value.to_string v
  | Var x -> x
  | Call (name, args) ->
    name ^ "(" ^ String.concat ", " (List.map to_string args) ^ ")"
  | Binop (op, a, b) ->
    "(" ^ to_string a ^ " " ^ binop_to_string op ^ " " ^ to_string b ^ ")"
  | Not e -> "not(" ^ to_string e ^ ")"
  | Neg e -> "-" ^ to_string e

let pp ppf e = Format.pp_print_string ppf (to_string e)
