(* Lossless rendering of chase databases for byte-identity checks:
   type-tagged values, floats in hexadecimal, strings escaped, labelled
   nulls by label — two facts render alike exactly when they are the
   same values. *)

module Value = Vadasa_base.Value
module V = Vadasa_vadalog

let rec value buf (v : Value.t) =
  match v with
  | Int x -> Printf.bprintf buf "i:%d" x
  | Float x -> Printf.bprintf buf "f:%h" x
  | Str x -> Printf.bprintf buf "s:%S" x
  | Bool x -> Printf.bprintf buf "b:%b" x
  | Null n -> Printf.bprintf buf "#%d" n
  | Pair (a, b) ->
    Buffer.add_char buf '(';
    value buf a;
    Buffer.add_char buf ',';
    value buf b;
    Buffer.add_char buf ')'
  | Coll xs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ';';
        value buf x)
      xs;
    Buffer.add_char buf '}'

let add_args buf args =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      value buf v)
    args

let args a =
  let buf = Buffer.create 32 in
  add_args buf a;
  Buffer.contents buf

(* Every predicate's facts, one [pred(args)] line each, predicates
   sorted, facts in insertion order. *)
let database db =
  let buf = Buffer.create 65536 in
  List.iter
    (fun pred ->
      V.Database.iter_pred db pred (fun a ->
          Buffer.add_string buf pred;
          Buffer.add_char buf '(';
          add_args buf a;
          Buffer.add_string buf ")\n"))
    (V.Database.predicates db);
  Buffer.contents buf
