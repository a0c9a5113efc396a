(* Canonical rendering of a saturated engine's database, modulo
   labelled-null renaming.

   Two chases that derive the same facts can assign different labels to
   "the same" invented null — an incremental continuation numbers its
   new nulls after the previous run's counter, a from-scratch chase over
   the unioned facts numbers them in its own derivation order — and can
   insert facts in different orders. The canonical form erases both
   differences: every invented null renders as the Skolem term it stands
   for (recursively, since frontier values may be nulls themselves), and
   the fact lines are sorted. Byte-equality of two canonical forms is
   therefore exactly "same fact set modulo null renaming", which is the
   equivalence the incremental evaluator guarantees. *)

module Value = Vadasa_base.Value

let rec render_value buf origin memo (v : Value.t) =
  match v with
  | Value.Null n -> Buffer.add_string buf (null_name origin memo n)
  | Value.Pair (a, b) ->
    Buffer.add_char buf '(';
    render_value buf origin memo a;
    Buffer.add_char buf ',';
    render_value buf origin memo b;
    Buffer.add_char buf ')'
  | Value.Coll elements ->
    (* Collections are kept canonical by [Value.compare], which orders
       nulls by label — a renaming could reorder them. Sorting the
       rendered elements restores a label-independent order. *)
    let rendered =
      List.map
        (fun e ->
          let b = Buffer.create 16 in
          render_value b origin memo e;
          Buffer.contents b)
        elements
      |> List.sort String.compare
    in
    Buffer.add_char buf '{';
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buf ';';
        Buffer.add_string buf s)
      rendered;
    Buffer.add_char buf '}'
  | scalar ->
    (* Type-tagged, so int 1, float 1. and string "1" stay distinct;
       floats print every bit (hexadecimal), so values that agree only
       to [string_of_float]'s 12 digits stay distinct too. *)
    Buffer.add_string buf (Value.type_name scalar);
    Buffer.add_char buf ':';
    (match scalar with
    | Value.Float x -> Printf.bprintf buf "%h" x
    | _ -> Buffer.add_string buf (Value.to_string scalar))

and null_name origin memo n =
  match Hashtbl.find_opt memo n with
  | Some s -> s
  | None ->
    let s =
      match (origin n : Engine.null_origin option) with
      | None ->
        (* A null the chase did not invent arrived in the input; its
           label is data and renders as-is. *)
        "#" ^ string_of_int n
      | Some { Engine.origin_rule; origin_var; origin_frontier } ->
        let buf = Buffer.create 32 in
        Buffer.add_string buf "sk(";
        Buffer.add_string buf (string_of_int origin_rule);
        Buffer.add_char buf ',';
        Buffer.add_string buf origin_var;
        List.iter
          (fun (fv, fval) ->
            Buffer.add_char buf ',';
            Buffer.add_string buf fv;
            Buffer.add_char buf '=';
            render_value buf origin memo fval)
          origin_frontier;
        Buffer.add_char buf ')';
        Buffer.contents buf
    in
    Hashtbl.add memo n s;
    s

let of_engine engine =
  let db = Engine.database engine in
  let origin n = Engine.null_origin engine n in
  let memo = Hashtbl.create 64 in
  let lines = ref [] in
  List.iter
    (fun pred ->
      Database.iter_pred db pred (fun fact ->
          let buf = Buffer.create 64 in
          Buffer.add_string buf pred;
          Buffer.add_char buf '(';
          Array.iteri
            (fun i v ->
              if i > 0 then Buffer.add_char buf ',';
              render_value buf origin memo v)
            fact;
          Buffer.add_char buf ')';
          lines := Buffer.contents buf :: !lines))
    (Database.predicates db);
  let sorted = List.sort String.compare !lines in
  String.concat "\n" sorted ^ "\n"
