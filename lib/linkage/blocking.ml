module Value = Vadasa_base.Value
module Relational = Vadasa_relational
module Relation = Relational.Relation

type t = {
  oracle : Oracle.t;
  width : int;
  full_index : int list Value.Array_tbl.t;
  (* per-attribute value index, for targets with suppressed values *)
  attr_index : int list Value.Tbl.t array;
  total : int;
}

let build oracle =
  let rel = Oracle.relation oracle in
  let n = Relation.cardinal rel in
  let width =
    match n with
    | 0 -> 0
    | _ -> Array.length (Oracle.qi_values oracle 0)
  in
  let full_index = Value.Array_tbl.create (max 16 n) in
  let attr_index = Array.init width (fun _ -> Value.Tbl.create (max 16 n)) in
  for r = n - 1 downto 0 do
    let qi = Oracle.qi_values oracle r in
    let existing = try Value.Array_tbl.find full_index qi with Not_found -> [] in
    Value.Array_tbl.replace full_index qi (r :: existing);
    Array.iteri
      (fun p v ->
        let existing = try Value.Tbl.find attr_index.(p) v with Not_found -> [] in
        Value.Tbl.replace attr_index.(p) v (r :: existing))
      qi
  done;
  { oracle; width; full_index; attr_index; total = n }

let candidates t target =
  if Array.length target <> t.width then
    invalid_arg "Blocking.candidates: arity mismatch";
  let constant_positions =
    List.filter
      (fun p -> not (Value.is_null target.(p)))
      (List.init t.width (fun p -> p))
  in
  match constant_positions with
  | [] -> List.init t.total (fun r -> r)
  | _ when List.length constant_positions = t.width ->
    (try Value.Array_tbl.find t.full_index target with Not_found -> [])
  | p0 :: rest ->
    (* Intersect per-attribute postings, starting from one list and
       filtering against the others via the oracle rows themselves. *)
    let initial =
      try Value.Tbl.find t.attr_index.(p0) target.(p0) with Not_found -> []
    in
    List.filter
      (fun r ->
        let qi = Oracle.qi_values t.oracle r in
        List.for_all (fun p -> Value.equal qi.(p) target.(p)) rest)
      initial

let block_size t target = List.length (candidates t target)
