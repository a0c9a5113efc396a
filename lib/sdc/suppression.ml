module Value = Vadasa_base.Value
module Ids = Vadasa_base.Ids
module Relation = Vadasa_relational.Relation
module Tuple = Vadasa_relational.Tuple
module Schema = Vadasa_relational.Schema

let suppress ids md ~tuple ~attr =
  (match Microdata.category_of md attr with
  | Microdata.Quasi_identifier -> ()
  | _ ->
    invalid_arg
      ("Suppression.suppress: " ^ attr ^ " is not a quasi-identifier"));
  let rel = Microdata.relation md in
  let pos = Schema.index_of (Microdata.schema md) attr in
  let current = Relation.get rel tuple in
  let old_value = Tuple.get current pos in
  if Value.is_null old_value then None
  else begin
    Microdata.set_cell md ~tuple ~pos (Ids.fresh_null ids);
    Vadasa_telemetry.Telemetry.count "sdc.suppression.cells" 1;
    Some old_value
  end

let suppressible md ~tuple =
  let rel = Microdata.relation md in
  let schema = Microdata.schema md in
  let t = Relation.get rel tuple in
  List.filter
    (fun attr -> not (Value.is_null (Tuple.get t (Schema.index_of schema attr))))
    (Microdata.quasi_identifiers md)

let program =
  {|
% Algorithm 7 - local suppression: the existential Z becomes a fresh
% labelled null replacing the suppressed quasi-identifier value.
@label("local_suppression").
tuple_s(I, union(remove_key(VS, A), coll((A, Z)))) :-
  tuple(I, VS), anonymize(I, A), not(is_null(get(VS, A))).
@output("tuple_s").
|}
