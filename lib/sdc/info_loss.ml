module Value = Vadasa_base.Value
module Relation = Vadasa_relational.Relation
module Tuple = Vadasa_relational.Tuple

let suppression_loss ~nulls_injected ~risky_tuples ~qi_count =
  if risky_tuples <= 0 || qi_count <= 0 then 0.0
  else float_of_int nulls_injected /. float_of_int (risky_tuples * qi_count)

let cell_suppression_rate md =
  let rel = Microdata.relation md in
  let qi = Microdata.qi_positions md in
  let n = Relation.cardinal rel in
  if n = 0 || Array.length qi = 0 then 0.0
  else begin
    let nulls = ref 0 in
    Relation.iter
      (fun t ->
        Array.iter (fun p -> if Value.is_null t.(p) then incr nulls) qi)
      rel;
    float_of_int !nulls /. float_of_int (n * Array.length qi)
  end

let generalization_loss hierarchy md =
  let rel = Microdata.relation md in
  let schema = Microdata.schema md in
  let n = Relation.cardinal rel in
  if n = 0 then 0.0
  else begin
    let total = ref 0.0 in
    let cells = ref 0 in
    List.iter
      (fun attr ->
        let h = Hierarchy.height hierarchy ~attr in
        let pos = Vadasa_relational.Schema.index_of schema attr in
        Relation.iter
          (fun t ->
            incr cells;
            if h > 0 then begin
              let v = Tuple.get t pos in
              if not (Value.is_null v) then
                total :=
                  !total
                  +. (float_of_int (Hierarchy.level_of_value hierarchy v)
                     /. float_of_int h)
            end)
          rel)
      (Microdata.quasi_identifiers md);
    if !cells = 0 then 0.0 else !total /. float_of_int !cells
  end

let distinct_combinations md =
  let rel = Microdata.relation md in
  let qi = Microdata.qi_positions md in
  let seen = Value.Array_tbl.create 256 in
  Relation.iter (fun t -> Value.Array_tbl.replace seen (Tuple.project t qi) ()) rel;
  Value.Array_tbl.length seen

let distinct_combination_ratio before after =
  let b = distinct_combinations before in
  if b = 0 then 1.0
  else float_of_int (distinct_combinations after) /. float_of_int b
