module Relational = Vadasa_relational
module Value = Vadasa_base.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Column_codes = Relational.Column_codes

type category = Identifier | Quasi_identifier | Non_identifying | Weight

let category_to_string = function
  | Identifier -> "identifier"
  | Quasi_identifier -> "quasi-identifier"
  | Non_identifying -> "non-identifying"
  | Weight -> "weight"

let category_of_string = function
  | "identifier" -> Some Identifier
  | "quasi-identifier" | "quasi_identifier" -> Some Quasi_identifier
  | "non-identifying" | "non_identifying" -> Some Non_identifying
  | "weight" -> Some Weight
  | _ -> None

(* The QI columns' encoding and the relation version it is valid at. *)
type kept = {
  encoding : Column_codes.t;
  mutable version : int;
}

type t = {
  relation : Relation.t;
  by_attr : (string, category) Hashtbl.t;
  ordered : (string * category) list;
  qi_positions : int array;
  identifier_positions : int array;
  weight_position : int option;
  codes : kept option Atomic.t;
}

let make relation categories =
  let schema = Relation.schema relation in
  let by_attr = Hashtbl.create 16 in
  List.iter
    (fun (attr, cat) ->
      if not (Schema.mem schema attr) then
        invalid_arg ("Microdata.make: unknown attribute " ^ attr);
      if Hashtbl.mem by_attr attr then
        invalid_arg ("Microdata.make: duplicate category for " ^ attr);
      Hashtbl.add by_attr attr cat)
    categories;
  let ordered =
    List.map
      (fun attr ->
        match Hashtbl.find_opt by_attr attr with
        | Some cat -> (attr, cat)
        | None -> invalid_arg ("Microdata.make: no category for attribute " ^ attr))
      (Schema.attribute_names schema)
  in
  let positions_of cat =
    Array.of_list
      (List.filter_map
         (fun (attr, c) -> if c = cat then Some (Schema.index_of schema attr) else None)
         ordered)
  in
  let weights = positions_of Weight in
  if Array.length weights > 1 then
    invalid_arg "Microdata.make: more than one weight attribute";
  {
    relation;
    by_attr;
    ordered;
    qi_positions = positions_of Quasi_identifier;
    identifier_positions = positions_of Identifier;
    weight_position = (if Array.length weights = 1 then Some weights.(0) else None);
    codes = Atomic.make None;
  }

let relation t = t.relation
let schema t = Relation.schema t.relation
let name t = Schema.name (schema t)
let cardinal t = Relation.cardinal t.relation

let category_of t attr =
  match Hashtbl.find_opt t.by_attr attr with
  | Some cat -> cat
  | None -> invalid_arg ("Microdata.category_of: unknown attribute " ^ attr)

let categories t = t.ordered

let quasi_identifiers t =
  List.filter_map
    (fun (attr, cat) -> if cat = Quasi_identifier then Some attr else None)
    t.ordered

let qi_positions t = t.qi_positions
let identifier_positions t = t.identifier_positions
let weight_position t = t.weight_position

let weight_of t i =
  match t.weight_position with
  | None -> 1.0
  | Some w ->
    (match Value.as_float (Relation.get t.relation i).(w) with
    | Some x -> x
    | None -> 1.0)

(* The kept encoding, when it is valid: the stored option itself, so the
   check allocates nothing. *)
let valid t =
  match Atomic.get t.codes with
  | Some kept as valid when kept.version = Relation.version t.relation -> valid
  | Some _ | None -> None

let qi_codes t =
  match valid t with
  | Some kept -> kept.encoding
  | None ->
    let encoding = Column_codes.encode t.relation t.qi_positions in
    Atomic.set t.codes (Some { encoding; version = Relation.version t.relation });
    encoding

let set_cell t ~tuple ~pos v =
  let valid = valid t in
  Relation.set t.relation tuple
    (Relational.Tuple.set (Relation.get t.relation tuple) pos v);
  match valid with
  | None -> ()
  | Some kept ->
    for j = 0 to Array.length t.qi_positions - 1 do
      if t.qi_positions.(j) = pos then Column_codes.set kept.encoding ~row:tuple j v
    done;
    kept.version <- Relation.version t.relation

let with_relation t relation =
  if not (Schema.equal (Relation.schema relation) (schema t)) then
    invalid_arg "Microdata.with_relation: schema mismatch";
  { t with relation; codes = Atomic.make None }

let copy t =
  let relation = Relation.copy t.relation in
  let codes =
    Option.map
      (fun kept ->
        { encoding = Column_codes.copy kept.encoding; version = Relation.version relation })
      (valid t)
  in
  { t with relation; codes = Atomic.make codes }

let drop_identifiers t =
  let keep =
    List.filter_map
      (fun (attr, cat) -> if cat = Identifier then None else Some attr)
      t.ordered
  in
  Relational.Algebra.project t.relation keep

let qi_projection t i =
  Relational.Tuple.project (Relation.get t.relation i) t.qi_positions

let pp ppf t =
  Format.fprintf ppf "microdata %s (%d tuples)@." (name t) (cardinal t);
  List.iter
    (fun (attr, cat) ->
      Format.fprintf ppf "  %-20s %s@." attr (category_to_string cat))
    t.ordered;
  Relation.pp_sample ~limit:10 ppf t.relation
