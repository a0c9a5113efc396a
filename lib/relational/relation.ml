module Value = Vadasa_base.Value

type t = {
  schema : Schema.t;
  mutable tuples : Tuple.t array;
  mutable size : int;
  mutable version : int;  (* bumped by every [set] and [add] *)
}

let create schema = { schema; tuples = [||]; size = 0; version = 0 }

let schema t = t.schema
let cardinal t = t.size
let version t = t.version

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Relation.get: index out of bounds";
  t.tuples.(i)

let set t i tup =
  if i < 0 || i >= t.size then invalid_arg "Relation.set: index out of bounds";
  t.tuples.(i) <- tup;
  t.version <- t.version + 1

let ensure_capacity t needed =
  let cap = Array.length t.tuples in
  if needed > cap then begin
    let cap' = max needed (max 8 (2 * cap)) in
    let fresh = Array.make cap' [||] in
    Array.blit t.tuples 0 fresh 0 t.size;
    t.tuples <- fresh
  end

let add t tup =
  if Array.length tup <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.add: arity mismatch (%d vs %d) in %s"
         (Array.length tup) (Schema.arity t.schema) (Schema.name t.schema));
  ensure_capacity t (t.size + 1);
  t.tuples.(t.size) <- tup;
  t.size <- t.size + 1;
  t.version <- t.version + 1

let of_tuples schema tuples =
  let t = create schema in
  List.iter (add t) tuples;
  t

let iter f t =
  for i = 0 to t.size - 1 do
    f t.tuples.(i)
  done

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.tuples.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.tuples.(i)
  done;
  !acc

let map f t =
  let t' = create t.schema in
  iter (fun tup -> add t' (f tup)) t;
  t'

let filter pred t =
  let t' = create t.schema in
  iter (fun tup -> if pred tup then add t' tup) t;
  t'

let to_list t = List.rev (fold (fun acc tup -> tup :: acc) [] t)

let copy t = map Array.copy t

let column t attr =
  let i = Schema.index_of t.schema attr in
  Array.init t.size (fun j -> t.tuples.(j).(i))

let count_nulls t =
  fold
    (fun acc tup ->
      Array.fold_left (fun acc v -> if Value.is_null v then acc + 1 else acc) acc tup)
    0 t

let render ?limit ppf t =
  let n = match limit with None -> t.size | Some l -> min l t.size in
  let headers = Array.map (fun a -> a.Schema.attr_name) (Schema.attributes t.schema) in
  let widths = Array.map String.length headers in
  for i = 0 to n - 1 do
    Array.iteri
      (fun j v -> widths.(j) <- max widths.(j) (String.length (Value.to_string v)))
      t.tuples.(i)
  done;
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let row cells =
    Format.fprintf ppf "| %s |@."
      (String.concat " | " (Array.to_list (Array.mapi (fun j c -> pad c widths.(j)) cells)))
  in
  row headers;
  Format.fprintf ppf "|%s|@."
    (String.concat "|" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)));
  for i = 0 to n - 1 do
    row (Array.map Value.to_string t.tuples.(i))
  done;
  if n < t.size then Format.fprintf ppf "... (%d more tuples)@." (t.size - n)

let pp ppf t = render ppf t
let pp_sample ?(limit = 20) ppf t = render ~limit ppf t
