type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null of int
  | Pair of t * t
  | Coll of t list

let constructor_rank = function
  | Int _ -> 0
  | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3
  | Null _ -> 4
  | Pair _ -> 5
  | Coll _ -> 6

let rec compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Null x, Null y -> Int.compare x y
  | Pair (x1, y1), Pair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | Coll xs, Coll ys -> List.compare compare xs ys
  | _ -> Int.compare (constructor_rank a) (constructor_rank b)

(* Same relation as [compare a b = 0], without building the order:
   [Float.equal] is [Float.compare x y = 0], so [-0.] equals [0.] and
   [nan] equals itself. *)
let rec equal a b =
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Null x, Null y -> Int.equal x y
  | Pair (x1, y1), Pair (x2, y2) -> equal x1 x2 && equal y1 y2
  | Coll xs, Coll ys -> List.equal equal xs ys
  | _ -> false

let rec equal_maybe a b =
  match a, b with
  | Null _, _ | _, Null _ -> true
  | Pair (x1, y1), Pair (x2, y2) -> equal_maybe x1 x2 && equal_maybe y1 y2
  | Coll xs, Coll ys ->
    List.length xs = List.length ys && List.for_all2 equal_maybe xs ys
  | _ -> equal a b

(* Allocation-free: the payload's polymorphic hash (which maps [-0.] and
   [0.], and every [nan], to one value, as [equal] requires) mixed with
   the constructor. Tables built with [Hashtbl.Make] keep the low bits. *)
let mix h x = (h * 31) + x

let rec hash = function
  | Int x -> Hashtbl.hash x
  | Float x -> mix (Hashtbl.hash x) 1
  | Str x -> mix (Hashtbl.hash x) 2
  | Bool x -> mix (Bool.to_int x) 3
  | Null x -> mix (Hashtbl.hash x) 4
  | Pair (x, y) -> mix (mix (hash x) (hash y)) 5
  | Coll xs -> List.fold_left (fun acc v -> mix acc (hash v)) 7 xs

let rec equal_from a b i n = i >= n || (equal a.(i) b.(i) && equal_from a b (i + 1) n)

let equal_array a b =
  let n = Array.length a in
  n = Array.length b && equal_from a b 0 n

let hash_array a =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := mix !h (hash a.(i))
  done;
  !h

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Array_tbl = Hashtbl.Make (struct
  type nonrec t = t array

  let equal = equal_array
  let hash = hash_array
end)

let is_null = function Null _ -> true | _ -> false

let int x = Int x
let float x = Float x
let str x = Str x
let bool x = Bool x
let null x = Null x
let pair a b = Pair (a, b)

let coll xs = Coll (List.sort_uniq compare xs)

let coll_elements = function
  | Coll xs -> xs
  | v ->
    invalid_arg
      ("Value.coll_elements: not a collection: rank "
      ^ string_of_int (constructor_rank v))

let coll_union a b = coll (coll_elements a @ coll_elements b)

let coll_mem c x = List.exists (equal x) (coll_elements c)

let coll_assoc c k =
  let rec go = function
    | [] -> None
    | Pair (k', v) :: _ when equal k k' -> Some v
    | _ :: rest -> go rest
  in
  go (coll_elements c)

let coll_filter_keys c keys =
  let wanted = coll_elements keys in
  let keep = function
    | Pair (k, _) -> List.exists (equal k) wanted
    | _ -> false
  in
  Coll (List.filter keep (coll_elements c))

let coll_remove_key c k =
  let keep = function Pair (k', _) -> not (equal k k') | _ -> true in
  Coll (List.filter keep (coll_elements c))

let rec to_string = function
  | Int x -> string_of_int x
  | Float x -> string_of_float x
  | Str x -> x
  | Bool x -> string_of_bool x
  | Null x -> "#" ^ string_of_int x
  | Pair (a, b) -> "(" ^ to_string a ^ ", " ^ to_string b ^ ")"
  | Coll xs -> "{" ^ String.concat "; " (List.map to_string xs) ^ "}"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_literal s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None ->
    match float_of_string_opt s with
    | Some f -> Float f
    | None ->
      match s with
      | "true" -> Bool true
      | "false" -> Bool false
      | _ ->
        let null_label () =
          if String.length s > 1 && s.[0] = '#'
          then int_of_string_opt (String.sub s 1 (String.length s - 1))
          else None
        in
        (match null_label () with Some n -> Null n | None -> Str s)

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Bool _ -> "bool"
  | Null _ -> "null"
  | Pair _ -> "pair"
  | Coll _ -> "collection"

let as_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Str _ | Bool _ | Null _ | Pair _ | Coll _ -> None
