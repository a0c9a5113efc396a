module Value = Vadasa_base.Value

type t = Value.t array

let of_list = Array.of_list

let get t i = t.(i)

let set t i v =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let project t positions = Array.map (fun i -> t.(i)) positions

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= Array.length a then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let has_null t = Array.exists Value.is_null t

let null_positions t =
  let acc = ref [] in
  for i = Array.length t - 1 downto 0 do
    if Value.is_null t.(i) then acc := i :: !acc
  done;
  !acc

let null_mask t =
  if Array.length t > 62 then invalid_arg "Tuple.null_mask: tuple too wide";
  let mask = ref 0 in
  Array.iteri (fun i v -> if Value.is_null v then mask := !mask lor (1 lsl i)) t;
  !mask

let pp ppf t =
  Format.fprintf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_string t)))

let to_string t = Format.asprintf "%a" pp t
