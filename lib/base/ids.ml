type t = { mutable next : int; mutable used : int }

let create ?(start = 1) () = { next = start; used = 0 }

let fresh_label g =
  let n = g.next in
  g.next <- n + 1;
  g.used <- g.used + 1;
  n

let next_label g = g.next

let fresh_null g = Value.null (fresh_label g)

let fresh_symbol g ~prefix = prefix ^ "_" ^ string_of_int (fresh_label g)

let count g = g.used
