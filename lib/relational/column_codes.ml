module Value = Vadasa_base.Value

type t = {
  rows : int;
  codes : int array array;  (* codes.(j).(row) *)
  nulls : bool array array;  (* nulls.(j).(code): the code is a labelled null *)
  masks : int array;  (* per-row null mask; [||] when wider than 62 *)
  (* Renumbering scratch, reused across [group_ids] calls; every key slot
     is back to -1 between calls. *)
  mutable table_keys : int array;
  mutable table_ids : int array;
}

let null_code = 0

let encode rel cols =
  let n = Relation.cardinal rel in
  let width = Array.length cols in
  let codes = Array.init width (fun _ -> Array.make n 0) in
  let nulls =
    Array.init width (fun j ->
        let dict = Value.Tbl.create 64 in
        let col = codes.(j) and c = cols.(j) in
        for i = 0 to n - 1 do
          let v = Tuple.get (Relation.get rel i) c in
          match Value.Tbl.find_opt dict v with
          | Some code -> col.(i) <- code
          | None ->
            let code = Value.Tbl.length dict + 1 in
            Value.Tbl.add dict v code;
            col.(i) <- code
        done;
        let is_null = Array.make (Value.Tbl.length dict + 1) false in
        Value.Tbl.iter (fun v code -> if Value.is_null v then is_null.(code) <- true) dict;
        is_null)
  in
  let masks =
    if width > 62 then [||]
    else
      Array.init n (fun i ->
          let mask = ref 0 in
          for j = 0 to width - 1 do
            if nulls.(j).(codes.(j).(i)) then mask := !mask lor (1 lsl j)
          done;
          !mask)
  in
  { rows = n; codes; nulls; masks; table_keys = [||]; table_ids = [||] }

let width t = Array.length t.codes

let cardinality t j = Array.length t.nulls.(j)

let distinct_values t j = cardinality t j - 1

let null_mask t row =
  if width t > 62 then invalid_arg "Column_codes.null_mask: more than 62 columns";
  t.masks.(row)

let has_null t row =
  if width t <= 62 then t.masks.(row) <> 0
  else
    let rec go j = j < width t && (t.nulls.(j).(t.codes.(j).(row)) || go (j + 1)) in
    go 0

let pattern_code t row j =
  let c = t.codes.(j).(row) in
  if t.nulls.(j).(c) then -1 else c

type groups = {
  id : int array;
  count : int;
}

(* Replace every key in [keys] by a dense id in order of first appearance
   (open addressing, linear probing; keys are non-negative, -1 marks a free
   slot); returns the number of ids. *)
let renumber t keys =
  let n = Array.length keys in
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let capacity = 1 lsl !bits in
  if Array.length t.table_keys < capacity then begin
    t.table_keys <- Array.make capacity (-1);
    t.table_ids <- Array.make capacity 0
  end;
  let tk = t.table_keys and tv = t.table_ids in
  let mask = capacity - 1 and shift = 63 - !bits in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let k = keys.(i) in
    (* Fibonacci hashing: the top [bits] bits of k·φ. *)
    let h = ref (((k * 0x1E3779B97F4A7C15) lsr shift) land mask) in
    while tk.(!h) >= 0 && tk.(!h) <> k do
      h := (!h + 1) land mask
    done;
    if tk.(!h) < 0 then begin
      tk.(!h) <- k;
      tv.(!h) <- !count;
      incr count
    end;
    keys.(i) <- tv.(!h)
  done;
  Array.fill tk 0 capacity (-1);
  !count

let group_ids ?(normalize_nulls = false) t cols =
  let n = t.rows in
  let keys = Array.make n 0 in
  let range = ref 1 in
  Array.iter
    (fun j ->
      let card = cardinality t j in
      (* Keep every key below max_int: renumber to dense ids (< n) before
         the product would overflow. *)
      if !range > max_int / card then range := renumber t keys;
      let col = t.codes.(j) in
      if normalize_nulls then begin
        let is_null = t.nulls.(j) in
        for i = 0 to n - 1 do
          let c = col.(i) in
          keys.(i) <- (keys.(i) * card) + if is_null.(c) then null_code else c
        done
      end
      else
        for i = 0 to n - 1 do
          keys.(i) <- (keys.(i) * card) + col.(i)
        done;
      range := !range * card)
    cols;
  let count = renumber t keys in
  { id = keys; count }

let group_sizes groups =
  let size = Array.make groups.count 0 in
  Array.iter (fun g -> size.(g) <- size.(g) + 1) groups.id;
  size
