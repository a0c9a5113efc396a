module Value = Vadasa_base.Value
module Telemetry = Vadasa_telemetry.Telemetry

type column = {
  code : int array;  (* code.(row) *)
  dict : int Value.Tbl.t;  (* value -> code; a code is never reused *)
  mutable is_null : bool array;  (* is_null.(code): the code is a labelled null *)
  mutable rows_of : int array;  (* rows_of.(code): rows holding the code *)
  mutable distinct : int;  (* codes held by at least one row *)
}

type t = {
  rows : int;
  cols : column array;
  masks : int array;  (* per-row null mask; [||] when wider than 62 *)
}

let null_code = 0

(* [a] with room for [len] elements, at least doubled when it grows. *)
let grow a len fill =
  if len <= Array.length a then a
  else begin
    let a' = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let encode_column rel n c =
  let dict = Value.Tbl.create 64 in
  let code = Array.make n 0 in
  let rows_of = ref [| 0 |] in
  for i = 0 to n - 1 do
    let v = Tuple.get (Relation.get rel i) c in
    let k =
      match Value.Tbl.find_opt dict v with
      | Some k -> k
      | None ->
        let k = Value.Tbl.length dict + 1 in
        Value.Tbl.add dict v k;
        rows_of := grow !rows_of (k + 1) 0;
        k
    in
    code.(i) <- k;
    !rows_of.(k) <- !rows_of.(k) + 1
  done;
  let card = Value.Tbl.length dict + 1 in
  let is_null = Array.make card false in
  Value.Tbl.iter (fun v k -> if Value.is_null v then is_null.(k) <- true) dict;
  { code; dict; is_null; rows_of = !rows_of; distinct = card - 1 }

let encode rel cols =
  Telemetry.span "relational.codes.encode" @@ fun () ->
  let n = Relation.cardinal rel in
  let cols = Array.map (encode_column rel n) cols in
  let width = Array.length cols in
  let masks =
    if width > 62 then [||]
    else
      Array.init n (fun i ->
          let mask = ref 0 in
          for j = 0 to width - 1 do
            let col = cols.(j) in
            if col.is_null.(col.code.(i)) then mask := !mask lor (1 lsl j)
          done;
          !mask)
  in
  { rows = n; cols; masks }

let copy t =
  let copy_column col =
    {
      code = Array.copy col.code;
      dict = Value.Tbl.copy col.dict;
      is_null = Array.copy col.is_null;
      rows_of = Array.copy col.rows_of;
      distinct = col.distinct;
    }
  in
  { rows = t.rows; cols = Array.map copy_column t.cols; masks = Array.copy t.masks }

let width t = Array.length t.cols

let cardinality t j = Value.Tbl.length t.cols.(j).dict + 1

let distinct_values t j = t.cols.(j).distinct

let null_mask t row =
  if width t > 62 then invalid_arg "Column_codes.null_mask: more than 62 columns";
  t.masks.(row)

let has_null t row =
  if width t <= 62 then t.masks.(row) <> 0
  else
    let rec go j =
      j < width t && (t.cols.(j).is_null.(t.cols.(j).code.(row)) || go (j + 1))
    in
    go 0

let pattern_code t row j =
  let col = t.cols.(j) in
  let c = col.code.(row) in
  if col.is_null.(c) then -1 else c

let set t ~row j v =
  let col = t.cols.(j) in
  let k =
    match Value.Tbl.find_opt col.dict v with
    | Some k -> k
    | None ->
      let k = Value.Tbl.length col.dict + 1 in
      Value.Tbl.add col.dict v k;
      col.is_null <- grow col.is_null (k + 1) false;
      col.rows_of <- grow col.rows_of (k + 1) 0;
      col.is_null.(k) <- Value.is_null v;
      k
  in
  let old = col.code.(row) in
  if k <> old then begin
    col.code.(row) <- k;
    col.rows_of.(old) <- col.rows_of.(old) - 1;
    if col.rows_of.(old) = 0 then col.distinct <- col.distinct - 1;
    if col.rows_of.(k) = 0 then col.distinct <- col.distinct + 1;
    col.rows_of.(k) <- col.rows_of.(k) + 1;
    if width t <= 62 then begin
      let bit = 1 lsl j in
      t.masks.(row) <-
        (if col.is_null.(k) then t.masks.(row) lor bit else t.masks.(row) land lnot bit)
    end
  end

type groups = {
  id : int array;
  count : int;
}

(* The renumbering table, one per domain: an encoding can be shared (a
   cached microdata read by several server workers), so its groupings may
   run on several domains at once. Every key slot is back to -1 between
   calls. *)
type scratch = {
  mutable table_keys : int array;
  mutable table_ids : int array;
}

let scratch = Domain.DLS.new_key (fun () -> { table_keys = [||]; table_ids = [||] })

(* Replace every key in [keys] by a dense id in order of first appearance
   (open addressing, linear probing; keys are non-negative, -1 marks a free
   slot); returns the number of ids. *)
let renumber keys =
  let s = Domain.DLS.get scratch in
  let n = Array.length keys in
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let capacity = 1 lsl !bits in
  if Array.length s.table_keys < capacity then begin
    s.table_keys <- Array.make capacity (-1);
    s.table_ids <- Array.make capacity 0
  end;
  let tk = s.table_keys and tv = s.table_ids in
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
      if !range > max_int / card then range := renumber keys;
      let { code = col; is_null; _ } = t.cols.(j) in
      if normalize_nulls then
        for i = 0 to n - 1 do
          let c = col.(i) in
          keys.(i) <- (keys.(i) * card) + if is_null.(c) then null_code else c
        done
      else
        for i = 0 to n - 1 do
          keys.(i) <- (keys.(i) * card) + col.(i)
        done;
      range := !range * card)
    cols;
  let count = renumber keys in
  { id = keys; count }

let group_sizes groups =
  let size = Array.make groups.count 0 in
  Array.iter (fun g -> size.(g) <- size.(g) + 1) groups.id;
  size
