(* Maybe-match group statistics with the null-vs-null step as a plain
   pairwise loop: every pair of null-pattern classes, in order of first
   appearance, compared as projected Value.t tuples. This is the loop
   Algebra.Group_stats ran before it bucketed the classes on their codes,
   kept as the bit-exact oracle for that step: test_sdc.ml asserts that
   both produce the same freq and the same weight_sum bits. *)

module Value = Vadasa_base.Value
module R = Vadasa_relational
module Column_codes = R.Column_codes
module Tuple = R.Tuple
module Relation = R.Relation

let weight_of rel weight i =
  match weight with
  | None -> 1.0
  | Some w ->
    (match Value.as_float (Tuple.get (Relation.get rel i) w) with
    | Some x -> x
    | None -> 1.0)

let tally (groups : Column_codes.groups) w rows =
  let size = Array.make groups.count 0 in
  let ws = Array.make groups.count 0.0 in
  List.iter
    (fun i ->
      let g = groups.id.(i) in
      size.(g) <- size.(g) + 1;
      ws.(g) <- ws.(g) +. w.(i))
    rows;
  (size, ws)

let compute ~rel ~qi ?weight () : R.Algebra.Group_stats.t =
  let n = Relation.cardinal rel in
  let freq = Array.make n 0 in
  let weight_sum = Array.make n 0.0 in
  let codes = Column_codes.encode rel qi in
  let all_columns = Array.init (Column_codes.width codes) Fun.id in
  let w = Array.init n (weight_of rel weight) in
  let const_idx = ref [] and null_idx = ref [] in
  for i = n - 1 downto 0 do
    if Column_codes.has_null codes i then null_idx := i :: !null_idx
    else const_idx := i :: !const_idx
  done;
  let const_idx = !const_idx and null_idx = !null_idx in
  (* 1. Exact groups among all-constant tuples. *)
  let exact = Column_codes.group_ids codes all_columns in
  let size, ws = tally exact w const_idx in
  List.iter
    (fun i ->
      let g = exact.id.(i) in
      freq.(i) <- size.(g);
      weight_sum.(i) <- ws.(g))
    const_idx;
  List.iter
    (fun i ->
      freq.(i) <- 1;
      weight_sum.(i) <- w.(i))
    null_idx;
  (* 2. Null vs constant, one grouping per distinct null mask. *)
  let masks = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let m = Column_codes.null_mask codes i in
      let members = try Hashtbl.find masks m with Not_found -> [] in
      Hashtbl.replace masks m (i :: members))
    null_idx;
  let width = Array.length qi in
  let const_positions_of_mask m =
    let acc = ref [] in
    for p = width - 1 downto 0 do
      if m land (1 lsl p) = 0 then acc := p :: !acc
    done;
    Array.of_list !acc
  in
  Hashtbl.iter
    (fun m members ->
      let groups = Column_codes.group_ids codes (const_positions_of_mask m) in
      let cohort_size, cohort_ws = tally groups w const_idx in
      let cohort = Array.make groups.count [] in
      List.iter (fun j -> cohort.(groups.id.(j)) <- j :: cohort.(groups.id.(j))) const_idx;
      List.iter
        (fun i ->
          let g = groups.id.(i) in
          if cohort_size.(g) > 0 then begin
            freq.(i) <- freq.(i) + cohort_size.(g);
            weight_sum.(i) <- weight_sum.(i) +. cohort_ws.(g);
            List.iter
              (fun j ->
                freq.(j) <- freq.(j) + 1;
                weight_sum.(j) <- weight_sum.(j) +. w.(i))
              cohort.(g)
          end)
        members)
    masks;
  (* 3. Null vs null: every pair of classes, in order of first
     appearance. *)
  let patterns = Column_codes.group_ids ~normalize_nulls:true codes all_columns in
  let members = Array.make patterns.count [] in
  let ws = Array.make patterns.count 0.0 in
  let order = ref [] in
  List.iter
    (fun i ->
      let p = patterns.id.(i) in
      if members.(p) = [] then begin
        order := (p, i) :: !order;
        ws.(p) <- w.(i)
      end
      else ws.(p) <- ws.(p) +. w.(i);
      members.(p) <- i :: members.(p))
    null_idx;
  let class_arr =
    Array.of_list
      (List.rev_map
         (fun (p, first) -> (Tuple.project (Relation.get rel first) qi, members.(p), ws.(p)))
         !order)
  in
  let c = Array.length class_arr in
  let credit members ~count ~weight =
    List.iter
      (fun i ->
        freq.(i) <- freq.(i) + count;
        weight_sum.(i) <- weight_sum.(i) +. weight)
      members
  in
  for a = 0 to c - 1 do
    let repr_a, members_a, ws_a = class_arr.(a) in
    let size_a = List.length members_a in
    if size_a > 1 then
      List.iter
        (fun i ->
          freq.(i) <- freq.(i) + size_a - 1;
          weight_sum.(i) <- weight_sum.(i) +. ws_a -. w.(i))
        members_a;
    for b = a + 1 to c - 1 do
      let repr_b, members_b, ws_b = class_arr.(b) in
      if R.Null_semantics.equal_tuple Maybe_match repr_a repr_b then begin
        credit members_a ~count:(List.length members_b) ~weight:ws_b;
        credit members_b ~count:size_a ~weight:ws_a
      end
    done
  done;
  { freq; weight_sum }
