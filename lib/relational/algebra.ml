module Value = Vadasa_base.Value
module Telemetry = Vadasa_telemetry.Telemetry

let select pred rel = Relation.filter pred rel

let project rel attrs =
  let positions = Schema.indices_of (Relation.schema rel) attrs in
  let schema' = Schema.restrict (Relation.schema rel) attrs in
  let out = Relation.create schema' in
  Relation.iter (fun t -> Relation.add out (Tuple.project t positions)) rel;
  out

let distinct rel =
  let seen = Value.Array_tbl.create 256 in
  Relation.filter
    (fun t ->
      if Value.Array_tbl.mem seen t then false
      else begin
        Value.Array_tbl.add seen t ();
        true
      end)
    rel

let union a b =
  if Schema.arity (Relation.schema a) <> Schema.arity (Relation.schema b) then
    invalid_arg "Algebra.union: arity mismatch";
  let out = Relation.create (Relation.schema a) in
  Relation.iter (Relation.add out) a;
  Relation.iter (Relation.add out) b;
  out

let sort_by rel cmp =
  let arr = Array.of_list (Relation.to_list rel) in
  Array.sort cmp arr;
  Relation.of_tuples (Relation.schema rel) (Array.to_list arr)

let group_indices rel ~cols =
  let groups = Value.Array_tbl.create 1024 in
  Relation.iteri
    (fun i t ->
      let k = Tuple.project t cols in
      let members = try Value.Array_tbl.find groups k with Not_found -> [] in
      Value.Array_tbl.replace groups k (i :: members))
    rel;
  (* Store members ascending. *)
  Value.Array_tbl.filter_map_inplace (fun _ members -> Some (List.rev members)) groups;
  groups

let joined_schema ~left ~right ~right_only =
  let ls = Relation.schema left and rs = Relation.schema right in
  let left_attrs = Array.to_list (Schema.attributes ls) in
  let right_attrs =
    List.filter_map
      (fun a ->
        if List.mem a.Schema.attr_name right_only then Some a else None)
      (Array.to_list (Schema.attributes rs))
  in
  Schema.make
    ~name:(Schema.name ls ^ "_" ^ Schema.name rs)
    (left_attrs @ right_attrs)

(* Hash [right] on its [r_cols] projection, then add [combine lt rt] to [out]
   for every left tuple (in order) and every right tuple agreeing with it on
   [l_cols] (newest right tuple first). *)
let hash_join ~out ~left ~l_cols ~right ~r_cols combine =
  let index = Value.Array_tbl.create 1024 in
  Relation.iter
    (fun t ->
      let k = Tuple.project t r_cols in
      let existing = try Value.Array_tbl.find index k with Not_found -> [] in
      Value.Array_tbl.replace index k (t :: existing))
    right;
  Relation.iter
    (fun lt ->
      match Value.Array_tbl.find_opt index (Tuple.project lt l_cols) with
      | None -> ()
      | Some matches ->
        List.iter (fun rt -> Relation.add out (combine lt rt)) matches)
    left

let natural_join left right =
  let ls = Relation.schema left and rs = Relation.schema right in
  let shared =
    List.filter (Schema.mem rs) (Schema.attribute_names ls)
  in
  let right_only =
    List.filter (fun a -> not (List.mem a shared)) (Schema.attribute_names rs)
  in
  let schema' = joined_schema ~left ~right ~right_only in
  let out = Relation.create schema' in
  let r_only = Schema.indices_of rs right_only in
  hash_join ~out ~left ~l_cols:(Schema.indices_of ls shared) ~right
    ~r_cols:(Schema.indices_of rs shared) (fun lt rt ->
      Array.append lt (Tuple.project rt r_only));
  out

let equi_join ~left ~right ~on =
  let ls = Relation.schema left and rs = Relation.schema right in
  let l_cols = Schema.indices_of ls (List.map fst on) in
  let r_cols = Schema.indices_of rs (List.map snd on) in
  let rename a =
    if Schema.mem ls a.Schema.attr_name then
      { a with Schema.attr_name = Schema.name rs ^ "." ^ a.Schema.attr_name }
    else a
  in
  let schema' =
    Schema.make
      ~name:(Schema.name ls ^ "_" ^ Schema.name rs)
      (Array.to_list (Schema.attributes ls)
      @ List.map rename (Array.to_list (Schema.attributes rs)))
  in
  let out = Relation.create schema' in
  hash_join ~out ~left ~l_cols ~right ~r_cols Array.append;
  out

module Group_stats = struct
  type t = {
    freq : int array;
    weight_sum : float array;
  }

  let weight_of rel weight i =
    match weight with
    | None -> 1.0
    | Some w ->
      (match Value.as_float (Tuple.get (Relation.get rel i) w) with
      | Some x -> x
      | None -> 1.0)

  (* Per-group size and weight sum over the rows [rows] (ascending, so each
     weight sum accumulates in row order). *)
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

  let all_columns codes = Array.init (Column_codes.width codes) Fun.id

  (* Exact (standard-semantics) grouping: one pass over the group ids. *)
  let compute_standard ~rel ~codes ~weight =
    let n = Relation.cardinal rel in
    let groups = Column_codes.group_ids codes (all_columns codes) in
    let w = Array.init n (weight_of rel weight) in
    let size, ws = tally groups w (List.init n Fun.id) in
    {
      freq = Array.map (fun g -> size.(g)) groups.id;
      weight_sum = Array.map (fun g -> ws.(g)) groups.id;
    }

  (* Maybe-match grouping: constants grouped exactly; null-bearing tuples
     matched against per-mask groupings of the constant cohort and, by
     null-pattern class, against each other. *)
  let compute_maybe ~rel ~codes ~weight =
    let n = Relation.cardinal rel in
    let freq = Array.make n 0 in
    let weight_sum = Array.make n 0.0 in
    let w = Array.init n (weight_of rel weight) in
    let const_idx = ref [] and null_idx = ref [] in
    for i = n - 1 downto 0 do
      if Column_codes.has_null codes i then null_idx := i :: !null_idx
      else const_idx := i :: !const_idx
    done;
    let const_idx = !const_idx and null_idx = !null_idx in
    (* 1. Exact groups among all-constant tuples. *)
    let exact = Column_codes.group_ids codes (all_columns codes) in
    let size, ws = tally exact w const_idx in
    List.iter
      (fun i ->
        let g = exact.id.(i) in
        freq.(i) <- size.(g);
        weight_sum.(i) <- ws.(g))
      const_idx;
    (* Null tuples start by matching themselves. *)
    List.iter
      (fun i ->
        freq.(i) <- 1;
        weight_sum.(i) <- w.(i))
      null_idx;
    (* 2. Null vs constant, one grouping per distinct null mask: tuples
       grouped by their codes at the mask's constant positions. *)
    let masks = Hashtbl.create 8 in
    List.iter
      (fun i ->
        let m = Column_codes.null_mask codes i in
        let members = try Hashtbl.find masks m with Not_found -> [] in
        Hashtbl.replace masks m (i :: members))
      null_idx;
    let width = Column_codes.width codes in
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
    (* 3. Null vs null, by null-pattern class (same null positions, same
       constants; null labels are irrelevant to =⊥). Pattern ids follow
       first appearance, and a class holding a null-bearing tuple holds
       only such tuples, so the classes in ascending id are the classes
       in order of first appearance among those tuples. Each class's key
       is its codes, -1 at its null positions. *)
    let patterns = Column_codes.group_ids ~normalize_nulls:true codes (all_columns codes) in
    let members = Array.make patterns.count [] in
    let ws = Array.make patterns.count 0.0 in
    List.iter
      (fun i ->
        let p = patterns.id.(i) in
        ws.(p) <- (if members.(p) = [] then w.(i) else ws.(p) +. w.(i));
        members.(p) <- i :: members.(p))
      null_idx;
    let classes = ref [] in
    for p = patterns.count - 1 downto 0 do
      if members.(p) <> [] then classes := p :: !classes
    done;
    let classes = Array.of_list !classes in
    let c = Array.length classes in
    let keys = Array.make (c * width) 0 in
    Array.iteri
      (fun a p ->
        let row = List.hd members.(p) in
        for j = 0 to width - 1 do
          keys.((a * width) + j) <- Column_codes.pattern_code codes row j
        done)
      classes;
    (* Two classes match iff they agree wherever both are constant. Only
       pairs that agree on the pivot, the position with the fewest nulls,
       can match: a class is tested against the later classes sharing its
       pivot code and against every class null at the pivot. *)
    let partners = Array.make c [] in
    let tests = ref 0 in
    let rec compatible a b p =
      p >= width
      ||
      let ka = keys.(a + p) and kb = keys.(b + p) in
      (ka < 0 || kb < 0 || ka = kb) && compatible a b (p + 1)
    in
    let test a b =
      incr tests;
      if compatible (a * width) (b * width) 0 then begin
        partners.(a) <- b :: partners.(a);
        partners.(b) <- a :: partners.(b)
      end
    in
    let rec test_pairs = function
      | [] -> ()
      | a :: rest ->
        List.iter (test a) rest;
        test_pairs rest
    in
    if c > 1 then begin
      let nulls_at = Array.make width 0 in
      for a = 0 to c - 1 do
        for p = 0 to width - 1 do
          if keys.((a * width) + p) < 0 then nulls_at.(p) <- nulls_at.(p) + 1
        done
      done;
      let pivot = ref 0 in
      Array.iteri (fun p k -> if k < nulls_at.(!pivot) then pivot := p) nulls_at;
      let pivot = !pivot in
      let buckets = Array.make (Column_codes.cardinality codes pivot) [] in
      let null_bucket = ref [] in
      for a = c - 1 downto 0 do
        let code = keys.((a * width) + pivot) in
        if code < 0 then null_bucket := a :: !null_bucket
        else buckets.(code) <- a :: buckets.(code)
      done;
      let null_bucket = !null_bucket in
      Array.iter
        (fun bucket ->
          test_pairs bucket;
          List.iter (fun a -> List.iter (test a) null_bucket) bucket)
        buckets;
      test_pairs null_bucket
    end;
    if Telemetry.enabled () then Telemetry.count "relational.group_stats.class_tests" !tests;
    (* Each member collects its partners' sizes and weight sums in
       ascending partner order, the within-class credit at its own class's
       index: the float additions run in the order of a pairwise loop over
       the classes in index order, so the sums do not depend on the
       bucketing. *)
    let size = Array.map (fun p -> List.length members.(p)) classes in
    let ws = Array.map (fun p -> ws.(p)) classes in
    for a = 0 to c - 1 do
      let below, above = List.partition (fun b -> b < a) (List.sort Int.compare partners.(a)) in
      let count = List.fold_left (fun acc b -> acc + size.(b)) (size.(a) - 1) partners.(a) in
      List.iter
        (fun i ->
          let acc = List.fold_left (fun acc b -> acc +. ws.(b)) weight_sum.(i) below in
          let acc = if size.(a) > 1 then acc +. ws.(a) -. w.(i) else acc in
          freq.(i) <- freq.(i) + count;
          weight_sum.(i) <- List.fold_left (fun acc b -> acc +. ws.(b)) acc above)
        members.(classes.(a))
    done;
    { freq; weight_sum }

  let compute ~semantics ~rel ~qi ?weight ?codes () =
    let codes =
      match codes with Some codes -> codes | None -> Column_codes.encode rel qi
    in
    match (semantics : Null_semantics.t) with
    | Standard -> compute_standard ~rel ~codes ~weight
    | Maybe_match -> compute_maybe ~rel ~codes ~weight
end
