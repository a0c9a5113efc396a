(* The string-keyed grouping the compiled path used before its columns were
   dictionary-encoded, kept as a reference: group statistics under both
   null semantics, SUDA's minimal sample uniques and the cycle's
   leave-one-out frequencies, every table keyed by a length-prefixed
   rendering of the projected values. The differential properties in
   test_sdc.ml compare the encoded implementations against it. Values that
   render alike (Int 1 and Str "1") collide here; generators must avoid
   them. *)

module Value = Vadasa_base.Value
module R = Vadasa_relational
module S = Vadasa_sdc
module Tuple = R.Tuple
module Relation = R.Relation

let string_key t =
  let buf = Buffer.create 32 in
  Array.iter
    (fun v ->
      let s = Value.to_string v in
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s;
      Buffer.add_char buf '|')
    t;
  Buffer.contents buf

module Group_stats = struct
  type t = R.Algebra.Group_stats.t = {
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

  (* Exact (standard-semantics) grouping: one hash pass. *)
  let compute_standard ~rel ~qi ~weight =
    let n = Relation.cardinal rel in
    let freq = Array.make n 0 in
    let weight_sum = Array.make n 0.0 in
    let groups = Hashtbl.create (max 16 n) in
    Relation.iteri
      (fun i t ->
        let k = string_key (Tuple.project t qi) in
        let members, ws =
          try Hashtbl.find groups k with Not_found -> ([], 0.0)
        in
        Hashtbl.replace groups k (i :: members, ws +. weight_of rel weight i))
      rel;
    Hashtbl.iter
      (fun _ (members, ws) ->
        let size = List.length members in
        List.iter
          (fun i ->
            freq.(i) <- size;
            weight_sum.(i) <- ws)
          members)
      groups;
    { freq; weight_sum }

  (* Maybe-match grouping: constants grouped exactly; null-bearing tuples
     matched against per-mask indexes of the constant cohort and pairwise
     against each other. *)
  let compute_maybe ~rel ~qi ~weight =
    let n = Relation.cardinal rel in
    let freq = Array.make n 0 in
    let weight_sum = Array.make n 0.0 in
    let proj = Array.init n (fun i -> Tuple.project (Relation.get rel i) qi) in
    let w = Array.init n (fun i -> weight_of rel weight i) in
    let const_idx = ref [] and null_idx = ref [] in
    for i = n - 1 downto 0 do
      if Tuple.has_null proj.(i) then null_idx := i :: !null_idx
      else const_idx := i :: !const_idx
    done;
    let const_idx = !const_idx and null_idx = !null_idx in
    (* 1. Exact groups among all-constant tuples. *)
    let groups = Hashtbl.create (max 16 n) in
    List.iter
      (fun i ->
        let k = string_key proj.(i) in
        let members, ws = try Hashtbl.find groups k with Not_found -> ([], 0.0) in
        Hashtbl.replace groups k (i :: members, ws +. w.(i)))
      const_idx;
    Hashtbl.iter
      (fun _ (members, ws) ->
        let size = List.length members in
        List.iter
          (fun i ->
            freq.(i) <- size;
            weight_sum.(i) <- ws)
          members)
      groups;
    (* Null tuples start by matching themselves. *)
    List.iter
      (fun i ->
        freq.(i) <- 1;
        weight_sum.(i) <- w.(i))
      null_idx;
    (* 2. Null vs constant, via one index per distinct null mask: constant
       tuples keyed by their values at the mask's constant positions. *)
    let masks = Hashtbl.create 8 in
    List.iter
      (fun i ->
        let m = Tuple.null_mask proj.(i) in
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
        let positions = const_positions_of_mask m in
        let index = Hashtbl.create 1024 in
        List.iter
          (fun j ->
            let k = string_key (Tuple.project proj.(j) positions) in
            let cohort, ws = try Hashtbl.find index k with Not_found -> ([], 0.0) in
            Hashtbl.replace index k (j :: cohort, ws +. w.(j)))
          const_idx;
        List.iter
          (fun i ->
            let k = string_key (Tuple.project proj.(i) positions) in
            match Hashtbl.find_opt index k with
            | None -> ()
            | Some (cohort, ws) ->
              freq.(i) <- freq.(i) + List.length cohort;
              weight_sum.(i) <- weight_sum.(i) +. ws;
              List.iter
                (fun j ->
                  freq.(j) <- freq.(j) + 1;
                  weight_sum.(j) <- weight_sum.(j) +. w.(i))
                cohort)
          members)
      masks;
    (* 3. Null vs null. Suppressed tuples cluster into few patterns (same
       null positions, same remaining constants — null labels are
       irrelevant to =⊥), so we compare pattern classes, not tuples:
       O(c²) class tests plus O(m) bookkeeping instead of O(m²). *)
    let class_key p =
      let normalized =
        Array.map (fun v -> if Value.is_null v then Value.Null 0 else v) p
      in
      string_key normalized
    in
    let classes = Hashtbl.create 64 in
    List.iter
      (fun i ->
        let k = class_key proj.(i) in
        match Hashtbl.find_opt classes k with
        | Some (repr, members, ws) ->
          Hashtbl.replace classes k (repr, i :: members, ws +. w.(i))
        | None -> Hashtbl.add classes k (proj.(i), [ i ], w.(i)))
      null_idx;
    let class_list =
      Hashtbl.fold (fun _ cls acc -> cls :: acc) classes []
    in
    let class_arr = Array.of_list class_list in
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
      (* Within a class every member matches every other member. *)
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

  let compute ~semantics ~rel ~qi ?weight () =
    match (semantics : R.Null_semantics.t) with
    | Standard -> compute_standard ~rel ~qi ~weight
    | Maybe_match -> compute_maybe ~rel ~qi ~weight
end

let subsets m max_size =
  let out = ref [] in
  let rec extend subset last size =
    if size > 0 then
      for next = last + 1 to m - 1 do
        let subset' = next :: subset in
        out := List.rev subset' :: !out;
        extend subset' next (size - 1)
      done
  in
  extend [] (-1) max_size;
  let all = List.map Array.of_list !out in
  List.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) all

let mask_of positions = Array.fold_left (fun acc p -> acc lor (1 lsl p)) 0 positions

let freq_table projections positions =
  let table = Hashtbl.create (Array.length projections) in
  Array.iter
    (fun proj ->
      let key = string_key (Tuple.project proj positions) in
      let current = try Hashtbl.find table key with Not_found -> 0 in
      Hashtbl.replace table key (current + 1))
    projections;
  table

(* Per tuple, its MSUs as QI position arrays, smallest first. *)
let find_msus ?(max_size = 3) md =
  let rel = S.Microdata.relation md in
  let qi = S.Microdata.qi_positions md in
  let m = Array.length qi in
  let n = Relation.cardinal rel in
  let max_size = min max_size m in
  let projections = Array.init n (fun i -> Tuple.project (Relation.get rel i) qi) in
  let subset_list = subsets m max_size in
  let tables = Hashtbl.create (List.length subset_list) in
  List.iter
    (fun positions ->
      Hashtbl.replace tables (mask_of positions) (positions, freq_table projections positions))
    subset_list;
  let non_null_mask =
    Array.map
      (fun proj ->
        let mask = ref 0 in
        Array.iteri (fun p v -> if not (Value.is_null v) then mask := !mask lor (1 lsl p)) proj;
        !mask)
      projections
  in
  let freq_of i mask =
    let effective = mask land non_null_mask.(i) in
    if effective = 0 then n
    else
      let positions, table = Hashtbl.find tables effective in
      let key = string_key (Tuple.project projections.(i) positions) in
      try Hashtbl.find table key with Not_found -> 0
  in
  Array.init n (fun i ->
      let found = ref [] and found_masks = ref [] in
      List.iter
        (fun positions ->
          let mask = mask_of positions in
          let dominated = List.exists (fun m' -> m' land mask = m') !found_masks in
          if (not dominated) && freq_of i mask = 1 then begin
            found := positions :: !found;
            found_masks := mask :: !found_masks
          end)
        subset_list;
      List.rev !found)

(* [leave_one_out md].(j).(i): how many tuples agree with tuple [i] on every
   quasi-identifier but the [j]-th. *)
let leave_one_out md =
  let rel = S.Microdata.relation md in
  let qi = S.Microdata.qi_positions md in
  let m = Array.length qi in
  let n = Relation.cardinal rel in
  let projections = Array.init n (fun i -> Tuple.project (Relation.get rel i) qi) in
  Array.init m (fun j ->
      let keep = Array.of_list (List.filter (fun p -> p <> j) (List.init m Fun.id)) in
      let table = freq_table projections keep in
      Array.map (fun proj -> Hashtbl.find table (string_key (Tuple.project proj keep))) projections)
