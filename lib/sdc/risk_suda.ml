module Relational = Vadasa_relational
module Relation = Relational.Relation
module Column_codes = Relational.Column_codes

type tuple_msus = {
  msus : int array list;
  min_size : int option;
}

(* All subsets of {0..m-1} of size 1..max_size, ascending by size, each as
   a sorted position array paired with its bitmask. *)
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

let mask_of positions =
  Array.fold_left (fun acc p -> acc lor (1 lsl p)) 0 positions

let find_msus ?(max_size = 3) md =
  let rel = Microdata.relation md in
  let qi = Microdata.qi_positions md in
  let m = Array.length qi in
  let n = Relation.cardinal rel in
  let max_size = min max_size m in
  let codes = Column_codes.encode rel qi in
  let subset_arr = Array.of_list (subsets m max_size) in
  let masks = Array.map mask_of subset_arr in
  (* One frequency table per subset: each tuple's group id, each group's
     size. *)
  let tables =
    Array.map
      (fun positions ->
        let groups = Column_codes.group_ids codes positions in
        (groups.Column_codes.id, Column_codes.group_sizes groups))
      subset_arr
  in
  let subset_of_mask = Hashtbl.create (Array.length masks) in
  Array.iteri (fun s mask -> Hashtbl.replace subset_of_mask mask s) masks;
  let full = (1 lsl m) - 1 in
  let non_null_mask =
    Array.init n (fun i -> full land lnot (Column_codes.null_mask codes i))
  in
  (* Frequency of tuple [i] for subset [s], restricted to the tuple's
     non-null positions (maybe-match handling of suppressed values). *)
  let freq_of i s =
    let effective = masks.(s) land non_null_mask.(i) in
    if effective = 0 then n
    else
      let s = if effective = masks.(s) then s else Hashtbl.find subset_of_mask effective in
      let id, size = tables.(s) in
      size.(id.(i))
  in
  Array.init n (fun i ->
      let found = ref [] in
      let found_masks = ref [] in
      Array.iteri
        (fun s positions ->
          let mask = masks.(s) in
          (* Minimality pruning: a superset of a found MSU is unique but
             not minimal — skip without touching the tables. *)
          let dominated =
            List.exists (fun m' -> m' land mask = m') !found_masks
          in
          if (not dominated) && freq_of i s = 1 then begin
            found := positions :: !found;
            found_masks := mask :: !found_masks
          end)
        subset_arr;
      let msus = List.rev !found in
      let min_size =
        List.fold_left
          (fun acc s ->
            match acc with
            | None -> Some (Array.length s)
            | Some best -> Some (min best (Array.length s)))
          None msus
      in
      { msus; min_size })

let estimate ~max_msu_size ~threshold_size md =
  let per_tuple = find_msus ~max_size:max_msu_size md in
  Array.map
    (fun { min_size; _ } ->
      match min_size with
      | Some s when s < threshold_size -> 1.0
      | Some _ | None -> 0.0)
    per_tuple

let dis_scores ?(max_size = 3) md =
  let m = Array.length (Microdata.qi_positions md) in
  let per_tuple = find_msus ~max_size md in
  let denom = float_of_int (1 lsl (max 1 m - 1)) in
  Array.map
    (fun { msus; _ } ->
      let raw =
        List.fold_left
          (fun acc s -> acc +. float_of_int (1 lsl (m - Array.length s)))
          0.0 msus
      in
      Float.min 1.0 (raw /. denom))
    per_tuple
