module Column_codes = Vadasa_relational.Column_codes

type tuple_order = Less_significant_first | Most_risky_first | In_order

let order_tuples order md ~risk indices =
  match order with
  | In_order -> indices
  | Less_significant_first ->
    List.stable_sort
      (fun a b -> Float.compare (Microdata.weight_of md a) (Microdata.weight_of md b))
      indices
  | Most_risky_first ->
    List.stable_sort (fun a b -> Float.compare risk.(b) risk.(a)) indices

type qi_choice = Most_risky_qi | Most_selective_qi | First_qi

type cache = {
  (* leave_one_out.(j): each tuple's group id over the quasi-identifiers
     minus attribute j; sizes.(j): the size of each of those groups *)
  leave_one_out : int array array;
  sizes : int array array;
  distinct_counts : int array;  (* per quasi-identifier *)
  qi_attrs : string array;
}

let build_cache md =
  let codes =
    Column_codes.encode (Microdata.relation md) (Microdata.qi_positions md)
  in
  let m = Column_codes.width codes in
  let groups =
    Array.init m (fun j ->
        Column_codes.group_ids codes
          (Array.of_list (List.filter (fun p -> p <> j) (List.init m Fun.id))))
  in
  {
    leave_one_out = Array.map (fun g -> g.Column_codes.id) groups;
    sizes = Array.map Column_codes.group_sizes groups;
    distinct_counts = Array.init m (Column_codes.distinct_values codes);
    qi_attrs = Array.of_list (Microdata.quasi_identifiers md);
  }

let qi_index cache attr =
  let rec go j =
    if j >= Array.length cache.qi_attrs then None
    else if String.equal cache.qi_attrs.(j) attr then Some j
    else go (j + 1)
  in
  go 0

let freq_without cache ~tuple j = cache.sizes.(j).(cache.leave_one_out.(j).(tuple))

let choose_qi choice cache md ~tuple ~candidates =
  ignore md;
  match candidates with
  | [] -> None
  | first :: _ ->
    (match choice with
    | First_qi -> Some first
    | Most_selective_qi ->
      let best = ref first and best_score = ref (-1) in
      List.iter
        (fun attr ->
          match qi_index cache attr with
          | Some j when cache.distinct_counts.(j) > !best_score ->
            best := attr;
            best_score := cache.distinct_counts.(j)
          | Some _ | None -> ())
        candidates;
      Some !best
    | Most_risky_qi ->
      (* Maximize the frequency the tuple attains once the attribute is
         ignored: the biggest anonymity gain per suppression. Break ties
         toward the more selective attribute. *)
      let best = ref first and best_freq = ref (-1) and best_distinct = ref (-1) in
      List.iter
        (fun attr ->
          match qi_index cache attr with
          | None -> ()
          | Some j ->
            let f = freq_without cache ~tuple j in
            let d = cache.distinct_counts.(j) in
            if f > !best_freq || (f = !best_freq && d > !best_distinct) then begin
              best := attr;
              best_freq := f;
              best_distinct := d
            end)
        candidates;
      Some !best)

let tuple_order_to_string = function
  | Less_significant_first -> "less-significant-first"
  | Most_risky_first -> "most-risky-first"
  | In_order -> "in-order"

let qi_choice_to_string = function
  | Most_risky_qi -> "most-risky-qi"
  | Most_selective_qi -> "most-selective-qi"
  | First_qi -> "first-qi"
