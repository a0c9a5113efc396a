module Value = Vadasa_base.Value

type op = Sum | Count | Prod | Min | Max | Union

let op_of_string = function
  | "msum" -> Some Sum
  | "mcount" -> Some Count
  | "mprod" -> Some Prod
  | "mmin" -> Some Min
  | "mmax" -> Some Max
  | "munion" -> Some Union
  | _ -> None

let op_to_string = function
  | Sum -> "msum"
  | Count -> "mcount"
  | Prod -> "mprod"
  | Min -> "mmin"
  | Max -> "mmax"
  | Union -> "munion"

let is_agg_name name = Option.is_some (op_of_string name)

type state = {
  op : op;
  table : Value.t Value.Array_tbl.t;  (* contributor -> contribution *)
  (* Numeric running value for Sum/Count/Prod, recomputed lazily for the
     order-based operators. *)
  mutable running : float;
  mutable dirty : bool;
}

let create op =
  {
    op;
    table = Value.Array_tbl.create 8;
    running = (match op with Prod -> 1.0 | _ -> 0.0);
    dirty = false;
  }

let numeric v =
  match Value.as_float v with
  | Some x -> x
  | None ->
    invalid_arg ("Aggregate: non-numeric contribution " ^ Value.to_string v)

(* Does [v] supersede [old] for this operator's replacement policy? *)
let supersedes op v old =
  match op with
  | Sum | Prod | Max | Union -> Value.compare v old > 0
  | Min -> Value.compare v old < 0
  | Count -> false

let contribute state ~contributor v =
  match Value.Array_tbl.find_opt state.table contributor with
  | None ->
    Value.Array_tbl.add state.table contributor v;
    (match state.op with
    | Sum -> state.running <- state.running +. numeric v
    | Prod -> state.running <- state.running *. numeric v
    | Count -> state.running <- state.running +. 1.0
    | Min | Max | Union -> state.dirty <- true);
    true
  | Some old ->
    if supersedes state.op v old then begin
      Value.Array_tbl.replace state.table contributor v;
      (match state.op with
      | Sum -> state.running <- state.running -. numeric old +. numeric v
      | Prod ->
        (* Rebuild: dividing out is numerically unsafe around zero. *)
        state.running <- Value.Array_tbl.fold (fun _ x acc -> acc *. numeric x) state.table 1.0
      | Count | Min | Max | Union -> state.dirty <- true);
      true
    end
    else false

let current state =
  match state.op with
  | Sum | Prod -> Value.Float state.running
  | Count -> Value.Int (Value.Array_tbl.length state.table)
  | Min ->
    let best = Value.Array_tbl.fold
        (fun _ v acc ->
          match acc with
          | None -> Some v
          | Some b -> if Value.compare v b < 0 then Some v else acc)
        state.table None
    in
    (match best with
    | Some v -> v
    | None -> invalid_arg "Aggregate.current: mmin over empty group")
  | Max ->
    let best = Value.Array_tbl.fold
        (fun _ v acc ->
          match acc with
          | None -> Some v
          | Some b -> if Value.compare v b > 0 then Some v else acc)
        state.table None
    in
    (match best with
    | Some v -> v
    | None -> invalid_arg "Aggregate.current: mmax over empty group")
  | Union ->
    Value.coll
      (Value.Array_tbl.fold
         (fun _ v acc ->
           match v with
           | Value.Coll xs -> xs @ acc
           | x -> x :: acc)
         state.table [])

let contributors state = Value.Array_tbl.length state.table
