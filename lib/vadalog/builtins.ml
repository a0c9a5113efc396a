module Value = Vadasa_base.Value

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let as_float name v =
  match Value.as_float v with
  | Some x -> x
  | None -> err "%s: expected a number, got %s" name (Value.to_string v)

let as_bool name = function
  | Value.Bool b -> b
  | v -> err "%s: expected a boolean, got %s" name (Value.to_string v)

let registry : (string, Value.t list -> Value.t) Hashtbl.t = Hashtbl.create 32

let register name f = Hashtbl.replace registry name f

let arity2 name f = function
  | [ a; b ] -> f a b
  | args -> err "%s: expected 2 arguments, got %d" name (List.length args)

let arity1 name f = function
  | [ a ] -> f a
  | args -> err "%s: expected 1 argument, got %d" name (List.length args)

let () =
  register "pair" (arity2 "pair" Value.pair);
  register "fst"
    (arity1 "fst" (function
      | Value.Pair (a, _) -> a
      | v -> err "fst: not a pair: %s" (Value.to_string v)));
  register "snd"
    (arity1 "snd" (function
      | Value.Pair (_, b) -> b
      | v -> err "snd: not a pair: %s" (Value.to_string v)));
  register "coll" (fun args -> Value.coll args);
  register "get"
    (arity2 "get" (fun c k ->
         match Value.coll_assoc c k with
         | Some v -> v
         | None ->
           err "get: key %s not present in %s" (Value.to_string k)
             (Value.to_string c)));
  register "filter" (arity2 "filter" Value.coll_filter_keys);
  register "remove_key" (arity2 "remove_key" Value.coll_remove_key);
  register "union" (arity2 "union" Value.coll_union);
  register "member" (arity2 "member" (fun c x -> Value.Bool (Value.coll_mem c x)));
  register "size"
    (arity1 "size" (fun c -> Value.Int (List.length (Value.coll_elements c))));
  register "keys"
    (arity1 "keys" (fun c ->
         Value.coll
           (List.filter_map
              (function Value.Pair (k, _) -> Some k | _ -> None)
              (Value.coll_elements c))));
  register "is_null" (arity1 "is_null" (fun x -> Value.Bool (Value.is_null x)));
  register "maybe_eq"
    (arity2 "maybe_eq" (fun a b -> Value.Bool (Value.equal_maybe a b)));
  register "ite" (function
    | [ c; a; b ] -> if as_bool "ite" c then a else b
    | args -> err "ite: expected 3 arguments, got %d" (List.length args));
  register "min" (arity2 "min" (fun a b -> if Value.compare a b <= 0 then a else b));
  register "max" (arity2 "max" (fun a b -> if Value.compare a b >= 0 then a else b));
  register "abs"
    (arity1 "abs" (function
      | Value.Int x -> Value.Int (abs x)
      | v -> Value.Float (Float.abs (as_float "abs" v))));
  register "log" (arity1 "log" (fun v -> Value.Float (log (as_float "log" v))));
  register "exp" (arity1 "exp" (fun v -> Value.Float (exp (as_float "exp" v))));
  register "pow"
    (arity2 "pow" (fun a b ->
         Value.Float (as_float "pow" a ** as_float "pow" b)));
  register "concat"
    (arity2 "concat" (fun a b ->
         Value.Str (Value.to_string a ^ Value.to_string b)));
  register "subset"
    (arity2 "subset" (fun a b ->
         Value.Bool
           (List.for_all
              (fun x -> Value.coll_mem b x)
              (Value.coll_elements a))));
  register "similarity"
    (arity2 "similarity" (fun a b ->
         Value.Float
           (Vadasa_base.Strsim.similarity (Value.to_string a)
              (Value.to_string b))))

let resolve name =
  match Hashtbl.find_opt registry name with
  | Some f ->
    (* Value-level type errors (e.g. taking the size of a non-collection)
       surface uniformly as builtin errors. *)
    fun args ->
      (try f args with Invalid_argument message -> err "%s: %s" name message)
  | None -> fun _ -> err "unknown builtin function: %s" name

let apply name args = resolve name args

let is_builtin name = Hashtbl.mem registry name

let names () = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])
