(* A small mutex-guarded LRU cache shared by all worker domains. Values
   are built OUTSIDE the lock (compilation / dataset loading can take
   milliseconds and must not serialize unrelated requests); a second
   check on insert keeps concurrent builders from double-publishing —
   the loser's value is discarded and the winner's returned, so every
   caller observes one canonical value per key. *)

type ('k, 'v) entry = { value : 'v; mutable last_used : int }

type ('k, 'v) t = {
  name : string;
  capacity : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable tick : int;  (* logical clock for LRU ordering *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 64) name =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    name;
    capacity;
    table = Hashtbl.create 16;
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick

let evict_lru table ~last_used =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when last_used best <= last_used entry -> acc
        | _ -> Some (key, entry))
      table None
  in
  match victim with
  | None -> false
  | Some (key, _) ->
    Hashtbl.remove table key;
    true

let find_opt t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some entry ->
        touch t entry;
        t.hits <- t.hits + 1;
        Some entry.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let insert_locked t key value =
  if
    Hashtbl.length t.table >= t.capacity
    && evict_lru t.table ~last_used:(fun e -> e.last_used)
  then t.evictions <- t.evictions + 1;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table key { value; last_used = t.tick }

let find_or_build_hit t key build =
  match find_opt t key with
  | Some v -> (v, true)
  | None ->
    (* Build outside the lock: compilation may be slow and must not
       block readers of other keys. *)
    let candidate = build key in
    let value =
      with_lock t (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some entry ->
            (* another domain won the race; keep its value *)
            touch t entry;
            entry.value
          | None ->
            insert_locked t key candidate;
            candidate)
    in
    (value, false)

let find_or_build t key build = fst (find_or_build_hit t key build)

(* Invalidation for keys whose underlying data changed (a registry
   dataset that absorbed a delta): the next lookup misses and rebuilds
   from the current data instead of serving the stale value. *)
let remove t key = with_lock t (fun () -> Hashtbl.remove t.table key)

let hits t = with_lock t (fun () -> t.hits)

let misses t = with_lock t (fun () -> t.misses)

let evictions t = with_lock t (fun () -> t.evictions)

let size t = with_lock t (fun () -> Hashtbl.length t.table)

let name t = t.name

let capacity t = t.capacity

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.tick <- 0)

let stats t =
  with_lock t (fun () ->
      Vadasa_base.Json.Obj
        [
          ("size", Vadasa_base.Json.Int (Hashtbl.length t.table));
          ("capacity", Vadasa_base.Json.Int t.capacity);
          ("hits", Vadasa_base.Json.Int t.hits);
          ("misses", Vadasa_base.Json.Int t.misses);
          ("evictions", Vadasa_base.Json.Int t.evictions);
        ])
