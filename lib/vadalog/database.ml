module Value = Vadasa_base.Value

type provenance =
  | Edb
  | Derived of {
      rule_id : int;
      rule_label : string;
      parents : (string * Value.t array) list;
    }

(* An index bucket: the insertion indexes of the facts sharing one value
   at one position, ascending, in a growable array ([ids] has spare
   capacity past [len]). Only the single writer appends; a reader that
   captured [len] may keep reading [ids] even if the writer later swaps
   in a grown copy, because growth copies the prefix unchanged. *)
type bucket = { mutable ids : int array; mutable len : int }

let empty_bucket = { ids = [||]; len = 0 }

(* Positional indexes are built lazily on the first probe of a
   position. Publication must be safe under concurrent readers (the
   server shares quiescent databases across domains): each index table
   is built fully before it becomes reachable, and the position → table
   map is an immutable value swapped in with a compare-and-set, so a
   reader either sees no index (and builds its own candidate) or a
   complete one — never a half-built table. See the thread-safety
   contract in [database.mli]/[engine.mli]. *)
module Index_map = Map.Make (Int)

type index = bucket Value.Tbl.t

type relation = {
  mutable data : Value.t array array;
  mutable size : int;
  keys : int Value.Array_tbl.t;  (* fact -> insertion index *)
  mutable prov : provenance array;
  indexes : index Index_map.t Atomic.t;
}

type t = { preds : (string, relation) Hashtbl.t; mutable total : int }

let create () = { preds = Hashtbl.create 64; total = 0 }

let relation t pred =
  match Hashtbl.find_opt t.preds pred with
  | Some r -> r
  | None ->
    let r =
      {
        data = [||];
        size = 0;
        keys = Value.Array_tbl.create 256;
        prov = [||];
        indexes = Atomic.make Index_map.empty;
      }
    in
    Hashtbl.add t.preds pred r;
    r

let grow r =
  let cap = Array.length r.data in
  if r.size >= cap then begin
    let cap' = max 16 (2 * cap) in
    let data' = Array.make cap' [||] in
    Array.blit r.data 0 data' 0 r.size;
    r.data <- data';
    let prov' = Array.make cap' Edb in
    Array.blit r.prov 0 prov' 0 r.size;
    r.prov <- prov'
  end

let bucket_push table v idx =
  match Value.Tbl.find_opt table v with
  | None -> Value.Tbl.add table v { ids = [| idx |]; len = 1 }
  | Some b ->
    if b.len = Array.length b.ids then begin
      let ids = Array.make (max 4 (2 * b.len)) 0 in
      Array.blit b.ids 0 ids 0 b.len;
      b.ids <- ids
    end;
    b.ids.(b.len) <- idx;
    b.len <- b.len + 1

(* Maintaining existing indexes on insert is writer-side work: [add] is
   only legal from the single mutating domain (see the contract). *)
let rel_add t r ?(prov = Edb) args =
  if Value.Array_tbl.mem r.keys args then false
  else begin
    grow r;
    let idx = r.size in
    r.data.(idx) <- args;
    r.prov.(idx) <- prov;
    Value.Array_tbl.add r.keys args idx;
    r.size <- idx + 1;
    t.total <- t.total + 1;
    let indexes = Atomic.get r.indexes in
    if not (Index_map.is_empty indexes) then
      Index_map.iter
        (fun pos table ->
          if pos < Array.length args then bucket_push table args.(pos) idx)
        indexes;
    true
  end

let add t ?prov pred args = rel_add t (relation t pred) ?prov args

let rel_mem r args = Value.Array_tbl.mem r.keys args

let mem t pred args =
  match Hashtbl.find_opt t.preds pred with
  | None -> false
  | Some r -> rel_mem r args

let rel_size r = r.size

let rel_nth r i = r.data.(i)

let pred_size t pred =
  match Hashtbl.find_opt t.preds pred with None -> 0 | Some r -> r.size

let nth t pred i =
  match Hashtbl.find_opt t.preds pred with
  | Some r when i >= 0 && i < r.size -> r.data.(i)
  | _ -> invalid_arg "Database.nth: out of bounds"

let facts t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some r -> List.init r.size (fun i -> r.data.(i))

let iter_pred t pred f =
  match Hashtbl.find_opt t.preds pred with
  | None -> ()
  | Some r ->
    for i = 0 to r.size - 1 do
      f r.data.(i)
    done

let build_index r pos =
  let table = Value.Tbl.create (max 16 r.size) in
  for i = 0 to r.size - 1 do
    let args = r.data.(i) in
    if pos < Array.length args then bucket_push table args.(pos) i
  done;
  table

(* Publish a fully-built candidate table. On a CAS race the loser
   re-reads: if another domain published the position first its table
   wins (ours is discarded), keeping exactly one live index per
   position. *)
let rec publish_index r pos table =
  let m = Atomic.get r.indexes in
  match Index_map.find_opt pos m with
  | Some existing -> existing
  | None ->
    if Atomic.compare_and_set r.indexes m (Index_map.add pos table m) then table
    else publish_index r pos table

let probe r ~pos v =
  let table =
    match Index_map.find_opt pos (Atomic.get r.indexes) with
    | Some table -> table
    | None -> publish_index r pos (build_index r pos)
  in
  match Value.Tbl.find_opt table v with Some b -> b | None -> empty_bucket

module Bucket = struct
  type t = bucket

  let length b = b.len
  let get b i = b.ids.(i)
end

let lookup t pred ~pos v =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some r ->
    let b = probe r ~pos v in
    List.init b.len (fun i -> b.ids.(i))

let total t = t.total

let predicates t =
  Hashtbl.fold (fun k r acc -> if r.size > 0 then k :: acc else acc) t.preds []
  |> List.sort String.compare

let provenance_of t pred args =
  match Hashtbl.find_opt t.preds pred with
  | None -> None
  | Some r ->
    (match Value.Array_tbl.find_opt r.keys args with
    | None -> None
    | Some idx -> Some r.prov.(idx))
