module Value = Vadasa_base.Value
module Keyed = Vadasa_base.Keyed

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
  facts : Keyed.t;
  mutable prov : provenance array;  (* parallel to [facts]' indexes *)
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
        facts = Keyed.create ();
        prov = [||];
        indexes = Atomic.make Index_map.empty;
      }
    in
    Hashtbl.add t.preds pred r;
    r

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
  let idx = Keyed.length r.facts in
  if Keyed.find_or_add r.facts args < idx then false
  else begin
    r.prov <- Keyed.store r.prov idx prov;
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

let rel_mem r args = Keyed.find r.facts args >= 0

let mem t pred args =
  match Hashtbl.find_opt t.preds pred with
  | None -> false
  | Some r -> rel_mem r args

let rel_size r = Keyed.length r.facts

let rel_nth r i = Keyed.key r.facts i

let pred_size t pred =
  match Hashtbl.find_opt t.preds pred with None -> 0 | Some r -> rel_size r

let nth t pred i =
  match Hashtbl.find_opt t.preds pred with
  | Some r when i >= 0 && i < rel_size r -> rel_nth r i
  | _ -> invalid_arg "Database.nth: out of bounds"

let facts t pred =
  match Hashtbl.find_opt t.preds pred with
  | None -> []
  | Some r -> List.init (rel_size r) (rel_nth r)

let iter_pred t pred f =
  match Hashtbl.find_opt t.preds pred with
  | None -> ()
  | Some r ->
    for i = 0 to rel_size r - 1 do
      f (rel_nth r i)
    done

let build_index r pos =
  let table = Value.Tbl.create (max 16 (rel_size r)) in
  for i = 0 to rel_size r - 1 do
    let args = rel_nth r i in
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
  Hashtbl.fold (fun k r acc -> if rel_size r > 0 then k :: acc else acc) t.preds []
  |> List.sort String.compare

let provenance_of t pred args =
  match Hashtbl.find_opt t.preds pred with
  | None -> None
  | Some r ->
    let idx = Keyed.find r.facts args in
    if idx < 0 then None else Some r.prov.(idx)
