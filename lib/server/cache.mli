(** Mutex-guarded LRU cache shared by the server's worker domains.

    Used for the compiled-program cache (program text → parsed,
    stratified, wardedness-checked program) and the dataset cache
    (content digest → loaded relation). Values are built outside the
    lock; when two domains race to fill the same key, the first insert
    wins and the loser's value is discarded, so all callers observe one
    canonical value per key. *)

type ('k, 'v) t

val create : ?capacity:int -> string -> ('k, 'v) t
(** [create ~capacity name] — [name] labels the cache in [/metrics];
    capacity defaults to 64 entries, least-recently-used eviction. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit or a miss. *)

val find_or_build : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** Cache lookup, building (outside the lock) and inserting on miss. *)

val find_or_build_hit : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v * bool
(** Like {!find_or_build}; the boolean reports whether this caller hit
    the cache (losing a build race still counts as a miss). *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop the entry (no-op when absent). Used to invalidate a cached
    value whose source data changed — a registered dataset that
    absorbed appended rows must not keep serving its pre-append
    microdata. *)

val hits : ('k, 'v) t -> int

val misses : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int

val size : ('k, 'v) t -> int

val name : ('k, 'v) t -> string

val capacity : ('k, 'v) t -> int

val clear : ('k, 'v) t -> unit

val evict_lru : ('k, 'e) Hashtbl.t -> last_used:('e -> int) -> bool
(** Remove the entry with the smallest [last_used] tick (the first in
    [Hashtbl.fold] order on a tie); [false] when the table is empty.
    The one victim-selection rule of every LRU table in the server:
    the caches here and the dataset registry. Not synchronized — the
    caller holds the table's lock. *)

val stats : ('k, 'v) t -> Vadasa_base.Json.t
(** Object with [size], [capacity], [hits], [misses], [evictions]. *)
