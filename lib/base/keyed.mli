(** An insertion-ordered set of value tuples, each identified by a dense
    index: the first key added is 0, the next 1, and so on. Keys compare
    by {!Value.equal_array}, so [-0.] is [0.] while [Int 1], [Float 1.]
    and [Str "1"] stay three keys.

    The chase keeps its fact store, aggregate groups and Skolem memos in
    it; whatever a caller attaches to a key lives in an array of its own,
    indexed the same way (see {!store}).

    {b Layout.} Open addressing with linear probing at a load of at most
    one half. Each slot is one int: a key's index packed with 32 bits of
    its scrambled {!Value.hash_array}, so a probe compares hashes before
    it touches a key, and growth rehashes from the cached bits without
    re-reading any key. Keys are never removed; a table holds fewer than
    2{^31} of them.

    {b Concurrency.} Writes ({!find_or_add}) need a single writer and no
    concurrent readers. With no writer, any number of domains may read.
    Growth swaps in new arrays and leaves the old ones intact. *)

type t

val create : unit -> t

val length : t -> int
(** Number of keys; the next new key gets this index. *)

val find_or_add : t -> Value.t array -> int
(** The key's index, adding it (as {!length} before the call) when
    absent. The table keeps the array itself, so the caller must not
    mutate it afterwards. *)

val find : t -> Value.t array -> int
(** The key's index, or [-1] when absent. *)

val key : t -> int -> Value.t array
(** [key t i], [0 <= i < length t]: the [i]-th key added. Unchecked
    beyond the backing array's bounds. *)

val store : 'a array -> int -> 'a -> 'a array
(** [store a i x] sets [a.(i) <- x] and returns [a], or, when [i] is
    past its end, a copy grown to at least twice [i] (padded with [x])
    with [x] at [i]. It keeps a payload array parallel to a table's
    indexes; the array passed in is never changed by a growth. *)
