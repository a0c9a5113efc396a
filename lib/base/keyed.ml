type t = {
  mutable keys : Value.t array array;  (* dense, in insertion order *)
  mutable length : int;
  mutable slots : int array;
      (* one int per slot: 0 when empty, else the key's tag (see [tag])
         with its index + 1 in the low [index_bits] bits *)
  mutable bits : int;  (* log2 of the slot count *)
}

let index_bits = 31

let index_mask = (1 lsl index_bits) - 1

let create () = { keys = [||]; length = 0; slots = Array.make 8 0; bits = 3 }

let length t = t.length

let key t i = t.keys.(i)

(* Fibonacci hashing: h·φ, whose top bits pick the home slot, as in
   [Column_codes.renumber]. A slot caches its top 32 bits, which is
   enough both to filter key comparisons and to find the home slot
   again when the table grows (up to 2^32 slots). *)
let tag h = (h * 0x1E3779B97F4A7C15) land lnot index_mask

(* The home slot of a tag, or of a slot holding it. *)
let home p bits = p lsr (63 - bits)

(* The key's index, or [-1 - s] with [s] the empty slot that ends its
   probe sequence. Top-level rather than a local closure, so a probe
   allocates nothing. *)
let rec probe slots keys mask k tg s =
  let p = slots.(s) in
  if p = 0 then -1 - s
  else
    let i = (p land index_mask) - 1 in
    if p land lnot index_mask = tg && Value.equal_array keys.(i) k then i
    else probe slots keys mask k tg ((s + 1) land mask)

let lookup t k tg = probe t.slots t.keys ((1 lsl t.bits) - 1) k tg (home tg t.bits)

let find t k =
  let r = lookup t k (tag (Value.hash_array k)) in
  if r < 0 then -1 else r

let rec free_slot slots mask s =
  if slots.(s) = 0 then s else free_slot slots mask ((s + 1) land mask)

let grow t =
  let bits = t.bits + 1 in
  let slots = Array.make (1 lsl bits) 0 in
  let mask = (1 lsl bits) - 1 in
  Array.iter
    (fun p -> if p <> 0 then slots.(free_slot slots mask (home p bits)) <- p)
    t.slots;
  t.slots <- slots;
  t.bits <- bits

let store a i x =
  if i < Array.length a then begin
    a.(i) <- x;
    a
  end
  else begin
    let b = Array.make (max 8 (2 * i)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let find_or_add t k =
  let tg = tag (Value.hash_array k) in
  let r = lookup t k tg in
  if r >= 0 then r
  else begin
    let i = t.length in
    (* Keep the load at most one half. *)
    let s =
      if 2 * (i + 1) <= 1 lsl t.bits then -1 - r
      else begin
        grow t;
        free_slot t.slots ((1 lsl t.bits) - 1) (home tg t.bits)
      end
    in
    t.keys <- store t.keys i k;
    t.slots.(s) <- tg lor (i + 1);
    t.length <- i + 1;
    i
  end
