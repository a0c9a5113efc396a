(* The 64-bit state lives in 8 bytes rather than a mutable [int64]
   field: a field would box a fresh [int64] on every draw, while bytes
   are read and written unboxed. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64's mixer: two xor-shift-multiply rounds, a bijection on 64
   bits (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* SplitMix64 output function: mix the advanced state. *)
let[@inline] next_int64 t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  mix z

(* Each key word is folded in by one SplitMix64 step: xor, advance,
   mix. *)
let keyed ~seed key =
  of_state
    (Array.fold_left
       (fun s k -> mix (Int64.add (Int64.logxor s k) golden_gamma))
       (Int64.of_int seed) key)

let split t = of_state (next_int64 t)

let copy = Bytes.copy

let[@inline] float t =
  (* 53 high-quality bits into the unit interval. *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for
     bound << 2^62, and determinism matters more than perfect uniformity.
     Shift by 2 so the result fits OCaml's 63-bit int as a non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u1 = float t in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  draw ()

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let weighted_index t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: weights must sum to > 0";
  let x = float t *. total in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
