let is_separator c =
  c = '_' || c = '-' || c = '.' || c = '/' || c = ' ' || c = '\t'

let normalize s =
  let buf = Buffer.create (String.length s) in
  let pending_space = ref false in
  String.iter
    (fun c ->
      if is_separator c then begin
        if Buffer.length buf > 0 then pending_space := true
      end
      else begin
        if !pending_space then begin
          Buffer.add_char buf ' ';
          pending_space := false
        end;
        Buffer.add_char buf (Char.lowercase_ascii c)
      end)
    s;
  Buffer.contents buf

(* Tokens of an already normalized string: it has no leading, trailing
   or repeated spaces, so only the empty string yields an empty token. *)
let tokens_of_normalized n =
  List.filter (fun t -> String.length t > 0) (String.split_on_char ' ' n)

let tokens s = tokens_of_normalized (normalize s)

(* Two rows swapped in turn; [Int.min] keeps the inner loop free of
   polymorphic comparisons. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = ref (Array.init (lb + 1) Fun.id) in
    let curr = ref (Array.make (lb + 1) 0) in
    for i = 1 to la do
      let p = !prev and c = !curr in
      let ai = a.[i - 1] in
      c.(0) <- i;
      for j = 1 to lb do
        let cost = if ai = b.[j - 1] then 0 else 1 in
        c.(j) <- Int.min (Int.min (c.(j - 1) + 1) (p.(j) + 1)) (p.(j - 1) + cost)
      done;
      prev := c;
      curr := p
    done;
    !prev.(lb)
  end

(* The measures below over normalized forms [na], [nb]. *)
let edit_normalized na nb =
  let la = String.length na and lb = String.length nb in
  if la = 0 && lb = 0 then 1.0
  else
    let d = levenshtein na nb in
    1.0 -. (float_of_int d /. float_of_int (max la lb))

(* Distinct tokens of each side and how many they share. *)
let token_sets na nb =
  let ua = List.sort_uniq compare (tokens_of_normalized na) in
  let ub = List.sort_uniq compare (tokens_of_normalized nb) in
  (ua, ub, List.length (List.filter (fun t -> List.mem t ub) ua))

let jaccard_of (ua, ub, inter) =
  if ua = [] && ub = [] then 1.0
  else
    let union = List.length ua + List.length ub - inter in
    if union = 0 then 0.0 else float_of_int inter /. float_of_int union

(* Token-overlap coefficient: |A ∩ B| / min(|A|, |B|) — catches suffixed
   variants such as "sector" vs "sector_code". Scaled by 0.9 so an exact
   name still wins over a mere extension. *)
let overlap_of (ua, ub, inter) =
  if ua = [] || ub = [] then 0.0
  else float_of_int inter /. float_of_int (min (List.length ua) (List.length ub))

let edit_similarity a b = edit_normalized (normalize a) (normalize b)

let jaccard_tokens a b = jaccard_of (token_sets (normalize a) (normalize b))

let similarity a b =
  let na = normalize a and nb = normalize b in
  if String.equal na nb then 1.0
  else
    let sets = token_sets na nb in
    Float.max (edit_normalized na nb)
      (Float.max (jaccard_of sets) (0.9 *. overlap_of sets))
