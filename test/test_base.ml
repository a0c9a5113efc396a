(* Tests for the base value model: ordering, maybe-match equality,
   collections, literals, id generation. *)

module Value = Vadasa_base.Value
module Ids = Vadasa_base.Ids

let value = Alcotest.testable Value.pp Value.equal

let test_compare_total_order () =
  let vs =
    [
      Value.Int 1; Value.Float 1.5; Value.Str "a"; Value.Bool true;
      Value.Null 1; Value.pair (Value.Str "k") (Value.Int 1);
      Value.coll [ Value.Int 1 ];
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool) "antisymmetry" true (compare c1 0 = compare 0 c2))
        vs)
    vs

let test_null_standard_equality () =
  Alcotest.(check bool) "same label" true (Value.equal (Value.Null 3) (Value.Null 3));
  Alcotest.(check bool) "different label" false
    (Value.equal (Value.Null 3) (Value.Null 4));
  Alcotest.(check bool) "null vs const" false
    (Value.equal (Value.Null 3) (Value.Str "x"))

let test_maybe_match () =
  Alcotest.(check bool) "null matches const" true
    (Value.equal_maybe (Value.Null 1) (Value.Str "x"));
  Alcotest.(check bool) "null matches other null" true
    (Value.equal_maybe (Value.Null 1) (Value.Null 2));
  Alcotest.(check bool) "consts still strict" false
    (Value.equal_maybe (Value.Str "x") (Value.Str "y"));
  Alcotest.(check bool) "pairs recurse" true
    (Value.equal_maybe
       (Value.pair (Value.Str "a") (Value.Null 1))
       (Value.pair (Value.Str "a") (Value.Int 7)))

let test_coll_canonical () =
  let c1 = Value.coll [ Value.Int 2; Value.Int 1; Value.Int 2 ] in
  let c2 = Value.coll [ Value.Int 1; Value.Int 2 ] in
  Alcotest.check value "sorted, deduped" c2 c1

let test_coll_ops () =
  let c =
    Value.coll
      [
        Value.pair (Value.Str "area") (Value.Str "north");
        Value.pair (Value.Str "sector") (Value.Str "tex");
      ]
  in
  Alcotest.check value "assoc" (Value.Str "north")
    (Option.get (Value.coll_assoc c (Value.Str "area")));
  Alcotest.(check bool) "assoc missing" true
    (Value.coll_assoc c (Value.Str "zzz") = None);
  let filtered = Value.coll_filter_keys c (Value.coll [ Value.Str "area" ]) in
  Alcotest.(check int) "filter" 1 (List.length (Value.coll_elements filtered));
  let removed = Value.coll_remove_key c (Value.Str "area") in
  Alcotest.(check bool) "remove" true
    (Value.coll_assoc removed (Value.Str "area") = None);
  Alcotest.(check bool) "mem" true
    (Value.coll_mem c (Value.pair (Value.Str "area") (Value.Str "north")))

let test_of_literal () =
  Alcotest.check value "int" (Value.Int 42) (Value.of_literal "42");
  Alcotest.check value "float" (Value.Float 1.5) (Value.of_literal "1.5");
  Alcotest.check value "bool" (Value.Bool true) (Value.of_literal "true");
  Alcotest.check value "null" (Value.Null 7) (Value.of_literal "#7");
  Alcotest.check value "string" (Value.Str "North") (Value.of_literal "North");
  Alcotest.check value "hash not null" (Value.Str "#x") (Value.of_literal "#x")

let test_literal_roundtrip () =
  List.iter
    (fun v -> Alcotest.check value "roundtrip" v (Value.of_literal (Value.to_string v)))
    [ Value.Int 3; Value.Float 2.5; Value.Str "hello"; Value.Bool false; Value.Null 9 ]

let test_as_float () =
  Alcotest.(check (option (float 0.0))) "int" (Some 3.0) (Value.as_float (Value.Int 3));
  Alcotest.(check (option (float 0.0))) "str" None (Value.as_float (Value.Str "3"))

let test_ids () =
  let g = Ids.create () in
  let a = Ids.fresh_null g and b = Ids.fresh_null g in
  Alcotest.(check bool) "distinct" false (Value.equal a b);
  Alcotest.(check int) "count" 2 (Ids.count g);
  let s = Ids.fresh_symbol g ~prefix:"z" in
  Alcotest.(check bool) "prefixed" true (String.length s > 1 && s.[0] = 'z')

let prop_coll_union_commutes =
  QCheck2.Test.make ~name:"collection union is commutative and idempotent"
    ~count:100
    QCheck2.Gen.(pair (list (int_bound 20)) (list (int_bound 20)))
    (fun (xs, ys) ->
      let cx = Value.coll (List.map Value.int xs) in
      let cy = Value.coll (List.map Value.int ys) in
      Value.equal (Value.coll_union cx cy) (Value.coll_union cy cx)
      && Value.equal (Value.coll_union cx cx) cx)

let prop_compare_transitive =
  QCheck2.Test.make ~name:"value order is transitive on scalars" ~count:200
    QCheck2.Gen.(
      triple (int_range (-5) 5) (int_range (-5) 5) (int_range (-5) 5))
    (fun (a, b, c) ->
      let v x = if x mod 2 = 0 then Value.Int x else Value.Str (string_of_int x) in
      let a, b, c = (v a, v b, v c) in
      if Value.compare a b <= 0 && Value.compare b c <= 0 then
        Value.compare a c <= 0
      else true)

(* --- string similarity (Algorithm 1's ∼ relation) ------------------------ *)

module Strsim = Vadasa_base.Strsim

let test_normalize () =
  Alcotest.(check string) "separators" "export to de"
    (Strsim.normalize "Export_To-DE");
  Alcotest.(check string) "collapse" "a b" (Strsim.normalize "  a  __  b ")

let test_levenshtein () =
  Alcotest.(check int) "identical" 0 (Strsim.levenshtein "abc" "abc");
  Alcotest.(check int) "kitten/sitting" 3 (Strsim.levenshtein "kitten" "sitting");
  Alcotest.(check int) "empty" 3 (Strsim.levenshtein "" "abc")

let test_similarity_cases () =
  Alcotest.(check (float 1e-9)) "exact after normalize" 1.0
    (Strsim.similarity "Export Revenue" "export_revenue");
  Alcotest.(check bool) "suffix variant scores high" true
    (Strsim.similarity "sector" "sector_code" >= 0.55);
  Alcotest.(check bool) "unrelated scores low" true
    (Strsim.similarity "weight" "area" < 0.4);
  (* Symmetry. *)
  Alcotest.(check (float 1e-9)) "symmetric"
    (Strsim.similarity "zip_code" "postal code")
    (Strsim.similarity "postal code" "zip_code")

let prop_similarity_bounded =
  QCheck2.Test.make ~name:"similarity stays in [0,1] and is reflexive" ~count:100
    QCheck2.Gen.(pair string_printable string_printable)
    (fun (a, b) ->
      let s = Strsim.similarity a b in
      s >= 0.0 && s <= 1.0 && Strsim.similarity a a = 1.0)

(* --- JSON float printing ----------------------------------------------- *)

module Json = Vadasa_base.Json

(* [Json.float_repr] as it was written with [Printf]: the reference the
   direct [caml_format_float] calls and the integer fast path must
   reproduce byte for byte. *)
let printf_float_repr f =
  if Float.is_nan f then "0"
  else if f = Float.infinity then "1e308"
  else if f = Float.neg_infinity then "-1e308"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let float_cases =
  let open QCheck2.Gen in
  let signed g = map2 (fun x neg -> if neg then -.x else x) g bool in
  let near base = map (fun k -> base +. (float_of_int k *. 0.5)) (int_range (-64) 64) in
  frequency
    [
      (4, map Int64.float_of_bits int64);
      ( 2,
        signed
          (map
             (fun m -> Int64.float_of_bits (Int64.logand m 0xF_FFFF_FFFF_FFFFL))
             int64) );
      (1, oneofl [ 0.0; -0.0; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity ]);
      (2, signed (near 1e12));
      (2, signed (near 9007199254740992.0));
      (2, signed (map float_of_int (int_range 1 1_000_000)));
      (2, signed (float_range 0.0 1.0));
    ]

let prop_float_repr_matches_printf =
  QCheck2.Test.make ~name:"float_repr = the Printf rendering" ~count:5000
    ~print:(fun f -> Printf.sprintf "%h" f)
    float_cases
    (fun f ->
      let expected = printf_float_repr f in
      String.equal (Json.float_repr f) expected
      && String.equal (Json.to_string (Json.Float f)) expected)

let () =
  Alcotest.run "base"
    [
      ( "value",
        [
          Alcotest.test_case "total order" `Quick test_compare_total_order;
          Alcotest.test_case "null equality" `Quick test_null_standard_equality;
          Alcotest.test_case "maybe-match" `Quick test_maybe_match;
          Alcotest.test_case "collection canonical form" `Quick test_coll_canonical;
          Alcotest.test_case "collection operations" `Quick test_coll_ops;
          Alcotest.test_case "literal parsing" `Quick test_of_literal;
          Alcotest.test_case "literal roundtrip" `Quick test_literal_roundtrip;
          Alcotest.test_case "numeric view" `Quick test_as_float;
        ] );
      ("ids", [ Alcotest.test_case "fresh nulls" `Quick test_ids ]);
      ( "strsim",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "levenshtein" `Quick test_levenshtein;
          Alcotest.test_case "similarity cases" `Quick test_similarity_cases;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_coll_union_commutes;
            prop_compare_transitive;
            prop_similarity_bounded;
            prop_float_repr_matches_printf;
          ] );
    ]
