(* Tests for the relational substrate: schemas, tuples, relations, algebra,
   null-aware group statistics, CSV. *)

module Value = Vadasa_base.Value
module R = Vadasa_relational

let value = Alcotest.testable Value.pp Value.equal

let mk_rel names rows =
  R.Relation.of_tuples
    (R.Schema.of_names ~name:"t" names)
    (List.map (fun row -> Array.of_list (List.map Value.of_literal row)) rows)

let test_schema_basics () =
  let s = R.Schema.of_names ~name:"m" [ "id"; "area"; "sector" ] in
  Alcotest.(check int) "arity" 3 (R.Schema.arity s);
  Alcotest.(check int) "index" 1 (R.Schema.index_of s "area");
  Alcotest.(check bool) "mem" true (R.Schema.mem s "sector");
  Alcotest.(check bool) "not mem" false (R.Schema.mem s "zzz");
  Alcotest.check_raises "duplicate" (Invalid_argument "Schema.make: duplicate attribute a")
    (fun () -> ignore (R.Schema.of_names ~name:"x" [ "a"; "a" ]))

let test_schema_restrict () =
  let s = R.Schema.of_names ~name:"m" [ "a"; "b"; "c" ] in
  let r = R.Schema.restrict s [ "c"; "a" ] in
  Alcotest.(check (list string)) "order kept" [ "c"; "a" ] (R.Schema.attribute_names r)

let test_tuple_ops () =
  let t = R.Tuple.of_list [ Value.Int 1; Value.Str "x"; Value.Null 2 ] in
  Alcotest.(check bool) "has null" true (R.Tuple.has_null t);
  Alcotest.(check (list int)) "null positions" [ 2 ] (R.Tuple.null_positions t);
  Alcotest.(check int) "mask" 4 (R.Tuple.null_mask t);
  let t2 = R.Tuple.set t 0 (Value.Int 9) in
  Alcotest.check value "functional set" (Value.Int 1) (R.Tuple.get t 0);
  Alcotest.check value "new value" (Value.Int 9) (R.Tuple.get t2 0);
  let p = R.Tuple.project t [| 2; 0 |] in
  Alcotest.check value "projected" (Value.Null 2) (R.Tuple.get p 0)

let test_distinct_tuples_stay_distinct () =
  (* ("ab", "c") and ("a", "bc") concatenate alike; neither duplicate
     elimination nor grouping may merge them. *)
  let rel =
    R.Relation.of_tuples
      (R.Schema.of_names ~name:"t" [ "x"; "y" ])
      [
        [| Value.Str "ab"; Value.Str "c" |];
        [| Value.Str "a"; Value.Str "bc" |];
        [| Value.Str "ab"; Value.Str "c" |];
      ]
  in
  Alcotest.(check int) "distinct keeps both" 2
    (R.Relation.cardinal (R.Algebra.distinct rel));
  Alcotest.(check int) "two groups" 2
    (Value.Array_tbl.length (R.Algebra.group_indices rel ~cols:[| 0; 1 |]));
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Standard ~rel
      ~qi:[| 0; 1 |] ()
  in
  Alcotest.(check (array int)) "group sizes" [| 2; 1; 2 |]
    stats.R.Algebra.Group_stats.freq

(* Values that render alike but differ under [Value.equal] form distinct
   groups: 0.30000000000000004 and 0.3 both print as "0.3", Int 1 and
   Str "1" both as "1". *)
let test_lookalike_values_stay_apart () =
  let rel =
    R.Relation.of_tuples
      (R.Schema.of_names ~name:"t" [ "x"; "y" ])
      [
        [| Value.Float 0.30000000000000004; Value.Int 1 |];
        [| Value.Float 0.3; Value.Str "1" |];
        [| Value.Float 0.3; Value.Int 1 |];
        [| Value.Float 0.3; Value.Int 1 |];
      ]
  in
  Alcotest.(check int) "distinct" 3 (R.Relation.cardinal (R.Algebra.distinct rel));
  List.iter
    (fun semantics ->
      let stats =
        R.Algebra.Group_stats.compute ~semantics ~rel ~qi:[| 0; 1 |] ()
      in
      Alcotest.(check (array int))
        (R.Null_semantics.to_string semantics)
        [| 1; 1; 2; 2 |] stats.R.Algebra.Group_stats.freq;
      let by_x = R.Algebra.Group_stats.compute ~semantics ~rel ~qi:[| 0 |] () in
      Alcotest.(check (array int)) "floats" [| 1; 3; 3; 3 |]
        by_x.R.Algebra.Group_stats.freq;
      let by_y = R.Algebra.Group_stats.compute ~semantics ~rel ~qi:[| 1 |] () in
      Alcotest.(check (array int)) "int vs string" [| 3; 1; 3; 3 |]
        by_y.R.Algebra.Group_stats.freq)
    [ R.Null_semantics.Standard; R.Null_semantics.Maybe_match ]

let test_relation_mutation () =
  let rel = mk_rel [ "a" ] [ [ "1" ]; [ "2" ] ] in
  R.Relation.set rel 0 [| Value.Int 99 |];
  Alcotest.check value "in-place" (Value.Int 99) (R.Relation.get rel 0).(0);
  Alcotest.(check int) "cardinal" 2 (R.Relation.cardinal rel);
  let copy = R.Relation.copy rel in
  R.Relation.set rel 0 [| Value.Int 1 |];
  Alcotest.check value "copy isolated" (Value.Int 99) (R.Relation.get copy 0).(0)

let test_count_nulls () =
  let rel = mk_rel [ "a"; "b" ] [ [ "#1"; "x" ]; [ "#2"; "#3" ] ] in
  Alcotest.(check int) "nulls" 3 (R.Relation.count_nulls rel)

let test_select_project_distinct () =
  let rel = mk_rel [ "a"; "b" ] [ [ "1"; "x" ]; [ "2"; "x" ]; [ "2"; "y" ] ] in
  let sel = R.Algebra.select (fun t -> Value.equal t.(0) (Value.Int 2)) rel in
  Alcotest.(check int) "selected" 2 (R.Relation.cardinal sel);
  let proj = R.Algebra.project rel [ "b" ] in
  Alcotest.(check int) "projected keeps bag" 3 (R.Relation.cardinal proj);
  Alcotest.(check int) "distinct" 2 (R.Relation.cardinal (R.Algebra.distinct proj))

let test_natural_join () =
  let left = mk_rel [ "id"; "area" ] [ [ "1"; "north" ]; [ "2"; "south" ] ] in
  let right =
    R.Relation.of_tuples
      (R.Schema.of_names ~name:"o" [ "area"; "region" ])
      [
        [| Value.Str "north"; Value.Str "it-n" |];
        [| Value.Str "north"; Value.Str "it-n2" |];
      ]
  in
  let j = R.Algebra.natural_join left right in
  Alcotest.(check int) "matches" 2 (R.Relation.cardinal j);
  Alcotest.(check int) "arity" 3 (R.Schema.arity (R.Relation.schema j))

let test_equi_join () =
  let left = mk_rel [ "x" ] [ [ "1" ]; [ "2" ] ] in
  let right = R.Relation.of_tuples (R.Schema.of_names ~name:"r" [ "y" ])
      [ [| Value.Int 2 |]; [| Value.Int 3 |] ] in
  let j = R.Algebra.equi_join ~left ~right ~on:[ ("x", "y") ] in
  Alcotest.(check int) "one match" 1 (R.Relation.cardinal j)

let test_union_sort () =
  let a = mk_rel [ "x" ] [ [ "3" ]; [ "1" ] ] in
  let b = mk_rel [ "x" ] [ [ "2" ] ] in
  let u = R.Algebra.union a b in
  let sorted = R.Algebra.sort_by u R.Tuple.compare in
  Alcotest.check value "sorted first" (Value.Int 1) (R.Relation.get sorted 0).(0)

(* --- group statistics: the paper's Figure 5 worked example -------------- *)

(* Figure 5a: 7 tuples, 4 quasi-identifiers. Frequencies 1,2,2,2,2,1,1. *)
let figure5 () =
  mk_rel
    [ "id"; "area"; "sector"; "employees"; "rev" ]
    [
      [ "1"; "Roma"; "Textiles"; "1000+"; "0-30" ];
      [ "2"; "Roma"; "Commerce"; "1000+"; "0-30" ];
      [ "3"; "Roma"; "Commerce"; "1000+"; "0-30" ];
      [ "4"; "Roma"; "Financial"; "1000+"; "0-30" ];
      [ "5"; "Roma"; "Financial"; "1000+"; "0-30" ];
      [ "6"; "Milano"; "Construction"; "0-200"; "60-90" ];
      [ "7"; "Torino"; "Construction"; "0-200"; "60-90" ];
    ]

let qi = [| 1; 2; 3; 4 |]

let test_group_stats_standard () =
  let rel = figure5 () in
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Standard ~rel ~qi ()
  in
  Alcotest.(check (array int)) "figure 5a frequencies"
    [| 1; 2; 2; 2; 2; 1; 1 |] stats.R.Algebra.Group_stats.freq

let test_group_stats_maybe_match_after_suppression () =
  (* Figure 5b: suppressing tuple 1's Sector with ⊥₁ lifts its frequency to
     5 and tuples 2-5 to 3; tuples 6-7 are untouched. *)
  let rel = figure5 () in
  R.Relation.set rel 0
    [| Value.Int 1; Value.Str "Roma"; Value.Null 1; Value.Str "1000+"; Value.Str "0-30" |];
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel ~qi ()
  in
  Alcotest.(check (array int)) "figure 5b frequencies"
    [| 5; 3; 3; 3; 3; 1; 1 |] stats.R.Algebra.Group_stats.freq

let test_group_stats_standard_semantics_nulls_isolate () =
  (* Under the standard semantics a fresh null leaves the tuple alone in
     its group — suppression cannot help (Figure 7c's red curves). *)
  let rel = figure5 () in
  R.Relation.set rel 0
    [| Value.Int 1; Value.Str "Roma"; Value.Null 1; Value.Str "1000+"; Value.Str "0-30" |];
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Standard ~rel ~qi ()
  in
  Alcotest.(check int) "still unique" 1 stats.R.Algebra.Group_stats.freq.(0)

let test_group_stats_weighted () =
  let rel =
    mk_rel [ "area"; "w" ] [ [ "n"; "10" ]; [ "n"; "20" ]; [ "s"; "5" ] ]
  in
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Standard ~rel
      ~qi:[| 0 |] ~weight:1 ()
  in
  Alcotest.(check (array (float 1e-9))) "weight sums"
    [| 30.0; 30.0; 5.0 |] stats.R.Algebra.Group_stats.weight_sum

let test_group_stats_null_vs_null () =
  let rel =
    mk_rel [ "a"; "b" ]
      [ [ "#1"; "x" ]; [ "#2"; "x" ]; [ "#3"; "y" ]; [ "c"; "x" ] ]
  in
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel
      ~qi:[| 0; 1 |] ()
  in
  (* (⊥,x) matches (⊥,x), (c,x) and itself; (⊥,y) only itself. *)
  Alcotest.(check (array int)) "null-null matching" [| 3; 3; 1; 3 |]
    stats.R.Algebra.Group_stats.freq

let test_null_semantics_tuple_equal () =
  let a = [| Value.Str "x"; Value.Null 1 |] in
  let b = [| Value.Str "x"; Value.Int 3 |] in
  Alcotest.(check bool) "maybe" true
    (R.Null_semantics.equal_tuple R.Null_semantics.Maybe_match a b);
  Alcotest.(check bool) "standard" false
    (R.Null_semantics.equal_tuple R.Null_semantics.Standard a b)

(* --- CSV ----------------------------------------------------------------- *)

let test_csv_roundtrip () =
  let rel =
    mk_rel [ "id"; "name"; "w" ]
      [ [ "1"; "plain"; "1.5" ]; [ "2"; "with, comma"; "2.5" ] ]
  in
  let rel' = R.Csv.read_string ~name:"t" (R.Csv.write_string rel) in
  Alcotest.(check int) "cardinal" 2 (R.Relation.cardinal rel');
  Alcotest.check value "comma survives" (Value.Str "with, comma")
    (R.Relation.get rel' 1).(1);
  Alcotest.check value "float survives" (Value.Float 2.5) (R.Relation.get rel' 1).(2)

let test_csv_quoting () =
  Alcotest.(check (list string)) "quoted field" [ "a"; "b,c"; "d\"e" ]
    (R.Csv.parse_line {|a,"b,c","d""e"|});
  Alcotest.(check string) "render" {|a,"b,c"|} (R.Csv.render_line [ "a"; "b,c" ])

let test_csv_ragged_rejected () =
  match R.Csv.read_string ~name:"t" "a,b\n1\n" with
  | _ -> Alcotest.fail "ragged row must be rejected"
  | exception Vadasa_base.Error.Error e ->
    Alcotest.(check string) "typed code" "csv.ragged_row" e.Vadasa_base.Error.code;
    (* the position of the failure is part of the contract *)
    Alcotest.(check (option string))
      "line" (Some "2")
      (Vadasa_base.Error.context_value e "line")

(* --- properties ---------------------------------------------------------- *)

let gen_small_rel =
  QCheck2.Gen.(
    let cell = map (fun i ->
        if i = 9 then Value.Null 1
        else Value.Str (String.make 1 (Char.chr (97 + (i mod 3))))) (int_bound 9) in
    list_size (int_range 1 30) (pair cell cell))

let prop_maybe_freq_geq_standard =
  QCheck2.Test.make
    ~name:"maybe-match frequencies dominate standard frequencies" ~count:100
    gen_small_rel
    (fun rows ->
      let rel =
        R.Relation.of_tuples
          (R.Schema.of_names ~name:"t" [ "a"; "b" ])
          (List.map (fun (a, b) -> [| a; b |]) rows)
      in
      let qi = [| 0; 1 |] in
      let std =
        R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Standard ~rel ~qi ()
      in
      let mm =
        R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel ~qi ()
      in
      Array.for_all2 (fun m s -> m >= s)
        mm.R.Algebra.Group_stats.freq std.R.Algebra.Group_stats.freq)

let prop_maybe_freq_matches_naive =
  QCheck2.Test.make
    ~name:"maybe-match group stats equal the O(n²) definition" ~count:100
    gen_small_rel
    (fun rows ->
      let tuples = List.map (fun (a, b) -> [| a; b |]) rows in
      let rel =
        R.Relation.of_tuples (R.Schema.of_names ~name:"t" [ "a"; "b" ]) tuples
      in
      let qi = [| 0; 1 |] in
      let stats =
        R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel ~qi ()
      in
      let arr = Array.of_list tuples in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          let expected =
            Array.fold_left
              (fun acc u ->
                if R.Null_semantics.equal_tuple R.Null_semantics.Maybe_match t u
                then acc + 1
                else acc)
              0 arr
          in
          if stats.R.Algebra.Group_stats.freq.(i) <> expected then ok := false)
        arr;
      !ok)

let prop_csv_roundtrip =
  QCheck2.Test.make ~name:"csv round-trips arbitrary string cells" ~count:100
    QCheck2.Gen.(list_size (int_range 1 10) (pair (string_printable) (int_bound 1000)))
    (fun rows ->
      (* Avoid cells that parse as something else after round-trip. *)
      let sanitize s = "s_" ^ String.map (fun c -> if c = '\n' || c = '\r' then '_' else c) s in
      let rel =
        R.Relation.of_tuples
          (R.Schema.of_names ~name:"t" [ "a"; "b" ])
          (List.map (fun (s, i) -> [| Value.Str (sanitize s); Value.Int i |]) rows)
      in
      let rel' = R.Csv.read_string ~name:"t" (R.Csv.write_string rel) in
      R.Relation.cardinal rel = R.Relation.cardinal rel'
      && List.for_all2 R.Tuple.equal (R.Relation.to_list rel) (R.Relation.to_list rel'))

(* The line writer [Csv.write_string] used before rows were rendered
   straight into the buffer: the reference the streaming writer must
   match byte for byte. *)
let reference_render_line fields =
  let render_field s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
    then begin
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf
    end
    else s
  in
  String.concat "," (List.map render_field fields)

let prop_csv_writer_matches_reference =
  let open QCheck2.Gen in
  let text =
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; ','; '"'; '\r'; '\n' ]) (int_bound 6)
  in
  let cell =
    oneof
      [
        map (fun s -> Value.Str s) text;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) float;
        map (fun i -> Value.Null i) small_nat;
      ]
  in
  QCheck2.Test.make
    ~name:"add_rows and write_string equal the per-line reference writer"
    ~count:300
    (int_range 1 4 >>= fun arity ->
     list_size (int_bound 12) (list_repeat arity cell) >|= fun rows ->
     (arity, rows))
    (fun (arity, rows) ->
      let names =
        List.init arity (fun i -> if i = 0 then {|x,"y"|} else "c" ^ string_of_int i)
      in
      let rel =
        R.Relation.of_tuples
          (R.Schema.of_names ~name:"t" names)
          (List.map Array.of_list rows)
      in
      let lines =
        String.concat ""
          (List.map
             (fun row -> reference_render_line (List.map Value.to_string row) ^ "\n")
             rows)
      in
      let buf = Buffer.create 16 in
      R.Csv.add_rows buf rel;
      Buffer.contents buf = lines
      && R.Csv.write_string rel = reference_render_line names ^ "\n" ^ lines
      && R.Csv.render_line names = reference_render_line names)

(* --- additional algebra edge cases -------------------------------------- *)

let test_natural_join_disjoint_is_product () =
  let left = mk_rel [ "a" ] [ [ "1" ]; [ "2" ] ] in
  let right =
    R.Relation.of_tuples (R.Schema.of_names ~name:"r" [ "b" ])
      [ [| Value.Str "x" |]; [| Value.Str "y" |]; [| Value.Str "z" |] ]
  in
  let j = R.Algebra.natural_join left right in
  Alcotest.(check int) "cartesian product" 6 (R.Relation.cardinal j)

let test_union_arity_mismatch () =
  let a = mk_rel [ "x" ] [ [ "1" ] ] in
  let b = mk_rel [ "x"; "y" ] [ [ "1"; "2" ] ] in
  Alcotest.check_raises "arity" (Invalid_argument "Algebra.union: arity mismatch")
    (fun () -> ignore (R.Algebra.union a b))

let test_group_indices () =
  let rel = mk_rel [ "a"; "b" ] [ [ "x"; "1" ]; [ "y"; "2" ]; [ "x"; "3" ] ] in
  let groups = R.Algebra.group_indices rel ~cols:[| 0 |] in
  Alcotest.(check int) "two groups" 2 (Value.Array_tbl.length groups);
  let sizes =
    List.sort compare (Value.Array_tbl.fold (fun _ l acc -> List.length l :: acc) groups [])
  in
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] sizes;
  (* Members are stored ascending. *)
  Value.Array_tbl.iter
    (fun _ members ->
      Alcotest.(check (list int)) "ascending" (List.sort compare members) members)
    groups

let test_group_stats_single_tuple () =
  let rel = mk_rel [ "a" ] [ [ "x" ] ] in
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel
      ~qi:[| 0 |] ()
  in
  Alcotest.(check (array int)) "self only" [| 1 |] stats.R.Algebra.Group_stats.freq

let test_group_stats_all_null_tuple () =
  (* A fully suppressed tuple matches everything. *)
  let rel = mk_rel [ "a"; "b" ] [ [ "#1"; "#2" ]; [ "x"; "y" ]; [ "z"; "w" ] ] in
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel
      ~qi:[| 0; 1 |] ()
  in
  Alcotest.(check int) "wildcard matches all" 3 stats.R.Algebra.Group_stats.freq.(0);
  Alcotest.(check int) "constants gain the wildcard" 2
    stats.R.Algebra.Group_stats.freq.(1)

let test_group_stats_same_pattern_classes () =
  (* Distinct null labels, same pattern: must still match each other. *)
  let rel =
    mk_rel [ "a"; "b" ] [ [ "#1"; "x" ]; [ "#2"; "x" ]; [ "#3"; "x" ] ]
  in
  let stats =
    R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel
      ~qi:[| 0; 1 |] ()
  in
  Alcotest.(check (array int)) "class of three" [| 3; 3; 3 |]
    stats.R.Algebra.Group_stats.freq

let test_csv_no_header () =
  let rel = R.Csv.read_string ~header:false ~name:"t" "1,x\n2,y\n" in
  Alcotest.(check int) "rows" 2 (R.Relation.cardinal rel);
  Alcotest.(check (list string)) "generated names" [ "c0"; "c1" ]
    (R.Schema.attribute_names (R.Relation.schema rel))

let test_csv_null_roundtrip () =
  let rel = mk_rel [ "a" ] [ [ "#7" ] ] in
  let rel' = R.Csv.read_string ~name:"t" (R.Csv.write_string rel) in
  Alcotest.check value "null survives" (Value.Null 7) (R.Relation.get rel' 0).(0)

let () =
  Alcotest.run "relational"
    [
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "restrict" `Quick test_schema_restrict;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "operations" `Quick test_tuple_ops;
          Alcotest.test_case "distinct tuples stay distinct" `Quick
            test_distinct_tuples_stay_distinct;
        ] );
      ( "relation",
        [
          Alcotest.test_case "mutation and copy" `Quick test_relation_mutation;
          Alcotest.test_case "null counting" `Quick test_count_nulls;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "select/project/distinct" `Quick
            test_select_project_distinct;
          Alcotest.test_case "natural join" `Quick test_natural_join;
          Alcotest.test_case "equi join" `Quick test_equi_join;
          Alcotest.test_case "union and sort" `Quick test_union_sort;
        ] );
      ( "group stats",
        [
          Alcotest.test_case "figure 5a standard" `Quick test_group_stats_standard;
          Alcotest.test_case "figure 5b maybe-match" `Quick
            test_group_stats_maybe_match_after_suppression;
          Alcotest.test_case "standard isolates nulls" `Quick
            test_group_stats_standard_semantics_nulls_isolate;
          Alcotest.test_case "weighted" `Quick test_group_stats_weighted;
          Alcotest.test_case "null vs null" `Quick test_group_stats_null_vs_null;
          Alcotest.test_case "tuple equality semantics" `Quick
            test_null_semantics_tuple_equal;
          Alcotest.test_case "look-alike values stay apart" `Quick
            test_lookalike_values_stay_apart;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "ragged rejected" `Quick test_csv_ragged_rejected;
          Alcotest.test_case "headerless" `Quick test_csv_no_header;
          Alcotest.test_case "null roundtrip" `Quick test_csv_null_roundtrip;
        ] );
      ( "algebra edge cases",
        [
          Alcotest.test_case "disjoint natural join" `Quick
            test_natural_join_disjoint_is_product;
          Alcotest.test_case "union arity" `Quick test_union_arity_mismatch;
          Alcotest.test_case "group indices" `Quick test_group_indices;
          Alcotest.test_case "singleton stats" `Quick test_group_stats_single_tuple;
          Alcotest.test_case "all-null wildcard" `Quick test_group_stats_all_null_tuple;
          Alcotest.test_case "null pattern classes" `Quick
            test_group_stats_same_pattern_classes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_maybe_freq_geq_standard;
            prop_maybe_freq_matches_naive;
            prop_csv_roundtrip;
            prop_csv_writer_matches_reference;
          ] );
    ]
