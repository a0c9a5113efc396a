(* Tests for the Vada-SA core: microdata model, dictionary, categorization,
   risk measures (anchored to the paper's worked numbers), anonymization,
   the cycle, business knowledge, and native-vs-engine equivalence. *)

module Value = Vadasa_base.Value
module R = Vadasa_relational
module S = Vadasa_sdc
module D = Vadasa_datagen

let value = Alcotest.testable Value.pp Value.equal

let figure1 = D.Ig_survey.figure1
let figure5 = D.Ig_survey.figure5

(* --- microdata model ----------------------------------------------------- *)

let test_microdata_positions () =
  let md = figure1 () in
  Alcotest.(check (list string))
    "quasi-identifiers"
    [ "area"; "sector"; "employees"; "residential_revenue"; "export_revenue" ]
    (S.Microdata.quasi_identifiers md);
  Alcotest.(check int) "weight position" 8
    (Option.get (S.Microdata.weight_position md));
  Alcotest.(check (float 1e-9)) "weight of tuple 0" 230.0
    (S.Microdata.weight_of md 0)

let test_microdata_validation () =
  let rel = R.Relation.create (R.Schema.of_names ~name:"t" [ "a"; "b" ]) in
  Alcotest.(check bool) "missing category rejected" true
    (try
       ignore (S.Microdata.make rel [ ("a", S.Microdata.Identifier) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "double weight rejected" true
    (try
       ignore
         (S.Microdata.make rel
            [ ("a", S.Microdata.Weight); ("b", S.Microdata.Weight) ]);
       false
     with Invalid_argument _ -> true)

let test_drop_identifiers () =
  let md = figure1 () in
  let exported = S.Microdata.drop_identifiers md in
  Alcotest.(check bool) "id gone" false
    (R.Schema.mem (R.Relation.schema exported) "id");
  Alcotest.(check int) "arity" 8 (R.Schema.arity (R.Relation.schema exported))

let test_copy_isolation () =
  let md = figure1 () in
  let copy = S.Microdata.copy md in
  R.Relation.set (S.Microdata.relation copy) 0 [| Value.Int 0; Value.Int 0;
    Value.Int 0; Value.Int 0; Value.Int 0; Value.Int 0; Value.Int 0;
    Value.Int 0; Value.Int 0 |];
  Alcotest.check value "original untouched" (Value.Str "North")
    (R.Relation.get (S.Microdata.relation md) 0).(1)

(* --- dictionary ----------------------------------------------------------- *)

let test_dictionary () =
  let dict = S.Dictionary.create () in
  S.Dictionary.register_microdata dict (figure1 ());
  Alcotest.(check (list string)) "microdbs" [ "ig_survey" ]
    (S.Dictionary.microdbs dict);
  Alcotest.(check int) "entries" 9
    (List.length (S.Dictionary.attributes dict ~microdb:"ig_survey"));
  Alcotest.(check bool) "category recorded" true
    (S.Dictionary.category dict ~microdb:"ig_survey" ~attr:"area"
    = Some S.Microdata.Quasi_identifier);
  Alcotest.(check int) "uncategorized empty" 0
    (List.length (S.Dictionary.uncategorized dict));
  let facts = S.Dictionary.to_facts dict in
  Alcotest.(check bool) "cat facts present" true
    (List.exists (fun (p, _) -> String.equal p "cat") facts)

let test_dictionary_categories_for () =
  let dict = S.Dictionary.create () in
  let md = figure1 () in
  S.Dictionary.register_microdata dict md;
  match S.Dictionary.categories_for dict (S.Microdata.schema md) with
  | Some cats -> Alcotest.(check int) "all categorized" 9 (List.length cats)
  | None -> Alcotest.fail "expected full categorization"

(* --- categorization (Algorithm 1) ----------------------------------------- *)

let test_categorize_ig_schema () =
  let md = figure1 () in
  let result, _ =
    S.Categorize.run ~experience:S.Categorize.builtin_experience
      (S.Microdata.schema md)
  in
  let category attr =
    List.find_map
      (fun a ->
        if String.equal a.S.Categorize.attr attr then Some a.S.Categorize.category
        else None)
      result.S.Categorize.assigned
  in
  Alcotest.(check bool) "id is identifier" true
    (category "id" = Some S.Microdata.Identifier);
  Alcotest.(check bool) "area is quasi-identifier" true
    (category "area" = Some S.Microdata.Quasi_identifier);
  Alcotest.(check bool) "weight is weight" true
    (category "weight" = Some S.Microdata.Weight);
  Alcotest.(check bool) "growth is non-identifying" true
    (category "growth" = Some S.Microdata.Non_identifying)

let test_categorize_feedback_recursion () =
  (* Rule 3: once "sector" is categorized, the similar "sector_code" borrows
     from the feedback entry even though the original base lacks it. *)
  let schema = R.Schema.of_names ~name:"t" [ "sector"; "sector_code" ] in
  let result, base =
    S.Categorize.run
      ~experience:[ ("sector", S.Microdata.Quasi_identifier) ]
      schema
  in
  Alcotest.(check int) "both assigned" 2 (List.length result.S.Categorize.assigned);
  Alcotest.(check bool) "experience grew" true (List.length base > 1)

let test_categorize_unresolved () =
  let schema = R.Schema.of_names ~name:"t" [ "zzzyq" ] in
  let result, _ = S.Categorize.run ~experience:S.Categorize.builtin_experience schema in
  Alcotest.(check (list string)) "unresolved" [ "zzzyq" ] result.S.Categorize.unresolved

let test_categorize_microdata_end_to_end () =
  let rel = S.Microdata.relation (figure1 ()) in
  match S.Categorize.categorize_microdata rel with
  | Ok md ->
    Alcotest.(check bool) "weight found" true
      (S.Microdata.weight_position md <> None)
  | Error e -> Alcotest.fail e

let test_categorize_engine_agrees () =
  let md = figure1 () in
  let schema = S.Microdata.schema md in
  let native, _ =
    S.Categorize.run ~feedback:false
      ~experience:D.Ig_survey.figure4_experience schema
  in
  let reasoned =
    S.Categorize.run_via_engine ~experience:D.Ig_survey.figure4_experience schema
  in
  (* The engine derives every category reachable by Rule 2; the native path
     keeps the best-scoring one. The native choice must be among the
     engine's derivations (extra derivations are exactly the EGD conflicts
     Rule 4 would flag for inspection). *)
  List.iter
    (fun a ->
      let derived =
        List.filter_map
          (fun (attr, cat) ->
            if String.equal attr a.S.Categorize.attr then Some cat else None)
          reasoned
      in
      Alcotest.(check bool)
        ("native category of " ^ a.S.Categorize.attr ^ " derived by engine")
        true
        (List.mem a.S.Categorize.category derived))
    native.S.Categorize.assigned

(* --- risk measures, anchored to the paper's numbers ----------------------- *)

let test_figure1_reidentification_risks () =
  (* Paper, Section 2.2: tuple 15 (0.03), tuple 7 (0.003), tuple 4 (0.016). *)
  let md = figure1 () in
  let report = S.Risk.estimate S.Risk.Re_identification md in
  Alcotest.(check (float 0.002)) "tuple 15" (1.0 /. 30.0) report.S.Risk.risk.(14);
  Alcotest.(check (float 0.0005)) "tuple 7" (1.0 /. 300.0) report.S.Risk.risk.(6);
  Alcotest.(check (float 0.001)) "tuple 4" (1.0 /. 60.0) report.S.Risk.risk.(3)

let test_figure1_k_anonymity () =
  (* With the five quasi-identifiers, every Figure 1 combination is unique:
     all tuples are risky for any k >= 2. *)
  let md = figure1 () in
  let report = S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md in
  Alcotest.(check int) "all risky" 20
    (List.length (S.Risk.risky report ~threshold:0.5))

let test_figure5_k_anonymity () =
  let md = figure5 () in
  let report = S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md in
  Alcotest.(check (list int)) "risky tuples" [ 0; 5; 6 ]
    (S.Risk.risky report ~threshold:0.5);
  Alcotest.(check int) "tuple 2 frequency" 2 report.S.Risk.freq.(1)

let test_individual_risk_ordering () =
  let md = figure1 () in
  let naive = S.Risk.estimate (S.Risk.Individual S.Risk.Naive) md in
  let bf = S.Risk.estimate (S.Risk.Individual S.Risk.Benedetti_franconi) md in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "naive in [0,1]" true (r >= 0.0 && r <= 1.0);
      Alcotest.(check bool) "bf in [0,1]" true
        (bf.S.Risk.risk.(i) >= 0.0 && bf.S.Risk.risk.(i) <= 1.0))
    naive.S.Risk.risk

let test_suda_figure1_tuple20 () =
  (* Paper, Section 4.2: tuple 20 has two MSUs — {Sector=Financial} and
     {Employees=1000+, Residential Rev.=30-60}. *)
  let md = figure1 () in
  let msus = S.Risk_suda.find_msus ~max_size:5 md in
  let t20 = msus.(19) in
  Alcotest.(check (option int)) "min size" (Some 1) t20.S.Risk_suda.min_size;
  (* qi order: area(0), sector(1), employees(2), res_rev(3), exp_rev(4) *)
  Alcotest.(check bool) "sector singleton is an MSU" true
    (List.exists (fun s -> s = [| 1 |]) t20.S.Risk_suda.msus);
  Alcotest.(check bool) "employees+res_rev is an MSU" true
    (List.exists (fun s -> s = [| 2; 3 |]) t20.S.Risk_suda.msus);
  (* The paper counts exactly 2 MSUs for tuple 20 over the four attributes
     of its μ¹ example (Area, Sector, Employees, Residential Rev.). *)
  let md4 =
    S.Microdata.make
      (S.Microdata.relation md)
      (List.map
         (fun (attr, cat) ->
           if String.equal attr "export_revenue" then
             (attr, S.Microdata.Non_identifying)
           else (attr, cat))
         (S.Microdata.categories md))
  in
  let t20' = (S.Risk_suda.find_msus ~max_size:4 md4).(19) in
  Alcotest.(check int) "exactly 2 MSUs over the paper's four attributes" 2
    (List.length t20'.S.Risk_suda.msus)

let test_suda_minimality () =
  let md = figure1 () in
  let msus = S.Risk_suda.find_msus ~max_size:5 md in
  (* No MSU of a tuple may be a subset of another MSU of the same tuple. *)
  Array.iter
    (fun t ->
      let masks =
        List.map
          (fun s -> Array.fold_left (fun acc p -> acc lor (1 lsl p)) 0 s)
          t.S.Risk_suda.msus
      in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i <> j then
                Alcotest.(check bool) "minimal" false (a land b = a))
            masks)
        masks)
    msus

let test_suda_risk_thresholds () =
  let md = figure1 () in
  let risk1 = S.Risk_suda.estimate ~max_msu_size:3 ~threshold_size:1 md in
  (* threshold 1 means an MSU of size < 1 — impossible, nothing risky. *)
  Array.iter (fun r -> Alcotest.(check (float 0.0)) "none" 0.0 r) risk1;
  let risk_big = S.Risk_suda.estimate ~max_msu_size:3 ~threshold_size:4 md in
  Alcotest.(check bool) "some risky at threshold 4" true
    (Array.exists (fun r -> r = 1.0) risk_big)

let test_suda_dis_scores () =
  let md = figure1 () in
  let scores = S.Risk_suda.dis_scores md in
  Array.iter
    (fun s -> Alcotest.(check bool) "in [0,1]" true (s >= 0.0 && s <= 1.0))
    scores;
  (* Tuple 20 (a special unique on a single attribute) must outscore a tuple
     with no small MSU. *)
  Alcotest.(check bool) "tuple 20 scored" true (scores.(19) > 0.0)

let test_risk_report_rendering () =
  let md = figure1 () in
  let report = S.Risk.estimate S.Risk.Re_identification md in
  let text = Format.asprintf "%a" (S.Risk.pp_report ~limit:3) (md, report) in
  Alcotest.(check bool) "mentions global risk" true
    (String.length text > 0
    && Astring_contains.contains text "global risk")

(* --- suppression and the Figure 5 worked example -------------------------- *)

let test_suppress_basics () =
  let md = S.Microdata.copy (figure5 ()) in
  let ids = Vadasa_base.Ids.create () in
  (match S.Suppression.suppress ids md ~tuple:0 ~attr:"sector" with
  | Some old -> Alcotest.check value "old value" (Value.Str "Textiles") old
  | None -> Alcotest.fail "expected suppression");
  Alcotest.(check bool) "now null" true
    (Value.is_null (R.Relation.get (S.Microdata.relation md) 0).(2));
  (* Second suppression of the same cell is a no-op (Algorithm 7's guard). *)
  Alcotest.(check bool) "idempotent" true
    (S.Suppression.suppress ids md ~tuple:0 ~attr:"sector" = None);
  Alcotest.(check bool) "identifier rejected" true
    (try
       ignore (S.Suppression.suppress ids md ~tuple:0 ~attr:"id");
       false
     with Invalid_argument _ -> true)

let test_figure5_suppression_effect () =
  (* Suppressing tuple 1's Sector lifts its frequency from 1 to 5 and
     tuples 2-5 from 2 to 3 (Figure 5b). *)
  let md = S.Microdata.copy (figure5 ()) in
  let ids = Vadasa_base.Ids.create () in
  ignore (S.Suppression.suppress ids md ~tuple:0 ~attr:"sector");
  let stats = S.Risk.group_stats md in
  Alcotest.(check int) "tuple 1 freq" 5 stats.R.Algebra.Group_stats.freq.(0);
  Alcotest.(check int) "tuple 2 freq" 3 stats.R.Algebra.Group_stats.freq.(1);
  Alcotest.(check int) "tuple 6 freq" 1 stats.R.Algebra.Group_stats.freq.(5)

(* --- hierarchy and recoding ------------------------------------------------ *)

let test_hierarchy_basics () =
  let h = D.Ig_survey.figure5_hierarchy () in
  Alcotest.(check (option string)) "attr type" (Some "city")
    (S.Hierarchy.type_of_attr h "area");
  Alcotest.check value "Milano rolls to North" (Value.Str "North")
    (Option.get (S.Hierarchy.parent h (Value.Str "Milano")));
  Alcotest.(check int) "height of area" 2 (S.Hierarchy.height h ~attr:"area");
  Alcotest.(check (list (module Value))) "chain"
    [ Value.Str "Milano"; Value.Str "North"; Value.Str "Italy" ]
    (S.Hierarchy.generalization_chain h (Value.Str "Milano"));
  Alcotest.(check int) "level of North" 1
    (S.Hierarchy.level_of_value h (Value.Str "North"))

let test_global_recoding_figure5 () =
  (* Recoding Area globally merges Milano and Torino into North, giving
     tuples 6 and 7 frequency 2 (Figure 5b, right-hand effect). *)
  let md = S.Microdata.copy (figure5 ()) in
  let h = D.Ig_survey.figure5_hierarchy () in
  (match S.Recoding.recode_tuple h md ~tuple:5 ~attr:"area" with
  | Some step ->
    Alcotest.check value "to North" (Value.Str "North") step.S.Recoding.to_value;
    Alcotest.(check int) "only Milano changed" 1 step.S.Recoding.cells_changed
  | None -> Alcotest.fail "expected recoding");
  ignore (S.Recoding.recode_tuple h md ~tuple:6 ~attr:"area");
  let stats = S.Risk.group_stats md in
  Alcotest.(check int) "tuple 6 freq" 2 stats.R.Algebra.Group_stats.freq.(5);
  Alcotest.(check int) "tuple 7 freq" 2 stats.R.Algebra.Group_stats.freq.(6)

let test_recode_attr_fully () =
  let md = S.Microdata.copy (figure5 ()) in
  let h = D.Ig_survey.figure5_hierarchy () in
  let steps = S.Recoding.recode_attr_fully h md ~attr:"area" in
  Alcotest.(check int) "three distinct values recoded" 3 (List.length steps);
  let areas = R.Relation.column (S.Microdata.relation md) "area" in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "regional now" true
        (List.mem v [ Value.Str "North"; Value.Str "Center"; Value.Str "South" ]))
    areas

(* --- heuristics ------------------------------------------------------------ *)

let test_most_risky_qi_figure5 () =
  (* Paper, Section 4.4: for tuple 1 of Figure 5a, suppressing Sector
     removes every sample unique (frequency 5), so it must be chosen. *)
  let md = figure5 () in
  let cache = S.Heuristics.build_cache md in
  let chosen =
    S.Heuristics.choose_qi S.Heuristics.Most_risky_qi cache md ~tuple:0
      ~candidates:(S.Suppression.suppressible md ~tuple:0)
  in
  Alcotest.(check (option string)) "sector chosen" (Some "sector") chosen

let test_tuple_order_less_significant () =
  let md = figure1 () in
  let risk = Array.make 20 1.0 in
  let ordered =
    S.Heuristics.order_tuples S.Heuristics.Less_significant_first md ~risk
      [ 0; 14; 6 ]
  in
  (* weights: t0=230, t14=30, t6=300 -> ascending: 14, 0, 6 *)
  Alcotest.(check (list int)) "ascending weight" [ 14; 0; 6 ] ordered

let test_tuple_order_most_risky () =
  let md = figure1 () in
  let risk = Array.init 20 (fun i -> float_of_int i /. 20.0) in
  let ordered =
    S.Heuristics.order_tuples S.Heuristics.Most_risky_first md ~risk [ 3; 9; 1 ]
  in
  Alcotest.(check (list int)) "descending risk" [ 9; 3; 1 ] ordered

(* --- the anonymization cycle ----------------------------------------------- *)

let test_cycle_figure5_converges () =
  let md = figure5 () in
  let outcome = S.Cycle.run md in
  Alcotest.(check bool) "converged" true outcome.S.Cycle.converged;
  Alcotest.(check int) "three risky initially" 3 outcome.S.Cycle.risky_initial;
  Alcotest.(check bool) "few nulls" true (outcome.S.Cycle.nulls_injected <= 3);
  (* Anonymized DB passes 2-anonymity under maybe-match. *)
  let report =
    S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) outcome.S.Cycle.anonymized
  in
  Alcotest.(check int) "no residual risk" 0
    (List.length (S.Risk.risky report ~threshold:0.5));
  (* The input microdata is untouched. *)
  Alcotest.(check int) "input unchanged" 0
    (R.Relation.count_nulls (S.Microdata.relation md))

let test_cycle_first_suppression_is_sector () =
  let md = figure5 () in
  let outcome = S.Cycle.run md in
  match
    List.find_opt (fun a -> a.S.Cycle.tuple = 0) outcome.S.Cycle.trace
  with
  | Some a -> Alcotest.(check string) "sector suppressed" "sector" a.S.Cycle.attr
  | None -> Alcotest.fail "tuple 0 should have been anonymized"

let test_cycle_k_monotone () =
  let md = D.Suite.load ~scale:0.04 "R25A4U" in
  let nulls k =
    let config =
      { S.Cycle.default_config with S.Cycle.measure = S.Risk.K_anonymity { k } }
    in
    (S.Cycle.run ~config md).S.Cycle.nulls_injected
  in
  let n2 = nulls 2 and n5 = nulls 5 in
  Alcotest.(check bool) "k=5 needs at least as many nulls as k=2" true (n5 >= n2);
  Alcotest.(check bool) "some work done" true (n2 > 0)

let test_cycle_standard_semantics_leaves_unresolved () =
  (* Under the standard null semantics, suppression cannot reduce risk:
     the cycle exhausts the tuple's attributes and reports it unresolved
     (the Figure 7c proliferation). *)
  let md = figure5 () in
  let config =
    {
      S.Cycle.default_config with
      S.Cycle.semantics = R.Null_semantics.Standard;
    }
  in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check bool) "did not converge" false outcome.S.Cycle.converged;
  Alcotest.(check bool) "nulls proliferate" true
    (outcome.S.Cycle.nulls_injected > 3);
  Alcotest.(check bool) "unresolved tuples reported" true
    (outcome.S.Cycle.unresolved <> [])

let test_cycle_with_recoding () =
  let md = figure5 () in
  let h = D.Ig_survey.figure5_hierarchy () in
  let config =
    { S.Cycle.default_config with S.Cycle.method_ = S.Cycle.Recode_then_suppress h }
  in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check bool) "converged" true outcome.S.Cycle.converged;
  let report =
    S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) outcome.S.Cycle.anonymized
  in
  Alcotest.(check int) "safe" 0 (List.length (S.Risk.risky report ~threshold:0.5))

let test_cycle_reidentification_measure () =
  let md = figure1 () in
  let config =
    {
      S.Cycle.default_config with
      S.Cycle.measure = S.Risk.Re_identification;
      threshold = 0.02;
    }
  in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check bool) "converged" true outcome.S.Cycle.converged;
  let report =
    S.Risk.estimate S.Risk.Re_identification outcome.S.Cycle.anonymized
  in
  Alcotest.(check int) "under threshold" 0
    (List.length (S.Risk.risky report ~threshold:0.02))

let test_cycle_per_round_limit () =
  let md = figure5 () in
  let config = { S.Cycle.default_config with S.Cycle.per_round_limit = Some 1 } in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check bool) "still converges" true outcome.S.Cycle.converged;
  Alcotest.(check bool) "more rounds" true (outcome.S.Cycle.rounds >= 3)

(* --- audit trail -------------------------------------------------------------- *)

let test_audit_one_event_per_round () =
  List.iter
    (fun executor ->
      let md = figure5 () in
      let recorder = S.Audit.recorder () in
      let outcome = S.Cycle.run ~executor ~audit:recorder md in
      let events = S.Audit.events recorder in
      Alcotest.(check int) "one event per cycle round" outcome.S.Cycle.rounds
        (List.length events);
      List.iteri
        (fun i e ->
          Alcotest.(check int) "rounds consecutive from 1" (i + 1) e.S.Audit.round)
        events;
      (* The converged final round applied nothing and its post-state is
         its own estimate: zero violations left. *)
      Alcotest.(check bool) "converged" true outcome.S.Cycle.converged;
      let last = List.nth events (List.length events - 1) in
      Alcotest.(check string) "final round applies nothing" "none"
        (S.Audit.method_of_event last);
      Alcotest.(check (option int)) "no violations remain" (Some 0)
        last.S.Audit.violations_after;
      (* Suppression counts in the trail reconcile with the outcome. *)
      let total_suppressed =
        List.fold_left (fun acc e -> acc + e.S.Audit.suppressed) 0 events
      in
      Alcotest.(check int) "trail accounts for every null"
        outcome.S.Cycle.nulls_injected total_suppressed;
      (* The trail's final loss is the outcome's. *)
      Alcotest.(check (float 1e-9)) "final info loss" outcome.S.Cycle.info_loss
        last.S.Audit.info_loss_after)
    [ S.Cycle.native; S.Vadalog_bridge.executor ]

let test_audit_post_state_patched () =
  let md = figure5 () in
  let recorder = S.Audit.recorder () in
  ignore (S.Cycle.run ~audit:recorder md);
  let events = S.Audit.events recorder in
  (* Every round's post-state is known: intermediate rounds are patched
     by the next estimate, the final (converged) round by [finish]. *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d post-state known" e.S.Audit.round)
        true
        (e.S.Audit.violations_after <> None && e.S.Audit.max_risk_after <> None);
      Alcotest.(check bool)
        (Printf.sprintf "round %d loss monotone" e.S.Audit.round)
        true
        (e.S.Audit.info_loss_after >= e.S.Audit.info_loss_before))
    events;
  (* Round N's post-state is round N+1's pre-state. *)
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check (option int))
        (Printf.sprintf "round %d chains to round %d" a.S.Audit.round
           b.S.Audit.round)
        (Some b.S.Audit.risky_before) a.S.Audit.violations_after;
      pairwise rest
    | _ -> ()
  in
  pairwise events

let test_audit_jsonl_round_trips () =
  let md = figure5 () in
  let recorder = S.Audit.recorder () in
  ignore (S.Cycle.run ~audit:recorder md);
  let events = S.Audit.events recorder in
  let lines =
    String.split_on_char '\n' (S.Audit.to_jsonl events)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length events)
    (List.length lines);
  List.iter
    (fun line ->
      match Vadasa_base.Json.of_string line with
      | Ok (Vadasa_base.Json.Obj fields) ->
        List.iter
          (fun key ->
            Alcotest.(check bool)
              (Printf.sprintf "field %s present" key)
              true
              (List.mem_assoc key fields))
          [
            "event"; "round"; "risky_before"; "max_risk_before";
            "mean_risk_before"; "method"; "suppressed"; "recoded";
            "cells_affected"; "blocked"; "skipped"; "violations_after";
            "max_risk_after"; "info_loss_before"; "info_loss_after";
            "info_loss_delta";
          ]
      | Ok _ -> Alcotest.fail "audit line is not a JSON object"
      | Error e -> Alcotest.failf "audit line does not parse: %s" e)
    lines

(* --- info loss -------------------------------------------------------------- *)

let test_info_loss_metrics () =
  Alcotest.(check (float 1e-9)) "paper metric" 0.25
    (S.Info_loss.suppression_loss ~nulls_injected:3 ~risky_tuples:3 ~qi_count:4);
  Alcotest.(check (float 1e-9)) "no risky" 0.0
    (S.Info_loss.suppression_loss ~nulls_injected:0 ~risky_tuples:0 ~qi_count:4);
  let md = S.Microdata.copy (figure5 ()) in
  Alcotest.(check (float 1e-9)) "clean data" 0.0 (S.Info_loss.cell_suppression_rate md);
  let ids = Vadasa_base.Ids.create () in
  ignore (S.Suppression.suppress ids md ~tuple:0 ~attr:"sector");
  Alcotest.(check (float 1e-6)) "one cell of 28" (1.0 /. 28.0)
    (S.Info_loss.cell_suppression_rate md)

let test_generalization_loss () =
  let md = S.Microdata.copy (figure5 ()) in
  let h = D.Ig_survey.figure5_hierarchy () in
  let before = S.Info_loss.generalization_loss h md in
  ignore (S.Recoding.recode_attr_fully h md ~attr:"area");
  let after = S.Info_loss.generalization_loss h md in
  Alcotest.(check bool) "loss grows with recoding" true (after > before)

(* --- business knowledge (Algorithm 9) --------------------------------------- *)

let own owner owned share = { S.Business.owner; owned; share }

let test_control_direct_and_transitive () =
  let pairs =
    S.Business.control_closure
      [ own "a" "b" 0.6; own "b" "c" 0.7; own "x" "y" 0.4 ]
  in
  Alcotest.(check bool) "a controls b" true (List.mem ("a", "b") pairs);
  Alcotest.(check bool) "b controls c" true (List.mem ("b", "c") pairs);
  Alcotest.(check bool) "a controls c transitively" true
    (List.mem ("a", "c") pairs);
  Alcotest.(check bool) "x does not control y" false (List.mem ("x", "y") pairs)

let test_control_joint () =
  (* a holds 40% of c directly and controls b which holds 20%: jointly 60%. *)
  let pairs =
    S.Business.control_closure
      [ own "a" "b" 0.8; own "a" "c" 0.4; own "b" "c" 0.2 ]
  in
  Alcotest.(check bool) "joint control" true (List.mem ("a", "c") pairs)

let test_control_engine_agrees () =
  let graphs =
    [
      [ own "a" "b" 0.6; own "b" "c" 0.7 ];
      [ own "a" "b" 0.8; own "a" "c" 0.4; own "b" "c" 0.2 ];
      [ own "a" "b" 0.3; own "c" "b" 0.3 ];
      [ own "a" "b" 0.51; own "b" "a" 0.49 ];
    ]
  in
  List.iter
    (fun g ->
      let native = S.Business.control_closure g in
      let reasoned = S.Business.control_closure_via_engine g in
      Alcotest.(check (list (pair string string))) "closures agree" native reasoned)
    graphs

let test_clusters_and_propagation () =
  let clusters = S.Business.clusters [ ("a", "b"); ("b", "c"); ("x", "y") ] in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  let risks = [| 0.5; 0.5; 0.0; 0.9 |] in
  let entity_of = function
    | 0 -> Some "a"
    | 1 -> Some "b"
    | 2 -> Some "solo"
    | 3 -> Some "x"
    | _ -> None
  in
  let propagated = S.Business.propagate ~entity_of ~clusters risks in
  Alcotest.(check (float 1e-9)) "cluster combines" 0.75 propagated.(0);
  Alcotest.(check (float 1e-9)) "solo untouched" 0.0 propagated.(2);
  Alcotest.(check (float 1e-9)) "y missing, x keeps own" 0.9 propagated.(3)

let test_enhanced_cycle_injects_more_nulls () =
  (* Figure 7d: more control relationships -> more injected nulls. *)
  let md = D.Suite.load ~scale:0.02 "R25A4W" in
  let rng = Vadasa_stats.Rng.create ~seed:11 in
  let ownerships =
    D.Ownership_gen.generate rng md ~id_attr:"id" ~edges:120 ()
  in
  let base = S.Cycle.run md in
  let config =
    {
      S.Cycle.default_config with
      S.Cycle.risk_transform =
        Some (S.Business.risk_transform ~id_attr:"id" ~ownerships);
    }
  in
  let enhanced = S.Cycle.run ~config md in
  Alcotest.(check bool) "relationships cannot reduce the nulls" true
    (enhanced.S.Cycle.nulls_injected >= base.S.Cycle.nulls_injected)

(* --- explainability ---------------------------------------------------------- *)

let test_explain_action () =
  let md = figure5 () in
  let outcome = S.Cycle.run md in
  match outcome.S.Cycle.trace with
  | a :: _ ->
    let text = S.Explain.action outcome.S.Cycle.anonymized a in
    Alcotest.(check bool) "mentions round" true
      (Astring_contains.contains text "round");
    Alcotest.(check bool) "mentions frequency" true
      (Astring_contains.contains text "frequency")
  | [] -> Alcotest.fail "expected actions"

let test_explain_trace_and_summary () =
  let md = figure5 () in
  let outcome = S.Cycle.run md in
  let text = S.Explain.trace md outcome in
  Alcotest.(check bool) "narrative nonempty" true (String.length text > 100);
  let report = S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md in
  let summary = S.Explain.summary md report ~threshold:0.5 in
  Alcotest.(check bool) "risky count present" true
    (Astring_contains.contains summary "risky tuples: 3")

(* --- the reasoned path (engine) ---------------------------------------------- *)

let test_engine_k_anonymity_agrees () =
  let md = figure5 () in
  let native = (S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md).S.Risk.risk in
  let reasoned = S.Vadalog_bridge.risk_via_engine (S.Risk.K_anonymity { k = 2 }) md in
  Alcotest.(check (array (float 1e-9))) "risks agree" native reasoned

let test_engine_reidentification_agrees () =
  let md = figure1 () in
  let native = (S.Risk.estimate S.Risk.Re_identification md).S.Risk.risk in
  let reasoned = S.Vadalog_bridge.risk_via_engine S.Risk.Re_identification md in
  Alcotest.(check (array (float 1e-6))) "risks agree" native reasoned

let test_engine_individual_agrees () =
  let md = figure1 () in
  let native = (S.Risk.estimate (S.Risk.Individual S.Risk.Naive) md).S.Risk.risk in
  let reasoned =
    S.Vadalog_bridge.risk_via_engine (S.Risk.Individual S.Risk.Naive) md
  in
  Alcotest.(check (array (float 1e-6))) "risks agree" native reasoned

let test_engine_suda_agrees () =
  let md = figure5 () in
  let native =
    S.Risk_suda.estimate ~max_msu_size:2 ~threshold_size:3 md
  in
  let reasoned =
    S.Vadalog_bridge.risk_via_engine
      (S.Risk.Suda { max_msu_size = 2; threshold_size = 3 })
      md
  in
  Alcotest.(check (array (float 1e-9))) "risks agree" native reasoned

let test_engine_risk_explanation () =
  let md = figure5 () in
  match
    S.Vadalog_bridge.explain_risk (S.Risk.K_anonymity { k = 2 }) md ~tuple:0
  with
  | Some text ->
    Alcotest.(check bool) "provenance mentions the rule" true
      (Astring_contains.contains text "k_anonymity_risk")
  | None -> Alcotest.fail "expected an explanation"

let test_maybe_k_anonymity_program () =
  (* The null-tolerant declarative k-anonymity must agree with the native
     maybe-match estimate on suppressed data. *)
  let md = S.Microdata.copy (figure5 ()) in
  let ids = Vadasa_base.Ids.create () in
  ignore (S.Suppression.suppress ids md ~tuple:0 ~attr:"sector");
  let native =
    (S.Risk.estimate ~semantics:R.Null_semantics.Maybe_match
       (S.Risk.K_anonymity { k = 2 })
       md)
      .S.Risk.risk
  in
  let program =
    Vadasa_vadalog.Program.union
      (Vadasa_vadalog.Parser.parse (S.Vadalog_bridge.k_anonymity_maybe_program ~k:2))
      (Vadasa_vadalog.Program.make ~facts:(S.Vadalog_bridge.microdata_facts md) [])
  in
  let engine = Vadasa_vadalog.Engine.create program in
  Vadasa_vadalog.Engine.run engine;
  let reasoned = Array.make (S.Microdata.cardinal md) 0.0 in
  List.iter
    (fun fact ->
      match fact with
      | [| Value.Int i; r |] ->
        reasoned.(i) <- Float.max reasoned.(i) (Option.get (Value.as_float r))
      | _ -> ())
    (Vadasa_vadalog.Engine.facts engine "riskoutput");
  Alcotest.(check (array (float 1e-9))) "maybe-match paths agree" native reasoned

let test_enhanced_risk_via_engine () =
  (* Algorithm 9 fully declarative: k-anonymity + control closure + cluster
     propagation on the engine must equal the native measure + transform. *)
  let md = D.Suite.load ~scale:0.008 "R25A4U" in
  let rng = Vadasa_stats.Rng.create ~seed:41 in
  let ownerships = D.Ownership_gen.generate rng md ~id_attr:"id" ~edges:20 () in
  let native =
    let report = S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md in
    S.Business.risk_transform ~id_attr:"id" ~ownerships md report.S.Risk.risk
  in
  let reasoned =
    S.Vadalog_bridge.enhanced_risk_via_engine ~k:2 md ~id_attr:"id" ~ownerships
  in
  Alcotest.(check (array (float 1e-9))) "algorithm 9 paths agree" native reasoned;
  (* The graph must actually link something, or the test is vacuous. *)
  Alcotest.(check bool) "clusters exist" true
    (S.Business.clusters (S.Business.control_closure ownerships) <> [])

let test_reasoned_cycle () =
  (* Both executors run Cycle.run's loop: on Figure 5 the engine takes the
     native cycle's rounds and moves, one null per risky combination. *)
  let md = figure5 () in
  let moves outcome =
    List.map
      (fun a -> (a.S.Cycle.round, a.S.Cycle.tuple, a.S.Cycle.attr))
      outcome.S.Cycle.trace
  in
  let executor = S.Vadalog_bridge.executor in
  let reasoned = S.Cycle.run ~executor md in
  List.iter
    (fun (name, outcome) ->
      Alcotest.(check int) (name ^ " rounds") 2 outcome.S.Cycle.rounds;
      Alcotest.(check int) (name ^ " nulls") 2 outcome.S.Cycle.nulls_injected;
      Alcotest.(check (list (triple int int string)))
        (name ^ " moves")
        [ (1, 0, "sector"); (1, 5, "area") ]
        (moves outcome))
    [ ("native", S.Cycle.run md); ("engine", reasoned) ];
  let report =
    S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) reasoned.S.Cycle.anonymized
  in
  Alcotest.(check int) "anonymized is 2-anonymous" 0
    (List.length (S.Risk.risky report ~threshold:0.5));
  (* The budget is the loop's: the fact ceiling counts injected nulls, so
     round 1's two nulls stop the run at the next round boundary. *)
  let budget = Vadasa_base.Budget.create ~max_facts:1 () in
  let cut = S.Cycle.run ~executor ~budget md in
  Alcotest.(check bool) "interrupted at the ceiling" true
    (cut.S.Cycle.interrupted = Some Vadasa_base.Budget.Fact_ceiling);
  Alcotest.(check int) "after one round" 1 cut.S.Cycle.rounds;
  (* A configuration with no program is refused before round 1: a
     cancelled budget stops the loop before any round, so only a check
     made before the loop can raise. *)
  let cancelled = Vadasa_base.Budget.create () in
  Vadasa_base.Budget.cancel cancelled;
  let h = D.Ig_survey.figure5_hierarchy () in
  let maybe measure = { S.Cycle.default_config with S.Cycle.measure } in
  let standard measure =
    { (maybe measure) with S.Cycle.semantics = R.Null_semantics.Standard }
  in
  let recoding method_ = { S.Cycle.default_config with S.Cycle.method_ } in
  let mc = S.Risk.Monte_carlo { samples = 10; seed = 1 } in
  let flat ~freq:_ ~weight_sum:_ = 0.0 in
  List.iter
    (fun (name, config) ->
      match S.Cycle.run ~config ~executor ~budget:cancelled md with
      | _ -> Alcotest.failf "%s: expected Unsupported" name
      | exception S.Vadalog_bridge.Unsupported _ -> ())
    [
      ("maybe-match re-identification", maybe S.Risk.Re_identification);
      ("maybe-match individual", maybe (S.Risk.Individual S.Risk.Naive));
      ("maybe-match SUDA", maybe (S.Risk.Suda { max_msu_size = 2; threshold_size = 3 }));
      ("Benedetti-Franconi", standard (S.Risk.Individual S.Risk.Benedetti_franconi));
      ("Monte Carlo", standard (S.Risk.Individual mc));
      ("custom", standard (S.Risk.Custom { name = "flat"; score = flat }));
      ("global recoding", recoding (S.Cycle.Global_recoding h));
      ("recode then suppress", recoding (S.Cycle.Recode_then_suppress h));
    ]

let test_monte_carlo_unsupported_on_engine () =
  let md = figure5 () in
  Alcotest.(check bool) "raises Unsupported" true
    (try
       ignore
         (S.Vadalog_bridge.risk_via_engine
            (S.Risk.Individual (S.Risk.Monte_carlo { samples = 10; seed = 1 }))
            md);
       false
     with S.Vadalog_bridge.Unsupported _ -> true)

(* --- declarative anonymization programs on the engine ----------------------- *)

module VL = Vadasa_vadalog

let test_suppression_program_on_engine () =
  (* Algorithm 7 as a Vadalog program: the existential Z materializes as a
     labelled null inside the rebuilt collection. *)
  let source =
    S.Suppression.program
    ^ {|
      tuple(1, {(area, roma); (sector, textiles)}).
      anonymize(1, sector).
    |}
  in
  let engine = VL.Engine.create (VL.Parser.parse source) in
  VL.Engine.run engine;
  match VL.Engine.facts engine "tuple_s" with
  | [ [| Value.Int 1; Value.Coll pairs |] ] ->
    let sector =
      List.find_map
        (function
          | Value.Pair (Value.Str "sector", v) -> Some v
          | _ -> None)
        pairs
    in
    Alcotest.(check bool) "sector suppressed to a null" true
      (match sector with Some v -> Value.is_null v | None -> false);
    let area =
      List.find_map
        (function Value.Pair (Value.Str "area", v) -> Some v | _ -> None)
        pairs
    in
    Alcotest.(check (option (module Value))) "area kept"
      (Some (Value.Str "roma")) area
  | facts ->
    Alcotest.fail
      (Printf.sprintf "expected one suppressed tuple, got %d" (List.length facts))

let test_suppression_program_null_guard () =
  (* Re-suppressing an already-null value must not fire (Algorithm 7's
     guard). *)
  let source =
    S.Suppression.program
    ^ {|
      tuple(1, {(sector, #5)}).
      anonymize(1, sector).
    |}
  in
  let engine = VL.Engine.create (VL.Parser.parse source) in
  VL.Engine.run engine;
  Alcotest.(check int) "no derivation" 0
    (List.length (VL.Engine.facts engine "tuple_s"))

let test_recoding_program_on_engine () =
  (* Algorithm 8 as a Vadalog program over the hierarchy facts. *)
  let h = D.Ig_survey.figure5_hierarchy () in
  let facts =
    S.Hierarchy.to_facts h
    @ [
        ( "tuple",
          [|
            Value.Int 1;
            Value.coll
              [
                Value.pair (Value.Str "area") (Value.Str "Milano");
                Value.pair (Value.Str "sector") (Value.Str "Construction");
              ];
          |] );
        ("anonymize", [| Value.Int 1; Value.Str "area" |]);
      ]
  in
  let program =
    VL.Program.union
      (VL.Parser.parse S.Recoding.program)
      (VL.Program.make ~facts [])
  in
  let engine = VL.Engine.create program in
  VL.Engine.run engine;
  match VL.Engine.facts engine "tuple_r" with
  | [ [| Value.Int 1; coll |] ] ->
    Alcotest.(check (option (module Value))) "Milano -> North"
      (Some (Value.Str "North"))
      (Value.coll_assoc coll (Value.Str "area"))
  | facts ->
    Alcotest.fail
      (Printf.sprintf "expected one recoded tuple, got %d" (List.length facts))

(* --- more cycle behaviours ---------------------------------------------------- *)

let test_share_nulls_ablation () =
  let md = D.Suite.load ~scale:0.04 "R25A4U" in
  let run share_nulls =
    let config = { S.Cycle.default_config with S.Cycle.share_nulls } in
    S.Cycle.run ~config md
  in
  let shared = run true and unshared = run false in
  Alcotest.(check bool) "sharing cannot need more nulls" true
    (shared.S.Cycle.nulls_injected <= unshared.S.Cycle.nulls_injected);
  (* Both must still converge to the same safety guarantee. *)
  List.iter
    (fun outcome ->
      let report =
        S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) outcome.S.Cycle.anonymized
      in
      Alcotest.(check int) "2-anonymous" 0
        (List.length (S.Risk.risky report ~threshold:0.5)))
    [ shared; unshared ]

let test_cycle_individual_measure_converges () =
  let md = D.Suite.load ~scale:0.02 "R25A4U" in
  let config =
    {
      S.Cycle.default_config with
      S.Cycle.measure = S.Risk.Individual S.Risk.Benedetti_franconi;
      threshold = 0.3;
    }
  in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check bool) "converged" true outcome.S.Cycle.converged;
  let report =
    S.Risk.estimate (S.Risk.Individual S.Risk.Benedetti_franconi)
      outcome.S.Cycle.anonymized
  in
  Alcotest.(check int) "under threshold" 0
    (List.length (S.Risk.risky report ~threshold:0.3))

let test_cycle_suda_measure_converges () =
  let md = D.Ig_survey.figure1 () in
  let config =
    {
      S.Cycle.default_config with
      S.Cycle.measure = S.Risk.Suda { max_msu_size = 2; threshold_size = 3 };
    }
  in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check bool) "converged" true outcome.S.Cycle.converged;
  let residual =
    S.Risk_suda.estimate ~max_msu_size:2 ~threshold_size:3
      outcome.S.Cycle.anonymized
  in
  Array.iter
    (fun r -> Alcotest.(check (float 0.0)) "no small MSUs left" 0.0 r)
    residual

let test_cycle_max_rounds_respected () =
  let md = D.Suite.load ~scale:0.02 "R25A4V" in
  let config =
    { S.Cycle.default_config with S.Cycle.max_rounds = 1; per_round_limit = Some 3 }
  in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check int) "one round" 1 outcome.S.Cycle.rounds;
  Alcotest.(check bool) "at most 3 actions" true
    (List.length outcome.S.Cycle.trace <= 3)

let test_custom_measure () =
  (* User-delegated λ: flag combinations below a weight floor (a crude
     context-aware criterion a business expert might plug in). *)
  let floor_measure =
    S.Risk.Custom
      {
        name = "weight floor 100";
        score =
          (fun ~freq:_ ~weight_sum -> if weight_sum < 100.0 then 1.0 else 0.0);
      }
  in
  let md = figure1 () in
  let report = S.Risk.estimate floor_measure md in
  (* Tuples 4, 5, 15 of Figure 1 have unique combinations with weights 60,
     50, 30 < 100; tuples 3, 6, 11 weigh 70; 12, 20 weigh 90; 14 has 104. *)
  Alcotest.(check bool) "tuple 15 flagged" true (report.S.Risk.risk.(14) = 1.0);
  Alcotest.(check bool) "tuple 7 safe" true (report.S.Risk.risk.(6) = 0.0);
  (* The cycle accepts the custom measure and converges. *)
  let config = { S.Cycle.default_config with S.Cycle.measure = floor_measure } in
  let outcome = S.Cycle.run ~config md in
  Alcotest.(check bool) "converged" true outcome.S.Cycle.converged;
  let residual = S.Risk.estimate floor_measure outcome.S.Cycle.anonymized in
  Alcotest.(check int) "safe" 0
    (List.length (S.Risk.risky residual ~threshold:0.5));
  (* But it cannot be shipped to the engine as-is. *)
  Alcotest.(check bool) "engine unsupported" true
    (try
       ignore (S.Vadalog_bridge.risk_via_engine floor_measure md);
       false
     with S.Vadalog_bridge.Unsupported _ -> true)

(* --- the Datafly baseline ------------------------------------------------------ *)

let test_datafly_reaches_k_anonymity () =
  let md = D.Suite.load ~scale:0.04 "R25A4U" in
  let hierarchy = D.Generator.synthetic_hierarchy md in
  let outcome = S.Baseline_datafly.run ~hierarchy md in
  Alcotest.(check bool) "satisfied" true outcome.S.Baseline_datafly.satisfied;
  Alcotest.(check bool) "k-anonymous" true
    (S.Baseline_datafly.k_anonymous outcome.S.Baseline_datafly.anonymized);
  Alcotest.(check bool) "generalized something" true
    (outcome.S.Baseline_datafly.cells_generalized > 0);
  (* The input must be untouched. *)
  Alcotest.(check int) "input intact" 0
    (R.Relation.count_nulls (S.Microdata.relation md))

let test_datafly_figure5 () =
  (* On Figure 5 with only the geographic hierarchy, Datafly can climb
     Area but not the other attributes: the lone Textiles tuple must end
     up suppressed. *)
  let md = figure5 () in
  let hierarchy = D.Ig_survey.figure5_hierarchy () in
  let outcome = S.Baseline_datafly.run ~hierarchy ~max_suppression:0.2 md in
  Alcotest.(check bool) "tuple 0 suppressed" true
    (List.mem 0 outcome.S.Baseline_datafly.suppressed_tuples);
  Alcotest.(check bool) "k-anonymous afterwards" true
    (S.Baseline_datafly.k_anonymous outcome.S.Baseline_datafly.anonymized)

let test_datafly_vs_cycle_utility () =
  (* Vada-SA's cell-level suppression must touch no more cells than
     Datafly's whole-column generalization on unbalanced data. *)
  let md = D.Suite.load ~scale:0.02 "R25A4U" in
  let hierarchy = D.Generator.synthetic_hierarchy md in
  let cycle = S.Cycle.run md in
  let datafly = S.Baseline_datafly.run ~hierarchy md in
  let cycle_touched = cycle.S.Cycle.nulls_injected in
  let datafly_touched =
    datafly.S.Baseline_datafly.cells_generalized
    + List.length datafly.S.Baseline_datafly.suppressed_tuples
      * List.length (S.Microdata.quasi_identifiers md)
  in
  Alcotest.(check bool)
    (Printf.sprintf "cycle %d <= datafly %d" cycle_touched datafly_touched)
    true
    (cycle_touched <= datafly_touched)

(* --- hierarchy and dictionary edge cases -------------------------------------- *)

let test_hierarchy_chain_guard () =
  (* A cyclic IsA chain must not loop forever. *)
  let h = S.Hierarchy.create () in
  S.Hierarchy.add_is_a h ~child:(Value.Str "a") ~parent:(Value.Str "b");
  S.Hierarchy.add_is_a h ~child:(Value.Str "b") ~parent:(Value.Str "a");
  let chain = S.Hierarchy.generalization_chain h (Value.Str "a") in
  Alcotest.(check bool) "bounded" true (List.length chain <= 33)

let test_hierarchy_missing_parent () =
  let h = D.Ig_survey.figure5_hierarchy () in
  Alcotest.(check bool) "unknown value" true
    (S.Hierarchy.parent h (Value.Str "Atlantis") = None);
  Alcotest.(check int) "unknown attr height" 0
    (S.Hierarchy.height h ~attr:"nope")

let test_dictionary_errors () =
  let dict = S.Dictionary.create () in
  S.Dictionary.register_microdata dict (figure1 ());
  Alcotest.(check bool) "double registration rejected" true
    (try
       S.Dictionary.register dict (S.Microdata.schema (figure1 ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown attr rejected" true
    (try
       S.Dictionary.set_category dict ~microdb:"ig_survey" ~attr:"zzz"
         S.Microdata.Weight;
       false
     with Invalid_argument _ -> true)

let test_business_empty_and_self () =
  Alcotest.(check (list (pair string string))) "empty graph" []
    (S.Business.control_closure []);
  Alcotest.(check int) "no clusters" 0 (List.length (S.Business.clusters []));
  (* Self-ownership is inert. *)
  let pairs = S.Business.control_closure [ own "a" "a" 0.9 ] in
  Alcotest.(check bool) "self pair allowed but no propagation" true
    (List.for_all (fun (x, y) -> x = "a" && y = "a") pairs)

let test_explain_tuple_risk_wording () =
  let md = figure1 () in
  let report = S.Risk.estimate S.Risk.Re_identification md in
  let text = S.Explain.tuple_risk md report ~tuple:14 in
  Alcotest.(check bool) "names the combination" true
    (Astring_contains.contains text "Public Service");
  Alcotest.(check bool) "names the weight" true
    (Astring_contains.contains text "30.0")

let test_suda_dis_ordering () =
  (* A tuple with a size-1 MSU must outscore one whose smallest MSU is
     larger. *)
  let md = figure1 () in
  let scores = S.Risk_suda.dis_scores ~max_size:3 md in
  let msus = S.Risk_suda.find_msus ~max_size:3 md in
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun j u ->
          match t.S.Risk_suda.min_size, u.S.Risk_suda.min_size with
          | Some 1, Some b when b >= 3 ->
            Alcotest.(check bool)
              (Printf.sprintf "tuple %d outscores tuple %d" i j)
              true
              (scores.(i) > scores.(j))
          | _ -> ())
        msus)
    msus

(* --- properties --------------------------------------------------------------- *)

let gen_microdata =
  QCheck2.Gen.(
    let* n = int_range 5 40 in
    let* seed = int_range 1 10_000 in
    let* dist = oneofl [ D.Generator.W; D.Generator.U; D.Generator.V ] in
    return (n, seed, dist))

let md_of (n, seed, dist) =
  D.Generator.generate
    { D.Generator.name = "prop"; tuples = n; qi_count = 3; distribution = dist; seed }

let prop_engine_matches_native_k_anonymity =
  QCheck2.Test.make ~name:"engine k-anonymity equals native on random microdata"
    ~count:15 gen_microdata
    (fun params ->
      let md = md_of params in
      let native = (S.Risk.estimate (S.Risk.K_anonymity { k = 3 }) md).S.Risk.risk in
      let reasoned =
        S.Vadalog_bridge.risk_via_engine (S.Risk.K_anonymity { k = 3 }) md
      in
      native = reasoned)

let prop_cycle_reaches_k_anonymity =
  QCheck2.Test.make ~name:"cycle always reaches k-anonymity or reports unresolved"
    ~count:15 gen_microdata
    (fun params ->
      let md = md_of params in
      let outcome = S.Cycle.run md in
      if outcome.S.Cycle.converged then begin
        let report =
          S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) outcome.S.Cycle.anonymized
        in
        S.Risk.risky report ~threshold:0.5 = []
      end
      else outcome.S.Cycle.unresolved <> [])

let prop_suppression_only_adds_nulls =
  QCheck2.Test.make ~name:"anonymization never alters constants except to nulls/parents"
    ~count:15 gen_microdata
    (fun params ->
      let md = md_of params in
      let outcome = S.Cycle.run md in
      let before = S.Microdata.relation md in
      let after = S.Microdata.relation outcome.S.Cycle.anonymized in
      let ok = ref true in
      R.Relation.iteri
        (fun i t ->
          let t' = R.Relation.get after i in
          Array.iteri
            (fun p v ->
              let v' = t'.(p) in
              if not (Value.equal v v') then
                if not (Value.is_null v') then ok := false)
            t)
        before;
      !ok)

let prop_risk_decreases_after_cycle =
  QCheck2.Test.make ~name:"global risk never grows through anonymization"
    ~count:15 gen_microdata
    (fun params ->
      let md = md_of params in
      let before = S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md in
      let outcome = S.Cycle.run md in
      let after =
        S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) outcome.S.Cycle.anonymized
      in
      S.Risk.global_risk after <= S.Risk.global_risk before +. 1e-9)

(* Two relations equal up to a bijective renaming of null labels. *)
let equal_up_to_null_labels a b =
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  let same_label x y =
    match Hashtbl.find_opt fwd x, Hashtbl.find_opt bwd y with
    | None, None ->
      Hashtbl.add fwd x y;
      Hashtbl.add bwd y x;
      true
    | Some y', Some x' -> y' = y && x' = x
    | Some _, None | None, Some _ -> false
  in
  let ok = ref (R.Relation.cardinal a = R.Relation.cardinal b) in
  if !ok then
    R.Relation.iteri
      (fun i t ->
        Array.iteri
          (fun p v ->
            match v, (R.Relation.get b i).(p) with
            | Value.Null x, Value.Null y -> if not (same_label x y) then ok := false
            | v, w -> if not (Value.equal v w) then ok := false)
          t)
      a;
  !ok

let prop_engine_executor_matches_native =
  let k2 = S.Risk.K_anonymity { k = 2 } and reid = S.Risk.Re_identification in
  let cases =
    [
      ("k-anonymity, maybe-match", k2, R.Null_semantics.Maybe_match, 0.5);
      ("k-anonymity, standard", k2, R.Null_semantics.Standard, 0.5);
      ("re-identification, standard", reid, R.Null_semantics.Standard, 0.2);
    ]
  in
  QCheck2.Test.make ~name:"engine executor equals the native cycle on random microdata"
    ~count:30
    ~print:(fun ((n, seed, dist), (name, _, _, _), share_nulls) ->
      let dist = match dist with D.Generator.W -> "W" | U -> "U" | V -> "V" in
      Printf.sprintf "%d tuples, seed %d, %s; %s, share_nulls %b" n seed dist name
        share_nulls)
    QCheck2.Gen.(triple gen_microdata (oneofl cases) bool)
    (fun (params, (_, measure, semantics, threshold), share_nulls) ->
      let md = md_of params in
      let config =
        { S.Cycle.default_config with S.Cycle.measure; semantics; threshold; share_nulls }
      in
      let native = S.Cycle.run ~config md in
      let engine = S.Cycle.run ~config ~executor:S.Vadalog_bridge.executor md in
      let actions o =
        List.map
          (fun a -> (a.S.Cycle.round, a.S.Cycle.tuple, a.S.Cycle.attr, a.S.Cycle.kind))
          o.S.Cycle.trace
      in
      if actions native <> actions engine then QCheck2.Test.fail_report "traces differ";
      if native.S.Cycle.nulls_injected <> engine.S.Cycle.nulls_injected then
        QCheck2.Test.fail_reportf "nulls injected: native %d, engine %d"
          native.S.Cycle.nulls_injected engine.S.Cycle.nulls_injected;
      if
        (native.S.Cycle.rounds, native.S.Cycle.converged, native.S.Cycle.unresolved)
        <> (engine.S.Cycle.rounds, engine.S.Cycle.converged, engine.S.Cycle.unresolved)
      then QCheck2.Test.fail_report "rounds, convergence or unresolved tuples differ";
      equal_up_to_null_labels
        (S.Microdata.relation native.S.Cycle.anonymized)
        (S.Microdata.relation engine.S.Cycle.anonymized))

let prop_control_closure_engine_native =
  QCheck2.Test.make ~name:"control closure: engine equals native on random graphs"
    ~count:15
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (triple (int_bound 5) (int_bound 5) (float_range 0.05 0.95)))
    (fun edges ->
      let g =
        List.filter_map
          (fun (a, b, w) ->
            if a = b then None
            else
              Some
                (own ("c" ^ string_of_int a) ("c" ^ string_of_int b)
                   (Float.round (w *. 100.0) /. 100.0)))
          edges
      in
      S.Business.control_closure g = S.Business.control_closure_via_engine g)

(* --- encoded keys vs the string-keyed reference -------------------------- *)

(* A generated microdata DB: [m] quasi-identifiers q0.. then a weight w.
   Each column holds one value type (ints, "c"-prefixed strings or
   quarter floats), so no two distinct values render alike and the
   string-keyed reference groups exactly like the encoded path. Cells are
   suppressed at [null_rate]; a suppressed cell takes a fresh null label
   or reuses an earlier one. *)
type encoded_case = {
  m : int;
  n : int;
  domain : int;
  null_rate : float;
  fractional : bool;
  seed : int;
}

let print_encoded_case c =
  Printf.sprintf "m=%d n=%d domain=%d null_rate=%.2f fractional=%b seed=%d" c.m
    c.n c.domain c.null_rate c.fractional c.seed

let gen_encoded_case ~wide =
  QCheck2.Gen.(
    let* m = if wide then return 9 else int_range 3 9 in
    let* n = if wide then int_range 150 250 else int_range 1 60 in
    let* domain = if wide then return 100_000 else int_range 1 6 in
    let* null_rate = if wide then oneofl [ 0.0; 0.02 ] else oneofl [ 0.0; 0.1; 0.3 ] in
    let* fractional = bool in
    let* seed = int_range 0 1_000_000 in
    return { m; n; domain; null_rate; fractional; seed })

let encoded_case_md c =
  let st = Random.State.make [| c.seed |] in
  let labels = ref [] in
  let next_label = ref 0 in
  let cell kind =
    if Random.State.float st 1.0 < c.null_rate then
      match !labels with
      | _ :: _ when Random.State.bool st ->
        Value.Null (List.nth !labels (Random.State.int st (List.length !labels)))
      | _ ->
        incr next_label;
        labels := !next_label :: !labels;
        Value.Null !next_label
    else
      let k = Random.State.int st c.domain in
      match kind with
      | 0 -> Value.Int k
      | 1 -> Value.Str ("c" ^ string_of_int k)
      | _ -> Value.Float (float_of_int k *. 0.25)
  in
  let kinds = Array.init c.m (fun _ -> Random.State.int st 3) in
  let rows =
    List.init c.n (fun _ ->
        let weight =
          if c.fractional then 0.1 +. Random.State.float st 50.0
          else float_of_int (1 + Random.State.int st 50)
        in
        Array.append (Array.map cell kinds) [| Value.Float weight |])
  in
  let names = List.init c.m (Printf.sprintf "q%d") in
  let rel = R.Relation.of_tuples (R.Schema.of_names ~name:"gen" (names @ [ "w" ])) rows in
  S.Microdata.make rel
    (List.map (fun a -> (a, S.Microdata.Quasi_identifier)) names
    @ [ ("w", S.Microdata.Weight) ])

let float_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let float_rel_close a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)))
       a b

let encoded_matches_reference c =
  let md = encoded_case_md c in
  let rel = S.Microdata.relation md in
  let qi = S.Microdata.qi_positions md in
  let weight = Option.get (S.Microdata.weight_position md) in
  let check_stats semantics =
    let encoded = R.Algebra.Group_stats.compute ~semantics ~rel ~qi ~weight () in
    let reference = String_keyed.Group_stats.compute ~semantics ~rel ~qi ~weight () in
    let ws_ok =
      match semantics with
      | R.Null_semantics.Maybe_match when c.fractional ->
        float_rel_close encoded.weight_sum reference.weight_sum
      | R.Null_semantics.Standard | R.Null_semantics.Maybe_match ->
        float_bits_equal encoded.weight_sum reference.weight_sum
    in
    if encoded.freq <> reference.freq then
      QCheck2.Test.fail_reportf "%s freq differs" (R.Null_semantics.to_string semantics);
    if not ws_ok then
      QCheck2.Test.fail_reportf "%s weight_sum differs" (R.Null_semantics.to_string semantics)
  in
  check_stats R.Null_semantics.Standard;
  check_stats R.Null_semantics.Maybe_match;
  let msus = Array.map (fun t -> t.S.Risk_suda.msus) (S.Risk_suda.find_msus md) in
  if msus <> String_keyed.find_msus md then QCheck2.Test.fail_report "MSUs differ";
  let cache = S.Heuristics.build_cache md in
  Array.iteri
    (fun j per_tuple ->
      Array.iteri
        (fun i f ->
          if S.Heuristics.freq_without cache ~tuple:i j <> f then
            QCheck2.Test.fail_reportf "leave-one-out freq of tuple %d without q%d" i j)
        per_tuple)
    (String_keyed.leave_one_out md);
  true

let prop_encoded_matches_reference =
  QCheck2.Test.make ~name:"encoded grouping equals the string-keyed reference"
    ~count:300 ~print:print_encoded_case (gen_encoded_case ~wide:false)
    encoded_matches_reference

(* Nine columns of ~200 distinct values each: the product of their
   cardinalities exceeds 62 bits, so group ids go through the fold path. *)
let prop_encoded_matches_reference_wide =
  QCheck2.Test.make ~name:"encoded grouping equals the reference past 62 bits"
    ~count:10 ~print:print_encoded_case (gen_encoded_case ~wide:true)
    (fun c ->
      let md = encoded_case_md c in
      let codes = R.Column_codes.encode (S.Microdata.relation md) (S.Microdata.qi_positions md) in
      let product =
        List.fold_left
          (fun acc j ->
            let card = R.Column_codes.cardinality codes j in
            if acc > max_int / card then max_int else acc * card)
          1 (List.init c.m Fun.id)
      in
      if product < max_int then QCheck2.Test.fail_reportf "product %d fits in 62 bits" product;
      encoded_matches_reference c)

(* --- null-vs-null step: bucketed classes vs the pairwise loop ------------- *)

(* Dense nulls over tiny domains: many null masks, classes with several
   members, labels both shared and fresh, fractional weights. The bucketed
   step must reproduce the pairwise loop's float additions exactly. *)
let gen_step3_case =
  QCheck2.Gen.(
    let* m = int_range 1 9 in
    let* n = int_range 1 120 in
    let* domain = int_range 1 4 in
    let* null_rate = oneofl [ 0.1; 0.3; 0.5; 0.8 ] in
    let* fractional = frequency [ (4, return true); (1, return false) ] in
    let* seed = int_range 0 1_000_000 in
    return { m; n; domain; null_rate; fractional; seed })

let prop_step3_matches_pairwise =
  QCheck2.Test.make ~name:"maybe-match classes match the pairwise loop bit for bit"
    ~count:400 ~print:print_encoded_case gen_step3_case (fun c ->
      let md = encoded_case_md c in
      let rel = S.Microdata.relation md and qi = S.Microdata.qi_positions md in
      let weight = Option.get (S.Microdata.weight_position md) in
      let bucketed =
        R.Algebra.Group_stats.compute ~semantics:R.Null_semantics.Maybe_match ~rel ~qi ~weight ()
      in
      let pairwise = Pairwise_maybe.compute ~rel ~qi ~weight () in
      if bucketed.freq <> pairwise.freq then QCheck2.Test.fail_report "freq differs";
      if not (float_bits_equal bucketed.weight_sum pairwise.weight_sum) then
        QCheck2.Test.fail_report "weight_sum bits differ";
      true)

(* --- Monte-Carlo risk: a function of each tuple's (f, ŵ) ------------------ *)

let monte_carlo = S.Risk.Individual (S.Risk.Monte_carlo { samples = 20; seed = 5 })

(* Integer weights keep every weight sum exact, so permuting the rows
   permutes (f, ŵ) and nothing else; the risks must follow. *)
let prop_monte_carlo_keyed =
  QCheck2.Test.make ~name:"Monte-Carlo risk is keyed by (f, w) and permutes with the rows"
    ~count:200
    ~print:(fun (c, _) -> print_encoded_case c)
    QCheck2.Gen.(
      pair
        (map (fun c -> { c with fractional = false }) (gen_encoded_case ~wide:false))
        (int_range 0 1_000_000))
    (fun (c, perm_seed) ->
      let md = encoded_case_md c in
      let report = S.Risk.estimate monte_carlo md in
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun i r ->
          let key = (report.freq.(i), Int64.bits_of_float report.weight_sum.(i)) in
          match Hashtbl.find_opt seen key with
          | Some r' when not (Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float r')) ->
            QCheck2.Test.fail_reportf "tuple %d: risk differs from an earlier tuple's" i
          | Some _ -> ()
          | None -> Hashtbl.add seen key r)
        report.risk;
      let rel = S.Microdata.relation md in
      let perm = Array.init c.n Fun.id in
      let st = Random.State.make [| perm_seed |] in
      for i = c.n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let permuted =
        S.Microdata.with_relation md
          (R.Relation.of_tuples (R.Relation.schema rel)
             (Array.to_list (Array.map (R.Relation.get rel) perm)))
      in
      let report' = S.Risk.estimate monte_carlo permuted in
      let moved a = Array.map (fun k -> a.(k)) perm in
      if report'.freq <> moved report.freq then QCheck2.Test.fail_report "freq not permuted";
      if not (float_bits_equal report'.weight_sum (moved report.weight_sum)) then
        QCheck2.Test.fail_report "weight_sum not permuted";
      if not (float_bits_equal report'.risk (moved report.risk)) then
        QCheck2.Test.fail_report "risk not permuted";
      true)

(* Keyed sampling against the closed form it simulates, over the whole
   Figure 6 suite at the Figure 7e settings. *)
let test_monte_carlo_agrees_with_bf () =
  List.iter
    (fun entry ->
      let md = D.Suite.load_entry ~scale:0.05 entry in
      let global estimator = S.Risk.global_risk (S.Risk.estimate (S.Risk.Individual estimator) md) in
      let mc = global (S.Risk.Monte_carlo { samples = 200; seed = 3 }) in
      let bf = global S.Risk.Benedetti_franconi in
      let rel_diff = Float.abs (mc -. bf) /. bf in
      if rel_diff > 0.03 then
        Alcotest.failf "%s: Monte Carlo %.3f vs Benedetti-Franconi %.3f (%.2f%%)"
          entry.D.Suite.dataset mc bf (100.0 *. rel_diff))
    D.Suite.figure6

(* Values that render alike but differ under Value.equal: Int 1 vs Str "1"
   and 0.3 vs 0.30000000000000004. Each tuple is unique on the pair of
   attributes and on nothing smaller; the string-keyed reference saw one
   combination shared by all four. *)
let test_suda_lookalike_values () =
  let rel =
    R.Relation.of_tuples
      (R.Schema.of_names ~name:"t" [ "x"; "y" ])
      [
        [| Value.Int 1; Value.Float 0.3 |];
        [| Value.Str "1"; Value.Float 0.3 |];
        [| Value.Int 1; Value.Float 0.30000000000000004 |];
        [| Value.Str "1"; Value.Float 0.30000000000000004 |];
      ]
  in
  let md =
    S.Microdata.make rel
      [ ("x", S.Microdata.Quasi_identifier); ("y", S.Microdata.Quasi_identifier) ]
  in
  Array.iteri
    (fun i t ->
      Alcotest.(check (list (array int)))
        (Printf.sprintf "tuple %d" i)
        [ [| 0; 1 |] ] t.S.Risk_suda.msus)
    (S.Risk_suda.find_msus md);
  Alcotest.(check (list (array int))) "string keys merged them" []
    (String_keyed.find_msus md).(0)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sdc"
    [
      ( "microdata",
        [
          Alcotest.test_case "positions" `Quick test_microdata_positions;
          Alcotest.test_case "validation" `Quick test_microdata_validation;
          Alcotest.test_case "drop identifiers" `Quick test_drop_identifiers;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "register and facts" `Quick test_dictionary;
          Alcotest.test_case "categories_for" `Quick test_dictionary_categories_for;
        ] );
      ( "categorize",
        [
          Alcotest.test_case "I&G schema" `Quick test_categorize_ig_schema;
          Alcotest.test_case "feedback recursion" `Quick
            test_categorize_feedback_recursion;
          Alcotest.test_case "unresolved" `Quick test_categorize_unresolved;
          Alcotest.test_case "end to end" `Quick test_categorize_microdata_end_to_end;
          Alcotest.test_case "engine agrees" `Quick test_categorize_engine_agrees;
        ] );
      ( "risk",
        [
          Alcotest.test_case "figure 1 re-identification" `Quick
            test_figure1_reidentification_risks;
          Alcotest.test_case "figure 1 k-anonymity" `Quick test_figure1_k_anonymity;
          Alcotest.test_case "figure 5 k-anonymity" `Quick test_figure5_k_anonymity;
          Alcotest.test_case "individual risk bounds" `Quick
            test_individual_risk_ordering;
          Alcotest.test_case "SUDA tuple 20 MSUs" `Quick test_suda_figure1_tuple20;
          Alcotest.test_case "SUDA minimality" `Quick test_suda_minimality;
          Alcotest.test_case "SUDA thresholds" `Quick test_suda_risk_thresholds;
          Alcotest.test_case "SUDA DIS scores" `Quick test_suda_dis_scores;
          Alcotest.test_case "report rendering" `Quick test_risk_report_rendering;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "basics" `Quick test_suppress_basics;
          Alcotest.test_case "figure 5 effect" `Quick test_figure5_suppression_effect;
        ] );
      ( "recoding",
        [
          Alcotest.test_case "hierarchy basics" `Quick test_hierarchy_basics;
          Alcotest.test_case "figure 5 global recoding" `Quick
            test_global_recoding_figure5;
          Alcotest.test_case "full attribute recoding" `Quick test_recode_attr_fully;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "most risky qi" `Quick test_most_risky_qi_figure5;
          Alcotest.test_case "less significant first" `Quick
            test_tuple_order_less_significant;
          Alcotest.test_case "most risky first" `Quick test_tuple_order_most_risky;
        ] );
      ( "cycle",
        [
          Alcotest.test_case "figure 5 converges" `Quick test_cycle_figure5_converges;
          Alcotest.test_case "sector suppressed first" `Quick
            test_cycle_first_suppression_is_sector;
          Alcotest.test_case "k monotone" `Quick test_cycle_k_monotone;
          Alcotest.test_case "standard semantics proliferates" `Quick
            test_cycle_standard_semantics_leaves_unresolved;
          Alcotest.test_case "with recoding" `Quick test_cycle_with_recoding;
          Alcotest.test_case "re-identification measure" `Quick
            test_cycle_reidentification_measure;
          Alcotest.test_case "per-round limit" `Quick test_cycle_per_round_limit;
        ] );
      ( "audit",
        [
          Alcotest.test_case "one event per round" `Quick
            test_audit_one_event_per_round;
          Alcotest.test_case "post-state patched" `Quick
            test_audit_post_state_patched;
          Alcotest.test_case "jsonl round-trips" `Quick
            test_audit_jsonl_round_trips;
        ] );
      ( "info loss",
        [
          Alcotest.test_case "metrics" `Quick test_info_loss_metrics;
          Alcotest.test_case "generalization" `Quick test_generalization_loss;
        ] );
      ( "business",
        [
          Alcotest.test_case "direct and transitive" `Quick
            test_control_direct_and_transitive;
          Alcotest.test_case "joint control" `Quick test_control_joint;
          Alcotest.test_case "engine agrees" `Quick test_control_engine_agrees;
          Alcotest.test_case "clusters and propagation" `Quick
            test_clusters_and_propagation;
          Alcotest.test_case "enhanced cycle" `Quick
            test_enhanced_cycle_injects_more_nulls;
        ] );
      ( "explain",
        [
          Alcotest.test_case "action" `Quick test_explain_action;
          Alcotest.test_case "trace and summary" `Quick test_explain_trace_and_summary;
        ] );
      ( "reasoned path",
        [
          Alcotest.test_case "k-anonymity" `Quick test_engine_k_anonymity_agrees;
          Alcotest.test_case "re-identification" `Quick
            test_engine_reidentification_agrees;
          Alcotest.test_case "individual" `Quick test_engine_individual_agrees;
          Alcotest.test_case "SUDA" `Quick test_engine_suda_agrees;
          Alcotest.test_case "maybe-match k-anonymity" `Quick
            test_maybe_k_anonymity_program;
          Alcotest.test_case "risk explanation" `Quick test_engine_risk_explanation;
          Alcotest.test_case "enhanced risk (Algorithm 9)" `Quick
            test_enhanced_risk_via_engine;
          Alcotest.test_case "reasoned cycle" `Quick test_reasoned_cycle;
          Alcotest.test_case "Monte Carlo unsupported" `Quick
            test_monte_carlo_unsupported_on_engine;
        ] );
      ( "declarative programs",
        [
          Alcotest.test_case "suppression on engine" `Quick
            test_suppression_program_on_engine;
          Alcotest.test_case "suppression null guard" `Quick
            test_suppression_program_null_guard;
          Alcotest.test_case "recoding on engine" `Quick
            test_recoding_program_on_engine;
        ] );
      ( "cycle behaviours",
        [
          Alcotest.test_case "null-sharing ablation" `Quick test_share_nulls_ablation;
          Alcotest.test_case "individual measure" `Quick
            test_cycle_individual_measure_converges;
          Alcotest.test_case "SUDA measure" `Quick test_cycle_suda_measure_converges;
          Alcotest.test_case "max rounds" `Quick test_cycle_max_rounds_respected;
          Alcotest.test_case "custom measure" `Quick test_custom_measure;
        ] );
      ( "datafly baseline",
        [
          Alcotest.test_case "reaches k-anonymity" `Quick
            test_datafly_reaches_k_anonymity;
          Alcotest.test_case "figure 5" `Quick test_datafly_figure5;
          Alcotest.test_case "utility vs cycle" `Quick test_datafly_vs_cycle_utility;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "hierarchy cycle guard" `Quick test_hierarchy_chain_guard;
          Alcotest.test_case "hierarchy missing entries" `Quick
            test_hierarchy_missing_parent;
          Alcotest.test_case "dictionary errors" `Quick test_dictionary_errors;
          Alcotest.test_case "business empty/self graphs" `Quick
            test_business_empty_and_self;
          Alcotest.test_case "risk explanation wording" `Quick
            test_explain_tuple_risk_wording;
          Alcotest.test_case "SUDA DIS ordering" `Quick test_suda_dis_ordering;
        ] );
      ( "encoded keys",
        Alcotest.test_case "SUDA look-alike values" `Quick test_suda_lookalike_values
        :: qcheck
             [
               prop_encoded_matches_reference;
               prop_encoded_matches_reference_wide;
               prop_step3_matches_pairwise;
             ] );
      ( "monte carlo",
        Alcotest.test_case "agrees with Benedetti-Franconi on Figure 6" `Slow
          test_monte_carlo_agrees_with_bf
        :: qcheck [ prop_monte_carlo_keyed ] );
      ( "properties",
        qcheck
          [
            prop_engine_matches_native_k_anonymity;
            prop_cycle_reaches_k_anonymity;
            prop_suppression_only_adds_nulls;
            prop_risk_decreases_after_cycle;
            prop_engine_executor_matches_native;
            prop_control_closure_engine_native;
          ] );
    ]
