(* The reasoning engine on its own (paper, Section 3).

     dune exec examples/reasoning_demo.exe

   Shows the Vadalog substrate directly: parsing, wardedness analysis,
   the chase with labelled nulls, monotonic aggregation, and provenance —
   then the full reasoned anonymization path of Section 4 where both the
   risk measure and the suppression step execute as Vadalog programs. *)

module Value = Vadasa_base.Value
module S = Vadasa_sdc
module D = Vadasa_datagen
module V = Vadasa_vadalog

let () =
  (* A warded program with existentials and recursion: every employee has
     some manager (an invented null unless known), and reporting lines are
     the transitive closure. *)
  let source =
    {|
      @label("has_manager").
      manager(E, M) :- employee(E).
      @label("reporting_base").
      reports_to(E, M) :- manager(E, M).
      @label("reporting_step").
      reports_to(E, M2) :- reports_to(E, M), manager(M, M2).
      @label("team_size").
      team(M, N) :- reports_to(E, M), N = mcount(<E>).

      employee(ada). employee(grace). employee(alan).
      manager(ada, grace).
      @output("reports_to").
      @output("team").
    |}
  in
  let program = V.Parser.parse source in
  Format.printf "wardedness analysis:@.%a@." V.Wardedness.pp_report
    (V.Wardedness.analyze program);

  let config = { V.Engine.default_config with V.Engine.max_iterations = 50 } in
  let engine = V.Engine.create ~config program in
  V.Engine.run engine;
  Format.printf "reports_to facts (labelled nulls are invented managers):@.";
  List.iter
    (fun fact ->
      Format.printf "  reports_to(%s, %s)@."
        (Value.to_string fact.(0))
        (Value.to_string fact.(1)))
    (V.Engine.facts engine "reports_to");
  Format.printf "invented nulls: %d@.@." (V.Engine.nulls_created engine);

  (* Provenance: why does ada transitively report to grace's manager? *)
  (match V.Engine.facts engine "reports_to" with
  | fact :: _ ->
    (match V.Engine.explain engine "reports_to" fact with
    | Some tree ->
      Format.printf "explanation of the first fact:@.%s@."
        (V.Provenance.to_string tree)
    | None -> ())
  | [] -> ());

  (* The reasoned anonymization path: the cycle's k-anonymity risk
     (Algorithm 4) and local suppression (Algorithm 7) both run on the
     engine, alternating until the Figure 5 microdata is 2-anonymous. *)
  let md = D.Ig_survey.figure5 () in
  Format.printf "reasoned anonymization of the Figure 5 microdata:@.";
  Format.printf "%s@." (S.Vadalog_bridge.k_anonymity_maybe_program ~k:2);
  let outcome = S.Cycle.run ~executor:S.Vadalog_bridge.executor md in
  Format.printf "engine-driven %a@." S.Cycle.pp_outcome outcome;
  Format.printf "anonymized relation:@.%a@." Vadasa_relational.Relation.pp
    (S.Microdata.relation outcome.S.Cycle.anonymized);

  (* Risk provenance straight from the engine. *)
  match
    S.Vadalog_bridge.explain_risk (S.Risk.K_anonymity { k = 2 }) md ~tuple:0
  with
  | Some text -> Format.printf "why tuple 0 was risky:@.%s@." text
  | None -> ()
