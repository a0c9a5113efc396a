(* Risk-report bodies pinned byte for byte. The CLI's [risk --json],
   [POST /v1/risk], the maintained [GET /v1/datasets/{id}/risk] and the
   jobs runner all print through one writer, so comparing them with
   each other cannot catch a change of format: the golden file can.
   Regenerate (only on purpose) with:
     REPORT_GOLDEN_WRITE=test/golden_risk_report.txt \
       dune exec test/test_report.exe -- test golden *)

module Srv = Vadasa_server
module Json = Vadasa_base.Json
module E = Vadasa_base.Error
module Value = Vadasa_base.Value
module R = Vadasa_relational
module S = Vadasa_sdc
module V = Vadasa_vadalog
module D = Vadasa_datagen

open E2e

(* --- golden bodies --------------------------------------------------------- *)

let renamed name md =
  let rel = S.Microdata.relation md in
  let schema =
    R.Schema.make ~name
      (Array.to_list (R.Schema.attributes (R.Relation.schema rel)))
  in
  S.Microdata.make
    (R.Relation.of_tuples schema (R.Relation.to_list rel))
    (S.Microdata.categories md)

let empty_microdata () =
  let schema = R.Schema.of_names ~name:"empty" [ "area"; "sector" ] in
  S.Microdata.make (R.Relation.create schema)
    [ ("area", S.Microdata.Quasi_identifier); ("sector", S.Microdata.Quasi_identifier) ]

let individual_options =
  { Srv.Codec.default_options with Srv.Codec.measure = "individual" }

(* A registered slice of the Figure 6 data grown by four deltas; the
   maintained body is taken after the second and the fourth, the last
   one also under an overridden threshold. *)
let maintained_bodies () =
  let csv = Lazy.force figure6_csv in
  let reg = Srv.Registry.create () in
  let base = csv_slice csv 0 60 in
  let measure =
    match Srv.Codec.measure_of_options individual_options with
    | Ok m -> m
    | Error e -> Alcotest.failf "measure: %s" (E.to_string e)
  in
  let entry =
    (Srv.Registry.put reg ~id:"golden" ~digest:base ~bytes:(String.length base)
       ~options:individual_options ~measure
       ~semantics:R.Null_semantics.Maybe_match ~compiled:None (md_of_csv base))
      .Srv.Registry.entry
  in
  let append lo hi =
    ignore (Srv.Registry.append reg entry ~csv:(csv_slice csv lo hi))
  in
  let render threshold = Srv.Registry.risk_report_string ~threshold entry in
  append 60 70;
  append 70 80;
  let after_two = render 0.5 in
  append 80 90;
  ignore (render 0.5);
  append 90 100;
  [
    ("maintained, two appends", after_two);
    ("maintained, four appends", render 0.5);
    ("maintained, four appends, threshold=0.1", render 0.1);
  ]

let golden_cases () =
  let fig1 = D.Ig_survey.figure1 () in
  let report measure md = S.Risk.estimate measure md in
  let cold ~threshold measure md =
    Srv.Codec.risk_report_string ~threshold md (report measure md)
  in
  let fig6 = md_of_csv (csv_slice (Lazy.force figure6_csv) 0 80) in
  let interrupt =
    {
      V.Engine.reason = Vadasa_base.Budget.Deadline;
      stratum = 2;
      iteration = 3;
      facts_derived = 41;
    }
  in
  [
    ("figure 1, re-identification", cold ~threshold:0.5 S.Risk.Re_identification fig1);
    ( "figure 1, individual (Benedetti-Franconi), threshold=0.05",
      cold ~threshold:0.05 (S.Risk.Individual S.Risk.Benedetti_franconi) fig1 );
    ("figure 6 slice, k-anonymity", cold ~threshold:0.5 (S.Risk.K_anonymity { k = 2 }) fig6);
  ]
  @ maintained_bodies ()
  @ [
      ( "degraded, figure 1",
        Srv.Codec.risk_report_string ~interrupt ~threshold:0.5 fig1
          (report S.Risk.Re_identification fig1) );
      ("empty", cold ~threshold:0.5 (S.Risk.K_anonymity { k = 2 }) (empty_microdata ()));
      ( "escaped dataset name",
        cold ~threshold:0.5 S.Risk.Re_identification
          (renamed "fig \"1\"\\ \n\t\001 caf\xc3\xa9" fig1) );
    ]

let test_golden () =
  let rendered =
    String.concat ""
      (List.map (fun (label, body) -> "### " ^ label ^ "\n" ^ body) (golden_cases ()))
  in
  (match Sys.getenv_opt "REPORT_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc rendered;
    close_out oc
  | None -> ());
  let golden =
    (* dune runtest runs in _build/default/test; dune exec from the root *)
    let path =
      if Sys.file_exists "golden_risk_report.txt" then "golden_risk_report.txt"
      else Filename.concat "test" "golden_risk_report.txt"
    in
    In_channel.with_open_bin path In_channel.input_all
  in
  if not (String.equal rendered golden) then begin
    let a = String.split_on_char '\n' rendered
    and b = String.split_on_char '\n' golden in
    let rec first_diff i = function
      | x :: xs, y :: ys -> if String.equal x y then first_diff (i + 1) (xs, ys) else i
      | _ -> i
    in
    let line = first_diff 1 (a, b) in
    Alcotest.failf "risk reports drifted from golden file at line %d: %S vs %S"
      line
      (Option.value ~default:"<eof>" (List.nth_opt a (line - 1)))
      (Option.value ~default:"<eof>" (List.nth_opt b (line - 1)))
  end

(* --- the writer against the Json.t tree it replaced ------------------------ *)

(* The report object as it used to be built, printed by
   [Json.to_string ~indent:true]: the oracle the writer must equal. *)
let tree_rendering ?interrupt ~threshold md (report : S.Risk.report) =
  let floats a = Json.List (Array.to_list (Array.map (fun f -> Json.Float f) a)) in
  let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a)) in
  let risky = S.Risk.risky report ~threshold in
  let degraded =
    match interrupt with
    | None -> []
    | Some i ->
      [ ("degraded", Json.Bool true); ("partial", Srv.Codec.interrupt_json i) ]
  in
  Json.to_string ~indent:true
    (Json.Obj
       ([
          ("dataset", Json.Str (S.Microdata.name md));
          ("tuples", Json.Int (S.Microdata.cardinal md));
          ("measure", Json.Str (S.Risk.measure_to_string report.S.Risk.measure));
          ("threshold", Json.Float threshold);
          ("global_risk", Json.Float (S.Risk.global_risk report));
          ("risky_count", Json.Int (List.length risky));
          ("risky", Json.List (List.map (fun i -> Json.Int i) risky));
          ("risk", floats report.S.Risk.risk);
          ("freq", ints report.S.Risk.freq);
          ("weight_sum", floats report.S.Risk.weight_sum);
        ]
       @ degraded))
  ^ "\n"

(* Floats whose text is easy to get wrong: signed zeros, nan (two
   payloads) and the infinities, integral values on both sides of the
   1e12 switch and around 2^53, subnormals, and values that need
   [%.17g] to read back. *)
let edge_floats =
  [
    0.; -0.; Float.nan; Int64.float_of_bits 0xfff0000000000001L; Float.infinity;
    Float.neg_infinity; 1.; -1.; 0.5; 1e12; 1e12 -. 1.; -.(1e12 -. 1.); 1e12 +. 1.;
    999999999999.5; 9007199254740992.; 9007199254740994.; -9007199254740992.;
    5e-324; 2.2250738585072009e-308; 1e-310; Float.min_float; Float.max_float;
    0.1; 1. /. 3.; 2. /. 3.; 0.1 +. 0.2; 100. /. 7.; 1e15; 123456789012345.67;
  ]

let gen_float =
  QCheck2.Gen.(
    frequency
      [
        (4, oneofl edge_floats);
        (2, float);
        (1, map Int64.float_of_bits int64);
        ( 2,
          map
            (fun (a, b) -> float_of_int a /. float_of_int (b + 1))
            (pair (int_bound 1000) (int_bound 1000)) );
      ])

(* Every byte, control characters and UTF-8 included. *)
let gen_name = QCheck2.Gen.(string_size ~gen:char (int_bound 8))

let gen_measure =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            S.Risk.Re_identification;
            S.Risk.K_anonymity { k = 2 };
            S.Risk.Individual S.Risk.Benedetti_franconi;
            S.Risk.Suda { max_msu_size = 3; threshold_size = 3 };
          ];
        map
          (fun name -> S.Risk.Custom { name; score = (fun ~freq:_ ~weight_sum:_ -> 0.) })
          gen_name;
      ])

let gen_interrupt =
  QCheck2.Gen.(
    map
      (fun (reason, stratum, iteration, facts_derived) ->
        { V.Engine.reason; stratum; iteration; facts_derived })
      (quad
         (oneofl Vadasa_base.Budget.[ Cancelled; Deadline; Fact_ceiling ])
         (int_bound 5) (int_bound 50) (int_bound 100_000)))

let gen_report n =
  QCheck2.Gen.(
    map
      (fun (measure, risk, freq, weight_sum) -> { S.Risk.measure; risk; freq; weight_sum })
      (quad gen_measure (array_size (return n) gen_float)
         (array_size (return n) (int_bound 1000))
         (array_size (return n) gen_float)))

(* A one-column relation of [n] rows: the writer reads only the name and
   the row count of the microdata. *)
let microdata name n =
  let schema = R.Schema.of_names ~name [ "q" ] in
  S.Microdata.make
    (R.Relation.of_tuples schema (List.init n (fun i -> [| Value.Int i |])))
    [ ("q", S.Microdata.Quasi_identifier) ]

let print_report (r : S.Risk.report) =
  let floats a = String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Printf.sprintf "{measure=%S; risk=[%s]; freq=[%s]; weight_sum=[%s]}"
    (S.Risk.measure_to_string r.S.Risk.measure) (floats r.S.Risk.risk)
    (String.concat "; " (Array.to_list (Array.map string_of_int r.S.Risk.freq)))
    (floats r.S.Risk.weight_sum)

let prop_writer_equals_tree =
  QCheck2.Test.make ~name:"writer = Json.to_string of the report tree" ~count:500
    ~print:(fun (name, threshold, report, interrupt) ->
      Printf.sprintf "name=%S threshold=%h interrupt=%b %s" name threshold
        (Option.is_some interrupt) (print_report report))
    QCheck2.Gen.(
      quad gen_name gen_float (bind (int_bound 30) gen_report) (opt gen_interrupt))
    (fun (name, threshold, report, interrupt) ->
      let md = microdata name (Array.length report.S.Risk.risk) in
      String.equal
        (tree_rendering ?interrupt ~threshold md report)
        (Srv.Codec.risk_report_string ?interrupt ~threshold md report))

(* A maintained report between two renders: each row keeps its bits or
   takes a new float, rows are appended and now and then a few dropped.
   An appended row may take back the bits a dropped row had at its
   index ([stale]): past the filled prefix it must still be formatted. *)
let gen_successor ~(stale : S.Risk.report) (report : S.Risk.report) =
  let n = Array.length report.S.Risk.risk in
  QCheck2.Gen.(
    bind (int_range (max 0 (n - 2)) (n + 8)) (fun n' ->
        let column old stale =
          map
            (Array.mapi (fun i (keep, f) ->
                 if keep && i < n then old.(i)
                 else if keep && i < Array.length stale then stale.(i)
                 else f))
            (array_size (return n')
               (pair (frequency [ (2, return true); (1, return false) ]) gen_float))
        in
        map
          (fun (risk, freq, weight_sum) -> { report with S.Risk.risk; freq; weight_sum })
          (triple
             (column report.S.Risk.risk stale.S.Risk.risk)
             (array_size (return n') (int_bound 1000))
             (column report.S.Risk.weight_sum stale.S.Risk.weight_sum))))

let changed_rows before after =
  let n = Array.length before in
  let count = ref 0 in
  Array.iteri
    (fun i f ->
      if i >= n || Int64.bits_of_float before.(i) <> Int64.bits_of_float f then
        incr count)
    after;
  !count

(* Three renders through one [Report_text]; after each, the body equals
   the oracle and the formatted count is exactly the changed and new
   rows' floats plus threshold and global risk. *)
let prop_text_columns =
  QCheck2.Test.make ~name:"text columns: reused bits blit, changed rows reformat"
    ~count:500
    ~print:(fun (thresholds, (r1, r2, r3)) ->
      Printf.sprintf "thresholds %s\n%s\n%s\n%s"
        (String.concat ", " (List.map (Printf.sprintf "%h") thresholds))
        (print_report r1) (print_report r2) (print_report r3))
    QCheck2.Gen.(
      pair (list_size (return 3) gen_float)
        (bind (int_bound 20) (fun n ->
             bind (gen_report n) (fun r1 ->
                 bind (gen_successor ~stale:r1 r1) (fun r2 ->
                     map (fun r3 -> (r1, r2, r3)) (gen_successor ~stale:r1 r2))))))
    (fun (thresholds, (r1, r2, r3)) ->
      let text = Srv.Codec.Report_text.create () in
      let render threshold previous (r : S.Risk.report) =
        let md = microdata "maintained" (Array.length r.S.Risk.risk) in
        let body = Srv.Codec.risk_report_string ~text ~threshold md r in
        if not (String.equal body (tree_rendering ~threshold md r)) then
          QCheck2.Test.fail_reportf "body differs from the tree rendering:\n%s" body;
        let expected =
          2
          + changed_rows previous.S.Risk.risk r.S.Risk.risk
          + changed_rows previous.S.Risk.weight_sum r.S.Risk.weight_sum
        in
        let formatted = Srv.Codec.Report_text.formatted text in
        if formatted <> expected then
          QCheck2.Test.fail_reportf "formatted %d floats, expected %d" formatted
            expected
      in
      let empty = { r1 with S.Risk.risk = [||]; freq = [||]; weight_sum = [||] } in
      List.iter2
        (fun threshold (previous, r) -> render threshold previous r)
        thresholds
        [ (empty, r1); (r1, r2); (r2, r3) ];
      true)

let () =
  Alcotest.run "report"
    [
      ("golden", [ Alcotest.test_case "risk report bodies" `Quick test_golden ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_writer_equals_tree; prop_text_columns ]
      );
    ]
