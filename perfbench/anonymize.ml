(* anonymize-suite: the compiled path, in one process, single-threaded.
   One op takes a generated Figure 6-family dataset through the Figure 7e
   protocol: CSV text -> read -> categorize -> the three Figure 7e risk
   estimates -> the anonymization cycle -> CSV text. *)

module S = Vadasa_sdc
module R = Vadasa_relational
module D = Vadasa_datagen
module T = Vadasa_telemetry.Telemetry
open Common

type input = { name : string; csv : string }

(* The three techniques Figure 7e times, with the settings bench/main.ml
   uses for that figure. *)
let risk_measures =
  [
    ("sdc.risk.kanon_ms", S.Risk.K_anonymity { k = 2 });
    ("sdc.risk.suda_ms", S.Risk.Suda { max_msu_size = 3; threshold_size = 3 });
    ( "sdc.risk.individual_ms",
      S.Risk.Individual (S.Risk.Monte_carlo { samples = 200; seed = 3 }) );
  ]

(* Every (distribution, QI count) pair, W/U/V x 4..9 QIs, appears once
   per size stratum, so each seed draws the same mix of shapes and sizes.
   Sizes shrink as the QI count grows (SUDA's cost grows with it), so
   every shape spans a similar range of op costs and no percentile falls
   in the sparse tail of one expensive shape. *)
let distributions = [| D.Generator.W; D.Generator.U; D.Generator.V |]
let shapes = Array.length distributions * 6
let max_tuples qi_count = 4000 / qi_count
let min_tuples qi_count = max_tuples qi_count / 8

let generate ~seed ~distinct =
  let strata = distinct / shapes in
  Array.init distinct (fun j ->
      let shape = j mod shapes in
      let rng = rng_for ~seed j in
      let qi_count = 4 + (shape / Array.length distributions) in
      let tuples =
        stratified rng ~lo:(min_tuples qi_count) ~hi:(max_tuples qi_count)
          ~stratum:(j / shapes) ~strata
      in
      let spec =
        {
          D.Generator.name = Printf.sprintf "a%03d" j;
          tuples;
          qi_count;
          distribution = distributions.(shape mod Array.length distributions);
          seed = Rng.int rng 0x3FFFFFFF;
        }
      in
      let md = D.Generator.generate spec in
      { name = spec.name; csv = R.Csv.write_string (S.Microdata.relation md) })

type op_out = {
  outcome : S.Cycle.outcome;
  csv_out : string;
  reports : S.Risk.report list;
  cardinal : int;
}

let run_op layers input =
  let span name f =
    match layers with None -> f () | Some l -> Layers.span l name f
  in
  let rel =
    span "relational.csv_read_ms" (fun () -> R.Csv.read_string ~name:input.name input.csv)
  in
  match span "sdc.categorize_ms" (fun () -> S.Categorize.categorize_microdata rel) with
  | Error e -> failwith ("categorize: " ^ e)
  | Ok md ->
    let reports =
      List.map
        (fun (name, measure) -> span name (fun () -> S.Risk.estimate measure md))
        risk_measures
    in
    let outcome = span "sdc.cycle_ms" (fun () -> S.Cycle.run md) in
    let csv_out =
      span "relational.csv_write_ms" (fun () ->
          R.Csv.write_string (S.Microdata.relation outcome.S.Cycle.anonymized))
    in
    { outcome; csv_out; reports; cardinal = S.Microdata.cardinal md }

(* Untimed output checks: every tuple of the output is at or below T
   unless the cycle lists it unresolved; every risk lies in [0, 1]; the
   same input always yields the same output bytes. *)
let check digests j _input out =
  let cfg = S.Cycle.default_config in
  let o = out.outcome in
  let final =
    S.Risk.estimate ~semantics:cfg.S.Cycle.semantics cfg.S.Cycle.measure
      o.S.Cycle.anonymized
  in
  let over = ref [] in
  Array.iteri
    (fun i r ->
      if r > cfg.S.Cycle.threshold && not (List.mem i o.S.Cycle.unresolved) then
        over := i :: !over)
    final.S.Risk.risk;
  let digest = Digest.string out.csv_out in
  let problems =
    List.concat
      [
        (if o.S.Cycle.interrupted <> None then [ "cycle interrupted" ] else []);
        (if !over <> [] then
           [ Printf.sprintf "%d tuples above T and not unresolved" (List.length !over) ]
         else []);
        (if
           List.exists
             (fun rep ->
               Array.length rep.S.Risk.risk <> out.cardinal
               || Array.exists (fun r -> not (r >= 0.0 && r <= 1.0)) rep.S.Risk.risk)
             out.reports
         then [ "risk outside [0,1]" ]
         else []);
        (match Hashtbl.find_opt digests j with
        | Some d when d <> digest -> [ "output digest differs from an earlier op" ]
        | Some _ -> []
        | None ->
          Hashtbl.add digests j digest;
          []);
      ]
  in
  match problems with [] -> Ok () | p -> Error (String.concat "; " p)

(* Existing library instrumentation, read after each traced op. *)
let internal_spans =
  [
    ("sdc.cycle.risk", "sdc.cycle.risk_ms");
    ("sdc.cycle.actions", "sdc.cycle.actions_ms");
    ("sdc.risk.group_stats", "sdc.risk.group_stats_ms");
  ]

let observe totals out report =
  let o = out.outcome in
  Layers.add totals "sdc.cycle.rounds" (float_of_int o.S.Cycle.rounds);
  Layers.add totals "nulls" (float_of_int o.S.Cycle.nulls_injected);
  Layers.add totals "risky" (float_of_int o.S.Cycle.risky_initial);
  List.iter
    (fun agg ->
      let path = agg.T.Report.agg_path in
      let leaf =
        match String.rindex_opt path '/' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      Option.iter
        (fun metric -> Layers.add totals metric (agg.T.Report.agg_total *. 1000.0))
        (List.assoc_opt leaf internal_spans))
    report.T.Report.spans;
  Option.iter
    (fun n -> Layers.add totals "sdc.risk.estimates" (float_of_int n))
    (List.assoc_opt "sdc.risk.estimates" report.T.Report.counters);
  Option.iter
    (fun h -> Layers.add totals "sdc.risk.tuples_scored" h.T.Histogram.sum)
    (List.assoc_opt "sdc.risk.tuples" report.T.Report.histograms)

let layer_metrics ~ops totals =
  let g = Layers.get totals in
  List.map
    (fun name -> (name, g name /. float_of_int ops))
    [
      "relational.csv_read_ms"; "relational.csv_write_ms"; "sdc.categorize_ms";
      "sdc.risk.kanon_ms"; "sdc.risk.suda_ms"; "sdc.risk.individual_ms"; "sdc.cycle_ms";
      "sdc.cycle.risk_ms"; "sdc.cycle.actions_ms"; "sdc.risk.group_stats_ms";
      "sdc.cycle.rounds"; "sdc.risk.estimates"; "sdc.risk.tuples_scored";
    ]
  @ [ ("sdc.cycle.nulls_per_risky_tuple", g "nulls" /. Float.max 1.0 (g "risky")) ]

let workload digests =
  {
    Inproc.name = "anonymize-suite";
    shapes;
    ops_per_second = 24.0;
    generate;
    input_name = (fun input -> input.name);
    run_op;
    check = check digests;
    observe;
    layer_metrics;
  }

let run ~seed ~seconds ~trace = Inproc.run (workload (Hashtbl.create 64)) ~seed ~seconds ~trace
