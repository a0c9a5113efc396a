(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), plus Bechamel micro-benchmarks of the hot
   kernels.

   Usage:
     main.exe                  run everything at the default scale (10%)
     main.exe --full           paper-size datasets (slow)
     main.exe fig7a fig7e ...  selected experiments only
     main.exe micro            Bechamel kernels only
     main.exe render           maintained vs cold risk-report rendering
     main.exe snapshot         registry snapshot from kept CSV text vs a
                               re-render of every dataset
     main.exe --json-dir DIR   write BENCH_<figure>.json reports to DIR
                               (created if missing)
     main.exe --no-json        skip the JSON reports
     main.exe --metrics        also collect library telemetry (engine/SDC
                               counters); printed to stderr at the end
     main.exe --domains N      top of the domain sweep for the [scaling]
                               experiment: the parallel chase runs at
                               1, 2, 4, ... N domains and records
                               chase.<workload>.d<N> spans (default 1)

   Every figure is timed through telemetry spans on a dedicated registry
   and dumps a machine-readable BENCH_<figure>.json report (span
   durations per operation) next to the text output. These reports
   describe a run; the performance gate is perfbench's per-op counters
   (tools/benchgate), not this program. The [scaling] figure exits 1 when
   a parallel chase is not byte-identical to the sequential one, or when
   its top domain count runs much slower than one domain.

   Absolute numbers differ from the paper (different hardware, a fresh
   engine rather than the production Vadalog system); the shapes — who
   wins, what grows, where the curves sit relative to each other — are the
   reproduction target. Expected shapes are printed with each figure. *)

module Value = Vadasa_base.Value
module R = Vadasa_relational
module S = Vadasa_sdc
module D = Vadasa_datagen
module L = Vadasa_linkage
module T = Vadasa_telemetry.Telemetry
module V = Vadasa_vadalog

let scale = ref 0.1

(* Top of the domain sweep for the [scaling] experiment (--domains N):
   each workload runs at 1, 2, 4, ... up to N. *)
let max_domains = ref 1

let section title = Printf.printf "\n=== %s ===\n%!" title

let note fmt = Printf.printf ("  note: " ^^ fmt ^^ "\n%!")

(* The bench registry is explicit (never gated): figures always measure.
   Library-level telemetry on the global registry stays off unless
   --metrics is passed, so instrumentation cannot skew the figures. *)
let bench_registry = ref (T.create ())

let timed name f = T.Span.timed ~registry:!bench_registry name f

(* Histograms grafted onto the figure's JSON report at write time —
   the scaling figure records the engine's pool/chunk/merge metrics per
   (workload, domain count) under [chase.<wl>.d<N>.<metric>]. *)
let extra_histograms : (string * T.Histogram.summary) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Figure 1: the I&G microdata fragment and its re-identification
   risks (paper quotes tuples 15, 7 and 4). *)

let fig1 () =
  section "Figure 1 - I&G microdata and re-identification risk";
  let md = D.Ig_survey.figure1 () in
  Format.printf "%a" R.Relation.pp (S.Microdata.relation md);
  let report = S.Risk.estimate S.Risk.Re_identification md in
  Printf.printf "\n%-8s %-10s %-6s %s\n" "tuple" "risk" "freq" "weight sum";
  Array.iteri
    (fun i r ->
      Printf.printf "%-8d %-10.4f %-6d %.1f\n" (i + 1) r
        report.S.Risk.freq.(i)
        report.S.Risk.weight_sum.(i))
    report.S.Risk.risk;
  note "paper: tuple 15 riskiest (0.03), tuple 7 safest (0.003), tuple 4 = 0.016";
  Printf.printf "  measured: tuple 15 = %.3f, tuple 7 = %.3f, tuple 4 = %.3f\n"
    report.S.Risk.risk.(14) report.S.Risk.risk.(6) report.S.Risk.risk.(3)

(* ------------------------------------------------------------------ *)
(* Figure 4: metadata dictionary and inferred categories. *)

let fig4 () =
  section "Figure 4 - metadata dictionary and attribute categorization";
  let md = D.Ig_survey.figure1 () in
  let dict = S.Dictionary.create () in
  S.Dictionary.register_microdata dict md;
  Format.printf "%a" S.Dictionary.pp dict;
  let result, _ =
    S.Categorize.run ~experience:S.Categorize.builtin_experience
      (S.Microdata.schema md)
  in
  Printf.printf "\nAlgorithm 1 assignment (builtin experience base):\n";
  List.iter
    (fun a ->
      Printf.printf "  %-22s -> %-18s (matched %s, score %.2f)\n"
        a.S.Categorize.attr
        (S.Microdata.category_to_string a.S.Categorize.category)
        a.S.Categorize.matched a.S.Categorize.score)
    result.S.Categorize.assigned;
  List.iter
    (fun attr -> Printf.printf "  %-22s -> (unresolved: expert input)\n" attr)
    result.S.Categorize.unresolved

(* ------------------------------------------------------------------ *)
(* Figure 5: local suppression and global recoding worked example. *)

let freq_line md label =
  let stats = S.Risk.group_stats md in
  Printf.printf "  %-28s frequencies: %s\n" label
    (String.concat " "
       (Array.to_list (Array.map string_of_int stats.R.Algebra.Group_stats.freq)))

let fig5 () =
  section "Figure 5 - local suppression and global recoding";
  let md = S.Microdata.copy (D.Ig_survey.figure5 ()) in
  Format.printf "%a" R.Relation.pp (S.Microdata.relation md);
  freq_line md "before";
  let ids = Vadasa_base.Ids.create () in
  ignore (S.Suppression.suppress ids md ~tuple:0 ~attr:"sector");
  freq_line md "suppress t1.sector";
  note "paper: frequencies 1,2,2,2,2,1,1 become 5,3,3,3,3,1,1";
  let h = D.Ig_survey.figure5_hierarchy () in
  ignore (S.Recoding.recode_tuple h md ~tuple:5 ~attr:"area");
  ignore (S.Recoding.recode_tuple h md ~tuple:6 ~attr:"area");
  freq_line md "recode Milano/Torino->North";
  note "paper: tuples 6 and 7 collapse to frequency 2 after recoding";
  Format.printf "%a" R.Relation.pp (S.Microdata.relation md)

(* ------------------------------------------------------------------ *)
(* Figure 6: the dataset inventory. *)

let fig6 () =
  section "Figure 6 - datasets used in the experimental settings";
  Format.printf "%a" D.Suite.pp_table ();
  Printf.printf "  (generated at scale %.2f for the experiments below)\n" !scale

(* ------------------------------------------------------------------ *)
(* Figures 7a/7b: nulls injected and information loss by k-anonymity
   threshold, datasets R25A4W/U/V, T = 0.5, local suppression,
   less-significant-first. *)

type ab_row = {
  ds : string;
  k : int;
  nulls : int;
  loss : float;
  risky : int;
}

let fig7ab_rows : ab_row list option ref = ref None

let compute_fig7ab () =
  match !fig7ab_rows with
  | Some rows -> rows
  | None ->
    let rows =
      List.concat_map
        (fun ds ->
          let md = D.Suite.load ~scale:!scale ds in
          List.map
            (fun k ->
              let config =
                {
                  S.Cycle.default_config with
                  S.Cycle.measure = S.Risk.K_anonymity { k };
                }
              in
              let outcome = S.Cycle.run ~config md in
              {
                ds;
                k;
                nulls = outcome.S.Cycle.nulls_injected;
                loss = outcome.S.Cycle.info_loss;
                risky = outcome.S.Cycle.risky_initial;
              })
            [ 2; 3; 4; 5 ])
        [ "R25A4W"; "R25A4U"; "R25A4V" ]
    in
    fig7ab_rows := Some rows;
    rows

let fig7a () =
  section "Figure 7a - nulls injected by k-anonymity threshold";
  let rows = compute_fig7ab () in
  Printf.printf "%-10s %-4s %-14s %s\n" "dataset" "k" "risky tuples" "nulls injected";
  List.iter
    (fun r -> Printf.printf "%-10s %-4d %-14d %d\n" r.ds r.k r.risky r.nulls)
    rows;
  note "paper: nulls grow with k; W lowest (<50 at 25k, k=5), V highest"

let fig7b () =
  section "Figure 7b - information loss by k-anonymity threshold";
  let rows = compute_fig7ab () in
  Printf.printf "%-10s %-4s %s\n" "dataset" "k" "information loss";
  List.iter (fun r -> Printf.printf "%-10s %-4d %.3f\n" r.ds r.k r.loss) rows;
  note "paper: W/U flat 12-17%%; V higher (37%%) but dropping toward 13%% at low tolerance"

(* ------------------------------------------------------------------ *)
(* Figure 7c: maybe-match vs standard labelled-null semantics. *)

let fig7c () =
  section "Figure 7c - nulls injected, maybe-match vs standard semantics";
  Printf.printf "%-10s %-4s %-22s %s\n" "dataset" "k" "maybe-match nulls"
    "standard nulls";
  List.iter
    (fun ds ->
      let md = D.Suite.load ~scale:!scale ds in
      List.iter
        (fun k ->
          let run semantics =
            let config =
              {
                S.Cycle.default_config with
                S.Cycle.measure = S.Risk.K_anonymity { k };
                semantics;
                (* The standard semantics cannot converge; bound the work. *)
                max_rounds = 10;
              }
            in
            (S.Cycle.run ~config md).S.Cycle.nulls_injected
          in
          let maybe = run R.Null_semantics.Maybe_match in
          let standard = run R.Null_semantics.Standard in
          Printf.printf "%-10s %-4d %-22d %d\n" ds k maybe standard)
        [ 2; 3 ])
    [ "R25A4W"; "R25A4U"; "R25A4V" ];
  note "paper: standard semantics proliferates symbols (unusable); maybe-match minimal"

(* ------------------------------------------------------------------ *)
(* Figure 7d: nulls injected vs number of control relationships
   (enhanced anonymization cycle, k = 2). *)

let fig7d () =
  section "Figure 7d - nulls injected by number of control relationships";
  Printf.printf "%-10s %-18s %-18s %s\n" "dataset" "ownership edges"
    "inferred rels" "nulls injected";
  let edge_steps =
    List.map (fun e -> int_of_float (float_of_int e *. !scale)) [ 0; 100; 200; 300; 400 ]
  in
  List.iter
    (fun ds ->
      let md = D.Suite.load ~scale:!scale ds in
      (* Company groups preferentially involve the identifiable outliers —
         otherwise, on the nearly-safe W dataset, random clusters would
         never touch a risky tuple and nothing would propagate. *)
      let risky_ids =
        let report = S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md in
        let rel = S.Microdata.relation md in
        let pos = R.Schema.index_of (S.Microdata.schema md) "id" in
        List.map
          (fun i -> Value.to_string (R.Relation.get rel i).(pos))
          (S.Risk.risky report ~threshold:0.5)
      in
      List.iter
        (fun edges ->
          let rng = Vadasa_stats.Rng.create ~seed:17 in
          let ownerships =
            D.Ownership_gen.generate rng md ~id_attr:"id" ~edges
              ~seed_entities:risky_ids ()
          in
          let inferred = D.Ownership_gen.inferred_relationships ownerships in
          let config =
            {
              S.Cycle.default_config with
              S.Cycle.risk_transform =
                (if edges = 0 then None
                 else Some (S.Business.risk_transform ~id_attr:"id" ~ownerships));
            }
          in
          let outcome = S.Cycle.run ~config md in
          Printf.printf "%-10s %-18d %-18d %d\n" ds edges inferred
            outcome.S.Cycle.nulls_injected)
        edge_steps)
    [ "R25A4W"; "R25A4U"; "R25A4V" ];
  note "paper: nulls grow with relationships; effect strongest on the V dataset"

(* ------------------------------------------------------------------ *)
(* Figures 7e/7f: execution time by dataset size and by number of
   quasi-identifiers, for three risk-estimation techniques. *)

let techniques =
  [
    ("individual", S.Risk.Individual (S.Risk.Monte_carlo { samples = 200; seed = 3 }));
    ("k-anonymity", S.Risk.K_anonymity { k = 2 });
    ("SUDA", S.Risk.Suda { max_msu_size = 3; threshold_size = 3 });
  ]

let time_dataset ds md =
  List.map
    (fun (name, measure) ->
      let _, risk_time =
        timed (Printf.sprintf "risk.%s.%s" name ds) (fun () ->
            S.Risk.estimate measure md)
      in
      let config = { S.Cycle.default_config with S.Cycle.measure = measure } in
      let _, total_time =
        timed (Printf.sprintf "cycle.%s.%s" name ds) (fun () ->
            S.Cycle.run ~config md)
      in
      (name, risk_time, total_time))
    techniques

let print_timing_header () =
  Printf.printf "%-10s %-8s %-14s %-14s %s\n" "dataset" "tuples" "technique"
    "risk-only (s)" "full cycle (s)"

let print_timings ds md rows =
  List.iter
    (fun (name, risk_time, total_time) ->
      Printf.printf "%-10s %-8d %-14s %-14.3f %.3f\n" ds
        (S.Microdata.cardinal md) name risk_time total_time)
    rows

let fig7e () =
  section "Figure 7e - execution time by dataset size";
  print_timing_header ();
  List.iter
    (fun ds ->
      let md = D.Suite.load ~scale:!scale ds in
      print_timings ds md (time_dataset ds md))
    [ "R6A4U"; "R12A4U"; "R25A4U"; "R50A4U"; "R100A4U" ];
  note "paper: linear trends; k-anonymity cheapest; individual risk costly";
  note "(sampling library); SUDA in between; risk estimation dominates the cycle"

let fig7f () =
  section "Figure 7f - execution time by number of quasi-identifiers";
  print_timing_header ();
  List.iter
    (fun ds ->
      let md = D.Suite.load ~scale:!scale ds in
      print_timings ds md (time_dataset ds md))
    [ "R50A4W"; "R50A5W"; "R50A6W"; "R50A8W"; "R50A9W" ];
  note "paper: individual risk and k-anonymity flat in the QI count;";
  note "SUDA grows but without combinatorial blowup (greedy MSU pruning)"

(* ------------------------------------------------------------------ *)
(* Extension experiment: the record-linkage attack before and after
   anonymization (Section 2.2's validation story). *)

let attack () =
  section "Attack validation - re-identification before/after anonymization";
  Printf.printf "%-10s %-10s %-16s %-14s %s\n" "dataset" "phase" "expected hits"
    "mean cohort" "exact hits";
  List.iter
    (fun ds ->
      let md = D.Suite.load ~scale:(!scale /. 2.0) ds in
      let rng = Vadasa_stats.Rng.create ~seed:5 in
      let oracle = L.Oracle.from_microdata rng md () in
      let before = L.Attack.run oracle md in
      let outcome = S.Cycle.run md in
      let after = L.Attack.run oracle outcome.S.Cycle.anonymized in
      Printf.printf "%-10s %-10s %-16.1f %-14.1f %d\n" ds "before"
        before.L.Attack.expected_hits before.L.Attack.mean_block
        before.L.Attack.exact_hits;
      Printf.printf "%-10s %-10s %-16.1f %-14.1f %d\n" ds "after"
        after.L.Attack.expected_hits after.L.Attack.mean_block
        after.L.Attack.exact_hits)
    [ "R25A4U"; "R25A4V" ];
  note "expectation: anonymization grows blocking cohorts and depresses hits"

(* ------------------------------------------------------------------ *)
(* Baseline comparison: Vada-SA's cell-level anonymization cycle against
   the classic Datafly full-domain generalization (Sweeney 1997, cited in
   the paper's related work). *)

let baseline () =
  section "Baseline - Vada-SA cycle vs Datafly full-domain generalization";
  Printf.printf "%-10s %-10s %-10s %-14s %-14s %-12s %s\n" "dataset" "method"
    "k-anon?" "cells erased" "cells coarser" "supp. rate" "time (s)";
  List.iter
    (fun ds ->
      let md = D.Suite.load ~scale:!scale ds in
      let hierarchy = D.Generator.synthetic_hierarchy md in
      (* Vada-SA cycle (cell-level suppression). *)
      let outcome, cycle_time = timed ("cycle.vada-sa." ^ ds) (fun () -> S.Cycle.run md) in
      let cycle_md = outcome.S.Cycle.anonymized in
      Printf.printf "%-10s %-10s %-10b %-14d %-14d %-12.4f %.3f\n" ds "vada-sa"
        (S.Baseline_datafly.k_anonymous cycle_md
        ||
        (* cell suppression reaches k-anonymity under maybe-match *)
        S.Risk.risky (S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) cycle_md)
          ~threshold:0.5
        = [])
        outcome.S.Cycle.nulls_injected 0
        (S.Info_loss.cell_suppression_rate cycle_md)
        cycle_time;
      (* Datafly (full-domain generalization + residual suppression). *)
      let datafly, datafly_time =
        timed ("cycle.datafly." ^ ds) (fun () -> S.Baseline_datafly.run ~hierarchy md)
      in
      let datafly_md = datafly.S.Baseline_datafly.anonymized in
      Printf.printf "%-10s %-10s %-10b %-14d %-14d %-12.4f %.3f\n" ds "datafly"
        datafly.S.Baseline_datafly.satisfied
        (List.length datafly.S.Baseline_datafly.suppressed_tuples
        * List.length (S.Microdata.quasi_identifiers md))
        datafly.S.Baseline_datafly.cells_generalized
        (S.Info_loss.cell_suppression_rate datafly_md)
        datafly_time)
    [ "R25A4W"; "R25A4U"; "R25A4V" ];
  note "expectation: Datafly is fast but coarsens whole columns; Vada-SA";
  note "touches only the risky tuples' cells (lower utility loss)"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out: the runtime
   heuristics (Section 4.4), the within-round null sharing behind
   Figure 7b, and the greedy granularity (per-round limit). *)

let ablation () =
  section "Ablation - routing heuristics, null sharing, greed granularity";
  let md = D.Suite.load ~scale:!scale "R25A4U" in
  let base = S.Cycle.default_config in
  let variants =
    [
      ("default (less-significant, most-risky-qi)", base);
      ( "tuple order: most-risky-first",
        { base with S.Cycle.tuple_order = S.Heuristics.Most_risky_first } );
      ( "tuple order: in-order",
        { base with S.Cycle.tuple_order = S.Heuristics.In_order } );
      ( "qi choice: most-selective",
        { base with S.Cycle.qi_choice = S.Heuristics.Most_selective_qi } );
      ( "qi choice: first",
        { base with S.Cycle.qi_choice = S.Heuristics.First_qi } );
      ("no null sharing", { base with S.Cycle.share_nulls = false });
      ( "fully greedy (1 tuple/round)",
        { base with S.Cycle.per_round_limit = Some 1; max_rounds = 100_000 } );
    ]
  in
  Printf.printf "%-42s %-8s %-8s %-10s %s\n" "variant" "nulls" "rounds"
    "info loss" "time (s)";
  List.iter
    (fun (name, config) ->
      let outcome, t = timed ("cycle.variant." ^ name) (fun () -> S.Cycle.run ~config md) in
      Printf.printf "%-42s %-8d %-8d %-10.3f %.3f\n" name
        outcome.S.Cycle.nulls_injected outcome.S.Cycle.rounds
        outcome.S.Cycle.info_loss t)
    variants;
  note "most-risky-qi + null sharing minimize suppression; full greed costs time";
  (* Individual-risk estimator family: naive vs closed-form vs sampling. *)
  Printf.printf "\n%-42s %-14s %s\n" "individual-risk estimator" "global risk"
    "time (s)";
  List.iter
    (fun (name, estimator) ->
      let report, t =
        timed ("risk.estimator." ^ name) (fun () ->
            S.Risk.estimate (S.Risk.Individual estimator) md)
      in
      Printf.printf "%-42s %-14.1f %.3f\n" name (S.Risk.global_risk report) t)
    [
      ("naive f/w (Algorithm 5)", S.Risk.Naive);
      ("Benedetti-Franconi closed form", S.Risk.Benedetti_franconi);
      ("Monte Carlo posterior (200 samples)",
       S.Risk.Monte_carlo { samples = 200; seed = 3 });
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per experiment family. *)

let micro () =
  section "Micro-benchmarks (Bechamel, ns per run)";
  let module B = Bechamel in
  let module Test = Bechamel.Test in
  let module Staged = Bechamel.Staged in
  let md_u = D.Suite.load ~scale:0.02 "R25A4U" in
  let md_nulls =
    let out = S.Cycle.run md_u in
    out.S.Cycle.anonymized
  in
  let fig1_md = D.Ig_survey.figure1 () in
  let tests =
    Test.make_grouped ~name:"vadasa"
      [
        Test.make ~name:"group_stats_standard (fig7e kernel)"
          (Staged.stage (fun () ->
               S.Risk.group_stats ~semantics:R.Null_semantics.Standard md_u));
        Test.make ~name:"group_stats_maybe_match (fig7c kernel)"
          (Staged.stage (fun () -> S.Risk.group_stats md_nulls));
        Test.make ~name:"k_anonymity_estimate (fig7a kernel)"
          (Staged.stage (fun () ->
               S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md_u));
        Test.make ~name:"reidentification_estimate (fig1 kernel)"
          (Staged.stage (fun () ->
               S.Risk.estimate S.Risk.Re_identification md_u));
        Test.make ~name:"individual_bf_estimate (fig7e kernel)"
          (Staged.stage (fun () ->
               S.Risk.estimate (S.Risk.Individual S.Risk.Benedetti_franconi) md_u));
        Test.make ~name:"suda_msus (fig7f kernel)"
          (Staged.stage (fun () -> S.Risk_suda.find_msus fig1_md));
        Test.make ~name:"control_closure (fig7d kernel)"
          (Staged.stage
             (let rng = Vadasa_stats.Rng.create ~seed:13 in
              let ownerships =
                D.Ownership_gen.generate rng md_u ~id_attr:"id" ~edges:40 ()
              in
              fun () -> S.Business.control_closure ownerships));
        Test.make ~name:"cycle_figure5 (fig5 kernel)"
          (Staged.stage (fun () -> S.Cycle.run (D.Ig_survey.figure5 ())));
        Test.make ~name:"engine_k_anonymity_fig5 (reasoned path)"
          (Staged.stage (fun () ->
               S.Vadalog_bridge.risk_via_engine (S.Risk.K_anonymity { k = 2 })
                 (D.Ig_survey.figure5 ())));
      ]
  in
  let cfg = B.Benchmark.cfg ~limit:200 ~quota:(B.Time.second 0.5) () in
  let raw = B.Benchmark.all cfg [ B.Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    B.Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| B.Measure.run |]
  in
  let results = B.Analyze.all ols B.Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      let estimate =
        match B.Analyze.OLS.estimates result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      Printf.printf "  %-48s %12.0f ns/run\n" name estimate)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Scaling: parallel chase wall time by domain count.  [--domains N]
   sweeps 1, 2, 4, ... up to N (default 1: single sequential run, so
   the figure still produces a baseline span on every bench run).

   Two engine workloads with opposite shapes:

   - band: a band self-join over [item(I, A)].  The inner atom shares no
     variable with the delta atom, so every delta fact forces a full
     scan of [item] — O(n^2) read-only join work against a small
     emission count.  This is the parallel-friendly shape: phase 1
     (workers) dominates, phase 2 (single-threaded merge) is tiny.
   - closure: transitive closure of a chain.  Every binding emits a new
     fact, so the sequential merge phase dominates and the curve stays
     near 1.0x however many domains run.  Kept as the honest
     counterpoint — docs/PERFORMANCE.md points here.

   The derived databases are byte-identical across domain counts (the
   engine's determinism guarantee): every leg's database digest must
   equal the 1-domain leg's or the run exits 1 (checked exhaustively in
   test/test_parallel.ml).  Spans are named
   [chase.<workload>.d<N>] so BENCH_scaling.json records the whole
   curve.

   Engines are created with the domain cap, exactly as
   production callers get them: on a host with fewer cores than the
   requested count the engine clamps to the host's useful parallelism
   (printed as "effective" below) instead of paying OCaml 5
   oversubscription costs, so a single-core runner records a flat
   curve — d4 ~= d1, not the 2.5x *slowdown* uncapped oversubscription
   used to produce.  Real speedup needs real cores.  The figure
   therefore checks the d1/dN speedup *ratio* on this very machine,
   never wall time against another host's: a workload whose d1 leg
   takes at least [min_gated_d1_s] fails the run when its top domain
   count falls below [min_speedup] of the 1-domain speed. *)

(* A d1 leg shorter than this is too small for its ratio to mean
   anything: a few ms of GC timing move it by 2x. *)
let min_gated_d1_s = 0.25

(* The floor on d1/dmax. Below it, extra domains cost more than they
   give: the oversubscription losses the domain cap exists to prevent. *)
let min_speedup = 0.62

(* Digest of every predicate's facts in insertion order. Facts marshal
   without sharing, so only their values (floats bit for bit, labelled
   nulls by label) and their order determine it. *)
let database_digest db =
  let buf = Buffer.create 65536 in
  List.iter
    (fun pred ->
      Buffer.add_string buf pred;
      Buffer.add_char buf '\n';
      V.Database.iter_pred db pred (fun args ->
          Buffer.add_string buf (Marshal.to_string args [ Marshal.No_sharing ])))
    (V.Database.predicates db);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let scaling () =
  section "Scaling - parallel chase wall time by domain count";
  let sweep =
    let rec up acc d =
      if d >= !max_domains then List.rev (!max_domains :: acc)
      else up (d :: acc) (d * 2)
    in
    if !max_domains <= 1 then [ 1 ] else up [] 1
  in
  let band_n = max 400 (int_of_float (6000.0 *. sqrt !scale)) in
  let band =
    let facts =
      List.init band_n (fun i ->
          ("item", [| Value.Int i; Value.Int (i mod 997) |]))
    in
    let rules =
      V.Parser.parse
        "near(X, Y) :- item(X, A), item(Y, B), X < Y, A <= B + 1, B <= A + 1.\n\
         @output(\"near\")."
    in
    V.Program.union rules (V.Program.make ~facts [])
  in
  let chain_n = max 100 (int_of_float (400.0 *. sqrt !scale)) in
  let closure =
    let facts =
      List.init (chain_n - 1) (fun i ->
          ("edge", [| Value.Int i; Value.Int (i + 1) |]))
    in
    let rules =
      V.Parser.parse
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- path(X, Y), edge(Y, Z).\n\
         @output(\"path\")."
    in
    V.Program.union rules (V.Program.make ~facts [])
  in
  Printf.printf "  band: %d items (O(n^2) join); closure: %d-node chain\n"
    band_n chain_n;
  Printf.printf "  %-10s %-8s %-10s %-10s %s\n" "workload" "domains"
    "time (s)" "speedup" "facts";
  (* The sweep runs with the global registry armed so the engine's
     pool.wait / engine.chunk.* / engine.merge.* histograms record on
     the worker domains; each (workload, domains) cell is captured,
     printed, and grafted onto BENCH_scaling.json as
     [chase.<wl>.d<N>.<metric>]. *)
  let was_enabled = T.enabled () in
  List.iter
    (fun (wl, program) ->
      let base = ref nan and last = ref nan in
      let reference = ref None in
      List.iter
        (fun d ->
          T.reset T.global;
          T.set_enabled true;
          (* Each leg inherits the previous leg's major-heap state;
             compacting first puts every (workload, domains) cell on the
             same footing, so the d1/dN ratio measures the engine, not
             GC carryover. *)
          Gc.compact ();
          let effective = ref 1 in
          let db, t =
            timed
              (Printf.sprintf "chase.%s.d%d" wl d)
              (fun () ->
                let engine = V.Engine.create ~domains:d program in
                effective := V.Engine.parallelism engine;
                Fun.protect
                  ~finally:(fun () -> V.Engine.shutdown engine)
                  (fun () ->
                    V.Engine.run engine;
                    V.Engine.database engine))
          in
          let facts = V.Database.total db in
          T.set_enabled was_enabled;
          let captured = T.Report.capture T.global in
          T.reset T.global;
          if Float.is_nan !base then base := t;
          last := t;
          let digest = database_digest db in
          (match !reference with
          | None -> reference := Some digest
          | Some r when String.equal r digest -> ()
          | Some _ ->
            Printf.eprintf
              "scaling: %s at %d domains is not byte-identical to the \
               1-domain chase\n"
              wl d;
            exit 1);
          Printf.printf "  %-10s %-8d %-10.3f %-10s %d%s\n" wl d t
            (Printf.sprintf "%.2fx" (!base /. t))
            facts
            (if !effective <> d then
               Printf.sprintf "  (capped to %d effective domain%s)" !effective
                 (if !effective = 1 then "" else "s")
             else "");
          let pool_metrics =
            List.filter
              (fun (name, _) ->
                List.exists
                  (fun prefix -> String.starts_with ~prefix name)
                  [ "pool."; "engine.chunk."; "engine.merge." ])
              captured.T.Report.histograms
          in
          List.iter
            (fun (name, s) ->
              extra_histograms :=
                (Printf.sprintf "chase.%s.d%d.%s" wl d name, s)
                :: !extra_histograms)
            pool_metrics;
          if d > 1 && pool_metrics <> [] then begin
            let find name =
              List.assoc_opt name pool_metrics
            in
            let mean name =
              match find name with
              | Some s when s.T.Histogram.count > 0 -> s.T.Histogram.mean
              | _ -> 0.0
            in
            let total name =
              match find name with Some s -> s.T.Histogram.sum | None -> 0.0
            in
            Printf.printf
              "  %-10s %-8s wait mean %.2gs · join mean %.2gs · merge total \
               %.3fs\n"
              "" ""
              (mean "pool.wait")
              (mean "engine.chunk.join")
              (total "engine.merge.replay")
          end)
        sweep;
      if !max_domains > 1 then begin
        let speedup = !base /. !last in
        let checked = !base >= min_gated_d1_s in
        Printf.printf "  %-10s d1/d%d %.2fx (floor %.2fx%s)\n" wl !max_domains
          speedup min_speedup
          (if checked then ""
           else Printf.sprintf ", d1 under %.2f s: not checked" min_gated_d1_s);
        if checked && speedup < min_speedup then begin
          Printf.eprintf
            "scaling: %s at %d domains runs at %.2fx the 1-domain speed, \
             below the %.2fx floor\n"
            wl !max_domains speedup min_speedup;
          exit 1
        end
      end)
    [ ("band", band); ("closure", closure) ];
  note "byte-identical databases across domain counts (digest of each";
  note "leg's insertion-ordered facts vs the 1-domain leg)"

(* ------------------------------------------------------------------ *)
(* Incremental: reuse-the-fixpoint re-evaluation vs. full re-runs
   (the dataset registry's append path, docs/STREAMING.md).

   The band workload from [scaling] — a delta-unfriendly self-join
   where every appended item scans the whole relation — grows by K
   deltas. The incremental engine continues each append from its
   semi-naive snapshot ([Engine.run_incremental]); the from-scratch
   engine recomputes the fixpoint over the union. Both databases must
   stay byte-identical modulo labelled-null renaming
   ([Canonical.of_engine], asserted every round); the figure reports
   the wall-time ratio. *)

let incremental () =
  section "Incremental - fixpoint reuse vs full re-run (band workload)";
  let n = max 400 (int_of_float (4000.0 *. sqrt !scale)) in
  let deltas = 5 in
  let delta_n = max 10 (n / 50) in
  let item i = ("item", [| Value.Int i; Value.Int (i mod 997) |]) in
  let rules =
    V.Parser.parse
      "near(X, Y) :- item(X, A), item(Y, B), X < Y, A <= B + 1, B <= A + 1.\n\
       @output(\"near\")."
  in
  let facts lo hi = List.init (hi - lo) (fun k -> item (lo + k)) in
  let program hi = V.Program.union rules (V.Program.make ~facts:(facts 0 hi) []) in
  Printf.printf "  band: %d base items, %d appends of %d items each\n" n deltas
    delta_n;
  Printf.printf "  %-8s %-20s %-12s %s\n" "append" "mode" "time (s)" "facts";
  let inc_engine = V.Engine.create (program n) in
  let _, base_time =
    timed "incremental.base" (fun () -> V.Engine.run inc_engine)
  in
  let snap = ref (V.Engine.snapshot inc_engine) in
  let append_total = ref 0.0 in
  let scratch_total = ref 0.0 in
  for a = 1 to deltas do
    let lo = n + ((a - 1) * delta_n) and hi = n + (a * delta_n) in
    let _, t_inc =
      timed
        (Printf.sprintf "incremental.append.%d" a)
        (fun () ->
          List.iter
            (fun (p, args) -> V.Engine.add_fact_array inc_engine p args)
            (facts lo hi);
          snap := V.Engine.run_incremental ~snapshot:!snap inc_engine)
    in
    append_total := !append_total +. t_inc;
    let scratch_engine = V.Engine.create (program hi) in
    let _, t_scr =
      timed
        (Printf.sprintf "incremental.scratch.%d" a)
        (fun () -> V.Engine.run scratch_engine)
    in
    scratch_total := !scratch_total +. t_scr;
    Printf.printf "  %-8d %-20s %-12.4f %d\n" a "append (continue)" t_inc
      (V.Database.total (V.Engine.database inc_engine));
    Printf.printf "  %-8d %-20s %-12.4f %d\n" a "full re-run" t_scr
      (V.Database.total (V.Engine.database scratch_engine));
    assert (
      String.equal
        (V.Canonical.of_engine inc_engine)
        (V.Canonical.of_engine scratch_engine));
    V.Engine.shutdown scratch_engine
  done;
  V.Engine.shutdown inc_engine;
  Printf.printf
    "  totals: base fixpoint %.3f s; appends %.3f s; full re-runs %.3f s \
     (%.1fx)\n"
    base_time !append_total !scratch_total
    (!scratch_total /. Float.max !append_total 1e-9);
  note "expectation: appends beat full re-runs by a widening margin (the";
  note "continuation only evaluates the old*new and new*new join quadrants);";
  note "canonical forms are byte-identical every round (asserted)"

(* ------------------------------------------------------------------ *)
(* Report rendering: the body of a maintained [GET /v1/datasets/{id}/risk]
   (a registered 400-row U dataset under Benedetti-Franconi, rendered
   once before timing and unchanged since, so every number's text is
   already known) against a cold render of the same report. Prints the
   median time and the minor-heap words of one render. *)
let render () =
  section "Report rendering - maintained vs cold risk-report body";
  let module Srv = Vadasa_server in
  let md = D.Suite.load ~scale:0.016 "R25A4U" in
  let options = { Srv.Codec.default_options with Srv.Codec.measure = "individual" } in
  let measure = S.Risk.Individual S.Risk.Benedetti_franconi in
  let reg = Srv.Registry.create () in
  let entry =
    (Srv.Registry.put reg ~id:"render" ~digest:"render" ~bytes:0 ~options
       ~measure ~semantics:R.Null_semantics.Maybe_match ~compiled:None
       (S.Microdata.copy md))
      .Srv.Registry.entry
  in
  let threshold = options.Srv.Codec.threshold in
  let report = S.Risk.estimate measure md in
  let cases =
    [
      ("maintained", fun () -> Srv.Registry.risk_report_string ~threshold entry);
      ("cold", fun () -> Srv.Codec.risk_report_string ~threshold md report);
    ]
  in
  Printf.printf "  %d rows, body %d bytes\n" (S.Microdata.cardinal md)
    (String.length (snd (List.hd cases) ()));
  Printf.printf "  %-12s %12s %14s\n" "render" "us (median)" "minor words";
  List.iter
    (fun (name, f) ->
      let reps = 200 in
      let batch () =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int reps
      in
      ignore (batch ());
      let times = Array.init 9 (fun _ -> batch ()) in
      Array.sort Float.compare times;
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (f ()));
      let words = Gc.minor_words () -. w0 in
      Printf.printf "  %-12s %12.1f %14.0f\n" name (times.(4) *. 1e6) words)
    cases;
  note "expectation: the maintained render reuses every number's text and";
  note "allocates a fraction of the cold render's words"

(* ------------------------------------------------------------------ *)
(* Registry snapshots: 12 datasets shaped like perfbench's serve-ingest
   (200-600 base rows of generated microdata, then 40 appends of 1-3
   rows each, [measure=individual]). A snapshot copies each entry's
   kept CSV text into the file and fsyncs it; the "render" case is what
   a snapshot cost before the text was kept: every entry rendered from
   its relation and JSON-escaped, with no file I/O at all. Prints the
   median time and the minor-heap words of one. *)
let snapshot () =
  section "Registry snapshots - kept CSV text vs re-rendering every entry";
  let module Srv = Vadasa_server in
  let dir = Filename.temp_file "vadasa-bench-snapshot" "" in
  Sys.remove dir;
  let persist = Srv.Persist.open_ ~snapshot_every:max_int ~dir () in
  let reg = Srv.Registry.create ~persist () in
  let options =
    { Srv.Codec.default_options with Srv.Codec.measure = "individual" }
  in
  let measure = S.Risk.Individual S.Risk.Benedetti_franconi in
  let appends = 40 in
  let relations =
    List.init 12 (fun d ->
        let base = 200 + (d * 400 / 11) in
        let md =
          D.Generator.generate
            {
              D.Generator.name = Printf.sprintf "ds%d" d;
              tuples = base + (3 * appends);
              qi_count = 4;
              distribution = [| D.Generator.W; D.Generator.U; D.Generator.V |].(d mod 3);
              seed = 17 + d;
            }
        in
        let rel = S.Microdata.relation md in
        let header, rows =
          match
            String.split_on_char '\n' (R.Csv.write_string rel)
            |> List.filter (fun l -> l <> "")
          with
          | header :: rows -> (header, Array.of_list rows)
          | [] -> assert false
        in
        let document lo hi =
          String.concat "\n" (header :: Array.to_list (Array.sub rows lo (hi - lo)))
          ^ "\n"
        in
        let id = Printf.sprintf "ds%d" d in
        let entry =
          (Srv.Registry.put reg ~id ~digest:id ~bytes:0 ~options ~measure
             ~semantics:R.Null_semantics.Maybe_match ~compiled:None
             (S.Microdata.copy
                (match
                   Srv.Codec.microdata_of_payload
                     { Srv.Codec.csv = document 0 base; options }
                 with
                | Ok md -> md
                | Error e -> failwith (Vadasa_base.Error.to_string e))))
            .Srv.Registry.entry
        in
        let next = ref base in
        for i = 0 to appends - 1 do
          let n = 1 + (i mod 3) in
          ignore (Srv.Registry.append reg entry ~csv:(document !next (!next + n)));
          next := !next + n
        done;
        R.Csv.read_string ~name:id (Srv.Registry.entry_csv entry))
  in
  let render () =
    let buf = Buffer.create 65536 in
    List.iter
      (fun rel -> Vadasa_base.Json.to_buffer buf (Vadasa_base.Json.Str (R.Csv.write_string rel)))
      relations;
    Buffer.contents buf
  in
  let cases =
    [
      ("render", fun () -> ignore (Sys.opaque_identity (render ())));
      ("kept text", fun () -> Srv.Persist.snapshot persist);
    ]
  in
  let path = Filename.concat dir "registry.snapshot" in
  Srv.Persist.snapshot persist;
  Printf.printf "  %d datasets, %d rows, snapshot %d bytes\n" (List.length relations)
    (List.fold_left (fun n rel -> n + R.Relation.cardinal rel) 0 relations)
    (Unix.stat path).Unix.st_size;
  Printf.printf "  %-12s %12s %14s\n" "snapshot" "ms (median)" "minor words";
  List.iter
    (fun (name, f) ->
      f ();
      let times =
        Array.init 15 (fun _ ->
            let t0 = Unix.gettimeofday () in
            f ();
            Unix.gettimeofday () -. t0)
      in
      Array.sort Float.compare times;
      let w0 = Gc.minor_words () in
      f ();
      let words = Gc.minor_words () -. w0 in
      Printf.printf "  %-12s %12.2f %14.0f\n" name (times.(7) *. 1e3) words)
    cases;
  Srv.Persist.close persist;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  note "expectation: the render case is the CPU a snapshot used to spend";
  note "before writing a byte; the kept-text snapshot, fsync included,";
  note "allocates a small fraction of its minor words"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7c", fig7c);
    ("fig7d", fig7d);
    ("fig7e", fig7e);
    ("fig7f", fig7f);
    ("attack", attack);
    ("baseline", baseline);
    ("ablation", ablation);
    ("scaling", scaling);
    ("incremental", incremental);
    ("render", render);
    ("snapshot", snapshot);
    ("micro", micro);
  ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let resolve path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
  else path

let write_bench_report ~json_dir name =
  let report = T.Report.capture !bench_registry in
  let report =
    match !extra_histograms with
    | [] -> report
    | extras ->
      {
        report with
        T.Report.histograms =
          report.T.Report.histograms
          @ List.sort (fun (a, _) (b, _) -> String.compare a b) extras;
      }
  in
  let file = Filename.concat json_dir ("BENCH_" ^ name ^ ".json") in
  let oc = open_out file in
  output_string oc (T.Json.to_string ~indent:true (T.Report.to_json report));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n%!" (resolve file)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = ref false in
  let json = ref true in
  let json_dir = ref "." in
  let metrics = ref false in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--full" :: rest ->
      full := true;
      parse acc rest
    | "--no-json" :: rest ->
      json := false;
      parse acc rest
    | "--json-dir" :: dir :: rest ->
      json_dir := dir;
      parse acc rest
    | "--json-dir" :: [] ->
      Printf.eprintf "--json-dir expects a directory argument\n";
      exit 2
    | "--metrics" :: rest ->
      metrics := true;
      parse acc rest
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some d when d >= 1 -> max_domains := d
      | _ ->
        Printf.eprintf "--domains expects a positive integer\n";
        exit 2);
      parse acc rest
    | "--domains" :: [] ->
      Printf.eprintf "--domains expects a domain-count argument\n";
      exit 2
    | name :: rest -> parse (name :: acc) rest
  in
  let selected = parse [] args in
  if !full then scale := 1.0;
  if !metrics then T.set_enabled true;
  if !json then mkdir_p !json_dir;
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf
              "unknown experiment %s (available: %s)\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        names
  in
  Printf.printf "Vada-SA evaluation harness (scale %.2f%s)\n" !scale
    (if !full then ", paper-size" else "; pass --full for paper sizes");
  List.iter
    (fun (name, f) ->
      (* A fresh registry per figure so each BENCH_<figure>.json report
         holds exactly that figure's spans. *)
      bench_registry := T.create ();
      extra_histograms := [];
      ignore (timed ("bench." ^ name) f);
      (* Peak-heap footprint per figure: [top_heap_words] is the
         high-water mark of the major heap since program start, so each
         figure's report records the largest heap any figure so far
         needed — still a faithful upper bound for this figure.
         [Gc.stat] rather than [Gc.quick_stat]: on this runtime the
         quick variant's aggregates only refresh at collection
         boundaries, so a figure that finishes between collections would
         report a stale (possibly zero) heap. The full [stat] walk runs
         after [timed], so it cannot skew the figure's spans. *)
      let gc = Gc.stat () in
      T.Gauge.set
        (T.Gauge.v ~registry:!bench_registry "gc.top_heap_words")
        (float_of_int gc.Gc.top_heap_words);
      T.Gauge.set
        (T.Gauge.v ~registry:!bench_registry "gc.heap_words")
        (float_of_int gc.Gc.heap_words);
      if !json then write_bench_report ~json_dir:!json_dir name)
    to_run;
  if !metrics then
    prerr_string (T.Report.to_text (T.Report.capture T.global));
