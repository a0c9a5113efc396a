(* vadasa — command-line front end of the Vada-SA statistical disclosure
   control framework.

   Subcommands:
     generate    synthesize a Figure 6 dataset as CSV
     categorize  run Algorithm 1 over a CSV's attribute names
     risk        estimate disclosure risk for a CSV microdata DB
     anonymize   run the anonymization cycle and write the result
     attack      simulate the record-linkage attack against a microdata DB
     reason      execute a Vadalog program file on the reasoning engine
     explain     unfold one fact's provenance derivation tree
     serve       expose the pipeline as a concurrent HTTP service
     datasets    manage the server's persistent dataset registry
     append      stream a delta CSV into a registered dataset
     jobs        submit and track async anonymization/risk jobs *)

module Value = Vadasa_base.Value
module E = Vadasa_base.Error
module Budget = Vadasa_base.Budget
module Faultpoint = Vadasa_resilience.Faultpoint
module R = Vadasa_relational
module S = Vadasa_sdc
module D = Vadasa_datagen
module L = Vadasa_linkage
module V = Vadasa_vadalog
module T = Vadasa_telemetry.Telemetry
module Srv = Vadasa_server
open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Collect telemetry (engine counters, per-phase spans, I/O \
           volumes) and print a report to stderr after the run. FMT is \
           $(b,text) (default) or $(b,json). See docs/OBSERVABILITY.md.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write machine-readable metrics to FILE as JSON lines instead of \
           stderr: the final telemetry report, preceded (under $(b,serve)) \
           by one access-log line per request.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write every finished telemetry span (name, path, start, \
           duration, depth) to FILE; the rendering is picked by \
           $(b,--trace-format).")

let trace_format_arg =
  Arg.(
    value
    & opt string "json"
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Rendering for $(b,--trace) FILE: $(b,json) (native span-event \
           list), $(b,chrome) (Chrome/Perfetto trace-event JSON — open in \
           ui.perfetto.dev or chrome://tracing), or $(b,folded) \
           (folded-stacks lines for flamegraph.pl).")

let span_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "span-limit" ] ~docv:"N"
        ~doc:
          "Retain at most N finished telemetry spans (default 100000); \
           completions beyond the bound are counted as dropped and \
           reported on stderr.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget for the run's reasoning work, in \
           milliseconds. An exhausted budget does not fail the command: \
           the chase stops cooperatively and the result is degraded \
           (partial output, noted on stderr). See docs/RESILIENCE.md.")

let max_facts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-facts" ] ~docv:"N"
        ~doc:
          "Ceiling on chase-derived facts. Like $(b,--deadline), hitting \
           it degrades the result instead of failing; under $(b,serve) it \
           becomes the server-wide per-request ceiling.")

(* Shared preamble of every subcommand: logging, telemetry, fault-point
   arming ($VADASA_FAULTS), and the run's work budget. Returns the
   [finish] hook the subcommand calls once its work is done — it
   emits the report and span trace that [--metrics]/[--trace] asked
   for — paired with the [--metrics-out] line sink (None without the
   flag), which [serve] reuses as its access log, and the
   [--deadline]/[--max-facts] pair. *)
let telemetry_setup verbose metrics metrics_out trace trace_format span_limit
    deadline_ms max_facts =
  setup_logs verbose;
  (match Faultpoint.arm_from_env () with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "error[%s]: %s\n" e.E.code e.E.message;
    exit 2);
  (match deadline_ms with
  | Some ms when ms < 1 ->
    Printf.eprintf "error: --deadline must be >= 1 (milliseconds)\n";
    exit 2
  | _ -> ());
  (match max_facts with
  | Some n when n < 1 ->
    Printf.eprintf "error: --max-facts must be >= 1\n";
    exit 2
  | _ -> ());
  let fmt =
    match metrics with
    | None -> `None
    | Some "json" -> `Json
    | Some "text" -> `Text
    | Some other ->
      Printf.eprintf "error: unknown metrics format %s (use text or json)\n"
        other;
      exit 1
  in
  let tfmt =
    match T.trace_format_of_string trace_format with
    | Ok f -> f
    | Error message ->
      Printf.eprintf "error: %s\n" message;
      exit 1
  in
  (match span_limit with
  | Some n when n < 0 ->
    Printf.eprintf "error: --span-limit must be non-negative\n";
    exit 1
  | Some n -> T.set_span_limit T.global n
  | None -> ());
  let sink, close_sink =
    match metrics_out with
    | None -> (None, fun () -> ())
    | Some path ->
      let oc =
        try open_out path
        with Sys_error message ->
          Printf.eprintf "error: cannot open --metrics-out file: %s\n" message;
          exit 1
      in
      let mutex = Mutex.create () in
      ( Some
          (fun line ->
            Mutex.lock mutex;
            output_string oc line;
            output_char oc '\n';
            flush oc;
            Mutex.unlock mutex),
        fun () -> close_out oc )
  in
  if fmt <> `None || metrics_out <> None || trace <> None then
    T.set_enabled true;
  let finish () =
    (match trace with
    | Some path -> (
      try T.write_trace_as tfmt T.global path
      with Sys_error message ->
        Printf.eprintf "error: cannot write trace: %s\n" message;
        exit 1)
    | None -> ());
    let dropped = T.Span.dropped T.global in
    if dropped > 0 then
      Printf.eprintf
        "warning: %d telemetry span(s) dropped (retention limit %d; raise \
         with --span-limit)\n"
        dropped (T.span_limit T.global);
    (match sink with
    | Some write ->
      write (T.Json.to_string (T.Report.to_json (T.Report.capture T.global)))
    | None -> ());
    close_sink ();
    match fmt with
    | `None -> ()
    | `Json ->
      prerr_endline
        (T.Json.to_string ~indent:true (T.Report.to_json (T.Report.capture T.global)))
    | `Text -> prerr_string (T.Report.to_text (T.Report.capture T.global))
  in
  (finish, sink, (deadline_ms, max_facts))

let common_term =
  Term.(
    const telemetry_setup $ verbose_arg $ metrics_arg $ metrics_out_arg
    $ trace_arg $ trace_format_arg $ span_limit_arg $ deadline_arg
    $ max_facts_arg)

(* ---- shared helpers --------------------------------------------------- *)

(* The work budget starts ticking when the subcommand begins its
   reasoning work, not at process start. *)
let budget_of_limits (deadline_ms, max_facts) =
  match (deadline_ms, max_facts) with
  | None, None -> None
  | _ ->
    Some
      (Budget.create
         ?deadline_in:
           (Option.map (fun ms -> float_of_int ms /. 1000.0) deadline_ms)
         ?max_facts ())

let warn_degraded (i : V.Engine.interrupt) =
  Printf.eprintf
    "warning: chase interrupted (%s) at stratum %d, iteration %d; %d facts \
     derived — output is partial\n"
    (Budget.reason_code i.V.Engine.reason)
    i.V.Engine.stratum i.V.Engine.iteration i.V.Engine.facts_derived

let ok_or_raise = function Ok v -> v | Error e -> raise (E.Error e)

(* The SDC flags decode exactly like a server request: the CLI fills a
   [Codec.options] and [Codec] turns it into categories, measure and
   cycle configuration, with the same typed errors. *)
let load_microdata ~path options =
  let name = Filename.remove_extension (Filename.basename path) in
  ok_or_raise (Srv.Codec.microdata_of_relation options (R.Csv.load ~name path))

(* ---- arguments --------------------------------------------------------- *)

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input microdata CSV (with header).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV path (default: stdout).")

let category_arg =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg "expected attr=category")
  in
  let print ppf (a, c) = Format.fprintf ppf "%s=%s" a c in
  Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "category" ] ~docv:"ATTR=CAT"
        ~doc:
          "Expert category override (identifier, quasi-identifier, \
           non-identifying, weight). Repeatable.")

let default = Srv.Codec.default_options

let measure_arg =
  Arg.(
    value
    & opt string default.Srv.Codec.measure
    & info [ "measure" ] ~docv:"MEASURE"
        ~doc:
          "Risk measure: k-anonymity, re-identification, individual, \
           individual-naive, suda.")

let k_arg =
  Arg.(
    value
    & opt int default.Srv.Codec.k
    & info [ "k" ] ~docv:"K" ~doc:"k-anonymity threshold.")

let threshold_arg =
  Arg.(
    value
    & opt float default.Srv.Codec.threshold
    & info [ "threshold" ] ~docv:"T" ~doc:"Risk threshold T in [0,1].")

let msu_arg =
  Arg.(
    value
    & opt int default.Srv.Codec.msu_threshold
    & info [ "msu-threshold" ] ~docv:"N" ~doc:"SUDA minimal-sample-unique size threshold.")

let options_term =
  let make categories measure k threshold msu_threshold =
    { default with Srv.Codec.categories; measure; k; threshold; msu_threshold }
  in
  Term.(
    const make $ category_arg $ measure_arg $ k_arg $ threshold_arg $ msu_arg)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let engine_domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Evaluate the chase across N OCaml domains (default 1 = \
           sequential). The result is byte-identical for any N — parallel \
           evaluation merges worker derivations in sequential order. Only \
           reasoning-engine work parallelizes; native paths (e.g. $(b,risk) \
           without $(b,--reasoned)) ignore it. See docs/PERFORMANCE.md.")

let check_domains domains =
  if domains < 1 then begin
    Printf.eprintf "error: --domains must be >= 1\n";
    exit 2
  end

let write_csv rel = function
  | None -> print_string (R.Csv.write_string rel)
  | Some path ->
    R.Csv.save rel path;
    Printf.printf "wrote %d tuples to %s\n" (R.Relation.cardinal rel) path

(* ---- generate ----------------------------------------------------------- *)

let generate_cmd =
  let dataset =
    Arg.(
      value
      & opt string "R25A4W"
      & info [ "dataset" ] ~docv:"NAME"
          ~doc:"Figure 6 dataset name (R6A4U ... R100A4U).")
  in
  let scale =
    Arg.(
      value
      & opt float 1.0
      & info [ "scale" ] ~docv:"S" ~doc:"Tuple-count multiplier.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the Figure 6 inventory and exit.")
  in
  let run (finish, _, _) dataset scale output list_flag =
    if list_flag then Format.printf "%a" D.Suite.pp_table ()
    else
      (match D.Suite.find dataset with
      | None ->
        Printf.eprintf "error: unknown dataset %s (try --list)\n" dataset;
        exit 1
      | Some entry ->
        let md = D.Suite.load_entry ~scale entry in
        write_csv (S.Microdata.relation md) output);
    finish ()
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a Figure 6 dataset as CSV")
    Term.(const run $ common_term $ dataset $ scale $ output_arg $ list_flag)

(* ---- categorize ---------------------------------------------------------- *)

let categorize_cmd =
  let run (finish, _, _) input =
    let name = Filename.remove_extension (Filename.basename input) in
    let rel = R.Csv.load ~name input in
    let result, _ =
      S.Categorize.run ~experience:S.Categorize.builtin_experience
        (R.Relation.schema rel)
    in
    List.iter
      (fun a ->
        Printf.printf "%-24s %-18s (matched %s, score %.2f)\n"
          a.S.Categorize.attr
          (S.Microdata.category_to_string a.S.Categorize.category)
          a.S.Categorize.matched a.S.Categorize.score)
      result.S.Categorize.assigned;
    List.iter
      (fun attr -> Printf.printf "%-24s UNRESOLVED (expert input needed)\n" attr)
      result.S.Categorize.unresolved;
    List.iter
      (fun c ->
        Printf.printf "CONFLICT on %s: %s\n" c.S.Categorize.conflict_attr
          (String.concat ", "
             (List.map
                (fun (cat, name, score) ->
                  Printf.sprintf "%s via %s (%.2f)"
                    (S.Microdata.category_to_string cat)
                    name score)
                c.S.Categorize.candidates)))
      result.S.Categorize.conflicts;
    finish ()
  in
  Cmd.v
    (Cmd.info "categorize"
       ~doc:"Categorize a CSV's attributes with Algorithm 1 (experience base)")
    Term.(const run $ common_term $ input_arg)

(* ---- risk ------------------------------------------------------------------ *)

let risk_cmd =
  let explain =
    Arg.(
      value
      & opt (some int) None
      & info [ "explain" ] ~docv:"TUPLE"
          ~doc:"Explain one tuple's risk via the reasoning engine's provenance.")
  in
  let reasoned_flag =
    Arg.(
      value & flag
      & info [ "reasoned" ]
          ~doc:
            "Also run the measure as a Vadalog program on the reasoning \
             engine and report the maximum deviation from the native path.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the canonical JSON risk report on stdout instead of the \
             text summary — the exact bytes the server's POST /v1/risk \
             returns for the same input.")
  in
  let run (finish, _, limits) input options explain reasoned json domains =
    check_domains domains;
    let md = load_microdata ~path:input options in
    let measure = ok_or_raise (Srv.Codec.measure_of_options options) in
    let threshold = options.Srv.Codec.threshold in
    let report = S.Risk.estimate measure md in
    if json then print_string (Srv.Codec.risk_report_string ~threshold md report)
    else print_string (S.Explain.summary md report ~threshold);
    (* With --json, keep stdout pure JSON: extras go to stderr. *)
    let out = if json then stderr else stdout in
    if reasoned then begin
      match
        S.Vadalog_bridge.risk_via_engine
          ?budget:(budget_of_limits limits)
          ~domains measure md
      with
      | engine_risks ->
        let max_diff = ref 0.0 in
        Array.iteri
          (fun i r ->
            max_diff := Float.max !max_diff (Float.abs (r -. report.S.Risk.risk.(i))))
          engine_risks;
        Printf.fprintf out
          "\nreasoned path: %d risks derived on the engine; max |delta| vs \
           native = %.2e\n"
          (Array.length engine_risks) !max_diff
      | exception S.Vadalog_bridge.Unsupported msg ->
        Printf.fprintf out "\nreasoned path unsupported for this measure: %s\n"
          msg
      | exception V.Engine.Interrupted i ->
        (* The native report above is already complete — only the
           reasoned cross-check was cut short. *)
        warn_degraded i
    end;
    (match explain with
    | None -> ()
    | Some tuple ->
      (match S.Vadalog_bridge.explain_risk measure md ~tuple with
      | Some text ->
        Printf.fprintf out "\nreasoned derivation for tuple %d:\n%s" tuple text
      | None -> Printf.fprintf out "\nno derivation found for tuple %d\n" tuple));
    finish ()
  in
  Cmd.v
    (Cmd.info "risk" ~doc:"Estimate statistical disclosure risk for a CSV")
    Term.(
      const run $ common_term $ input_arg $ options_term $ explain
      $ reasoned_flag $ json_flag $ engine_domains_arg)

(* ---- anonymize --------------------------------------------------------------- *)

let anonymize_cmd =
  let method_arg =
    Arg.(
      value
      & opt string default.Srv.Codec.method_
      & info [ "method" ] ~docv:"METHOD"
          ~doc:"suppress (labelled nulls) or recode (synthetic hierarchy roll-up).")
  in
  let semantics_arg =
    Arg.(
      value
      & opt string default.Srv.Codec.semantics
      & info [ "semantics" ] ~docv:"SEM"
          ~doc:"Labelled-null semantics: maybe-match or standard.")
  in
  let narrative_flag =
    Arg.(
      value & flag
      & info [ "narrative" ]
          ~doc:"Print the full anonymization narrative (per-action story).")
  in
  let audit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:
            "Write the decision-level audit trail to FILE as JSON lines: \
             exactly one event per cycle round — risk before/after, method \
             applied, cells affected, violations remaining, info-loss delta. \
             Schema in docs/OBSERVABILITY.md; validated by tools/auditcheck.")
  in
  let run (finish, _, limits) input options method_ semantics output narrative
      audit =
    let options = { options with Srv.Codec.method_; semantics } in
    let md = load_microdata ~path:input options in
    let config = ok_or_raise (Srv.Codec.cycle_config options md) in
    let recorder = Option.map (fun _ -> S.Audit.recorder ()) audit in
    let outcome =
      S.Cycle.run ~config ?audit:recorder ?budget:(budget_of_limits limits) md
    in
    Format.eprintf "%a" S.Cycle.pp_outcome outcome;
    if narrative then prerr_string (S.Explain.trace md outcome);
    (match (audit, recorder) with
    | Some path, Some recorder ->
      let events = S.Audit.events recorder in
      (try
         let oc = open_out path in
         output_string oc (S.Audit.to_jsonl events);
         close_out oc
       with Sys_error message ->
         E.fail ~code:"io.audit" E.Io
           ("cannot write --audit file: " ^ message)
           ~context:[ ("file", path) ]);
      Printf.eprintf "audit trail: %d event(s) -> %s\n" (List.length events)
        path
    | _ -> ());
    write_csv (S.Microdata.relation outcome.S.Cycle.anonymized) output;
    finish ()
  in
  Cmd.v
    (Cmd.info "anonymize"
       ~doc:"Run the anonymization cycle on a CSV until the risk threshold holds")
    Term.(
      const run $ common_term $ input_arg $ options_term $ method_arg
      $ semantics_arg $ output_arg $ narrative_flag $ audit_arg)

(* ---- attack --------------------------------------------------------------------- *)

let attack_cmd =
  let run (finish, _, limits) input categories seed =
    let md =
      load_microdata ~path:input { default with Srv.Codec.categories }
    in
    let rng = Vadasa_stats.Rng.create ~seed in
    let oracle = L.Oracle.from_microdata rng md () in
    Printf.printf "identity oracle: %d records\n" (L.Oracle.cardinal oracle);
    let before = L.Attack.run oracle md in
    Format.printf "before anonymization: %a" L.Attack.pp before;
    let outcome = S.Cycle.run ?budget:(budget_of_limits limits) md in
    let after = L.Attack.run oracle outcome.S.Cycle.anonymized in
    Format.printf "after anonymization (%d nulls): %a"
      outcome.S.Cycle.nulls_injected L.Attack.pp after;
    finish ()
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Simulate the re-identification attack before and after anonymization")
    Term.(const run $ common_term $ input_arg $ category_arg $ seed_arg)

(* ---- reason --------------------------------------------------------------------- *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let csv_facts_arg =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg "expected pred=path.csv")
  in
  let print ppf (p, f) = Format.fprintf ppf "%s=%s" p f in
  Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "csv-facts" ] ~docv:"PRED=FILE"
        ~doc:
          "Load a CSV file (with header) as facts of the given predicate, \
           one fact per row. Repeatable.")

let load_program path csv_facts =
  let program = V.Parser.parse (read_file path) in
  let extra_facts =
    List.concat_map
      (fun (pred, file) ->
        let rel = R.Csv.load ~name:pred file in
        List.map (fun t -> (pred, t)) (R.Relation.to_list rel))
      csv_facts
  in
  V.Program.union program (V.Program.make ~facts:extra_facts [])

let reason_cmd =
  let program_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "p"; "program" ] ~docv:"FILE" ~doc:"Vadalog program file.")
  in
  let query_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "query" ] ~docv:"PRED"
          ~doc:"Predicate to print (default: the program's @output annotations).")
  in
  let explain_arg =
    Arg.(
      value
      & flag
      & info [ "explain" ] ~doc:"Print the provenance tree of every printed fact.")
  in
  let check_warded =
    Arg.(value & flag & info [ "check-warded" ] ~doc:"Print the wardedness analysis.")
  in
  let run (finish, _, limits) path queries explain warded csv_facts domains =
    check_domains domains;
    let program = load_program path csv_facts in
    if warded then
      Format.printf "%a@." V.Wardedness.pp_report (V.Wardedness.analyze program);
    let engine = V.Engine.create ~domains program in
    (* A budgeted run may stop early: print whatever the partial chase
       derived, flagged on stderr. *)
    (match V.Engine.run ?budget:(budget_of_limits limits) engine with
    | () -> ()
    | exception V.Engine.Interrupted i -> warn_degraded i);
    V.Engine.shutdown engine;
    V.Engine.publish_rule_counters engine;
    let preds =
      match queries with [] -> program.V.Program.outputs | qs -> qs
    in
    List.iter
      (fun pred ->
        List.iter
          (fun fact ->
            Printf.printf "%s(%s).\n" pred
              (String.concat ", "
                 (Array.to_list (Array.map Value.to_string fact)));
            if explain then
              match V.Engine.explain engine pred fact with
              | Some tree -> print_string (V.Provenance.to_string tree)
              | None -> ())
          (V.Engine.facts engine pred))
      preds;
    finish ()
  in
  Cmd.v
    (Cmd.info "reason" ~doc:"Run a Vadalog program on the reasoning engine")
    Term.(
      const run $ common_term $ program_arg $ query_arg $ explain_arg
      $ check_warded $ csv_facts_arg $ engine_domains_arg)

(* ---- explain -------------------------------------------------------------------- *)

let explain_cmd =
  let program_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "p"; "program" ] ~docv:"FILE" ~doc:"Vadalog program file.")
  in
  let fact_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FACT"
          ~doc:
            "The fact to explain, in Vadalog syntax: 'pred(arg1, arg2)' \
             (trailing dot optional).")
  in
  let max_depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:
            "Cut the derivation tree below N levels (default 12); cut \
             subtrees render as [unknown].")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the derivation tree as canonical JSON on stdout — the \
             exact bytes the server's POST /v1/explain returns for the same \
             program and fact.")
  in
  let run (finish, _, limits) path fact json max_depth csv_facts domains =
    check_domains domains;
    (match max_depth with
    | Some n when n < 1 ->
      Printf.eprintf "error: --max-depth must be >= 1\n";
      exit 2
    | _ -> ());
    let pred, args =
      match Srv.Codec.parse_fact fact with
      | Ok f -> f
      | Error e -> raise (E.Error e)
    in
    let program = load_program path csv_facts in
    let engine = V.Engine.create ~domains program in
    (match V.Engine.run ?budget:(budget_of_limits limits) engine with
    | () -> ()
    | exception V.Engine.Interrupted i -> warn_degraded i);
    V.Engine.shutdown engine;
    V.Engine.publish_rule_counters engine;
    (match V.Engine.explain ?max_depth engine pred args with
    | Some tree ->
      if json then print_string (Srv.Codec.explain_string tree)
      else print_string (V.Provenance.to_string tree)
    | None ->
      E.fail ~code:"fact.not_found" E.Wardedness
        (Printf.sprintf "fact %s is not in the database" (String.trim fact))
        ~context:
          [
            ("fact", String.trim fact);
            ("hint", "run `vadasa reason` to list the derived facts");
          ]);
    finish ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Unfold one fact's provenance: the derivation tree of rules and \
          parent facts the chase recorded for it (the paper's full-\
          explainability desideratum). Exits 2 with error[fact.not_found] \
          when the fact is not in the saturated database.")
    Term.(
      const run $ common_term $ program_arg $ fact_arg $ json_flag
      $ max_depth_arg $ csv_facts_arg $ engine_domains_arg)

(* ---- profile -------------------------------------------------------------------- *)

let profile_cmd =
  let program_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PROGRAM" ~doc:"Vadalog program file to profile.")
  in
  let top_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N"
          ~doc:"Print only the N most expensive rules (default: all).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the profile as JSON on stdout instead of the table.")
  in
  let run (finish, _, limits) path top json_out csv_facts domains =
    check_domains domains;
    let program = load_program path csv_facts in
    (* The profiler itself is always on; arm the global registry too so
       the run records the engine.run/engine.stratum.* spans the table
       is cross-checked against. *)
    T.set_enabled true;
    let engine = V.Engine.create ~domains program in
    (match V.Engine.run ?budget:(budget_of_limits limits) engine with
    | () -> ()
    | exception V.Engine.Interrupted i -> warn_degraded i);
    V.Engine.shutdown engine;
    V.Engine.publish_rule_counters engine;
    let report = V.Engine.profile_report engine in
    if json_out then
      print_endline (T.Json.to_string ~indent:true (V.Profile.to_json report))
    else begin
      print_string (V.Profile.to_text ?top report);
      (* The parallel-chase cost table: where the domains actually
         spend their time (queue wait, chunk joins) and how long the
         single-threaded merge replay holds them all up. *)
      if domains > 1 then begin
        let captured = T.Report.capture T.global in
        let pool_metrics =
          List.filter
            (fun (name, _) ->
              List.exists
                (fun prefix -> String.starts_with ~prefix name)
                [ "pool."; "engine.chunk."; "engine.merge." ])
            captured.T.Report.histograms
        in
        if pool_metrics <> [] then begin
          Printf.printf "\nparallel chase (%d domains):\n" domains;
          Printf.printf "  %-24s %8s %12s %12s %12s %12s\n" "metric" "count"
            "mean" "p50" "p95" "max";
          List.iter
            (fun (name, s) ->
              Printf.printf "  %-24s %8d %12.4g %12.4g %12.4g %12.4g\n" name
                s.T.Histogram.count s.T.Histogram.mean s.T.Histogram.p50
                s.T.Histogram.p95 s.T.Histogram.max)
            pool_metrics
        end
      end
    end;
    finish ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a Vadalog program and print the chase hotspot table: per-rule \
          self time, join selectivity (tuples scanned vs. matched), facts \
          derived vs. duplicates, nulls invented and aggregate-group churn")
    Term.(
      const run $ common_term $ program_arg $ top_arg $ json_flag
      $ csv_facts_arg $ engine_domains_arg)

(* ---- serve ---------------------------------------------------------------------- *)

let serve_cmd =
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let port_arg =
    Arg.(
      value
      & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port to bind (0 picks an ephemeral port).")
  in
  let domains_arg =
    Arg.(
      value
      & opt int 4
      & info [ "domains" ] ~docv:"N" ~doc:"Worker pool size (OCaml domains).")
  in
  let engine_domains_arg =
    Arg.(
      value
      & opt int 1
      & info [ "engine-domains" ] ~docv:"N"
          ~doc:
            "Size of the shared parallel-chase pool (default 1 = \
             sequential engines). All request handlers borrow this one \
             pool, so the process runs $(b,--domains) + N - 1 worker \
             domains in total — no per-request spawning, no \
             oversubscription. Responses are byte-identical for any N.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int 128
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded job-queue capacity; connections beyond it are answered \
             503 immediately (backpressure).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-request deadline: socket read timeout and maximum queue \
             wait.")
  in
  let max_body_arg =
    Arg.(
      value
      & opt int Srv.Http.default_limits.Srv.Http.max_body_bytes
      & info [ "max-body" ] ~docv:"BYTES"
          ~doc:"Largest accepted request body (413 beyond it).")
  in
  let registry_capacity_arg =
    Arg.(
      value
      & opt int 16
      & info [ "registry-capacity" ] ~docv:"N"
          ~doc:
            "Most datasets the registry keeps registered at once \
             ($(b,/v1/datasets)); beyond it the least-recently-used entry \
             is evicted.")
  in
  let dataset_audit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dataset-audit" ] ~docv:"FILE"
          ~doc:
            "Append the dataset registry's decision trail to FILE as JSON \
             lines: one line per register, append (rows re-scored, groups \
             touched, chase mode) and delete. See docs/STREAMING.md.")
  in
  let data_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Crash-safe durability: journal every dataset and job mutation \
             to DIR (append-only, CRC-framed, group-committed) and \
             periodically compact into an atomic snapshot. On boot the \
             server recovers every committed dataset and job from \
             DIR — risk reports byte-identical to the pre-crash state. \
             Without it, state is in-memory only. See docs/JOBS.md.")
  in
  let snapshot_every_arg =
    Arg.(
      value
      & opt int 64
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Write a snapshot (and truncate the journal) every N committed \
             records (requires $(b,--data-dir)).")
  in
  let job_domains_arg =
    Arg.(
      value
      & opt int 2
      & info [ "job-domains" ] ~docv:"N"
          ~doc:
            "Async job worker pool size ($(b,POST /v1/jobs)); spawned \
             lazily on the first submission.")
  in
  let job_queue_arg =
    Arg.(
      value
      & opt int 64
      & info [ "job-queue" ] ~docv:"N"
          ~doc:
            "Bounded async-job queue; submissions beyond it answer 503 \
             jobs.queue_full with Retry-After.")
  in
  let tenant_quota_arg =
    Arg.(
      value
      & opt int 16
      & info [ "tenant-quota" ] ~docv:"N"
          ~doc:
            "Most queued+running jobs a single tenant may hold; beyond it \
             submissions answer 429 tenant.quota_exceeded.")
  in
  let job_retain_arg =
    Arg.(
      value
      & opt int 256
      & info [ "job-retain" ] ~docv:"N"
          ~doc:
            "Most terminal (done/failed/cancelled/orphaned) jobs kept per \
             tenant; beyond it the oldest are pruned from the table and \
             from snapshots, keeping long-lived servers bounded.")
  in
  let tenant_rate_arg =
    Arg.(
      value
      & opt float 50.0
      & info [ "tenant-rate" ] ~docv:"R"
          ~doc:
            "Per-tenant job submission rate (token bucket, R tokens per \
             second); beyond it submissions answer 429 tenant.rate_limited \
             with Retry-After.")
  in
  let tenant_burst_arg =
    Arg.(
      value
      & opt float 100.0
      & info [ "tenant-burst" ] ~docv:"B"
          ~doc:"Token-bucket burst capacity for $(b,--tenant-rate).")
  in
  let trace_sample_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Dump every Nth request's full span tree as a JSON line on the \
             $(b,--metrics-out) sink (requires $(b,--metrics-out)); lines \
             carry the request id, so traces join against access-log lines.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-request log: any request slower than MS milliseconds dumps \
             its full span tree as a JSON line on the $(b,--metrics-out) \
             sink, independently of $(b,--trace-sample) — the tail-latency \
             lens is always on. Slow lines carry $(b,slow: true) and the \
             request's latency; each slow request also bumps the \
             $(b,http.slow_requests) counter.")
  in
  let run (finish, sink, (_, max_facts)) host port domains engine_domains queue
      timeout max_body registry_capacity dataset_audit data_dir snapshot_every
      job_domains job_queue tenant_quota job_retain tenant_rate tenant_burst
      trace_sample slow_ms =
    if domains < 1 then begin
      Printf.eprintf "error: --domains must be >= 1\n";
      exit 1
    end;
    if snapshot_every < 1 then begin
      Printf.eprintf "error: --snapshot-every must be >= 1\n";
      exit 1
    end;
    if job_domains < 1 || job_queue < 1 then begin
      Printf.eprintf "error: --job-domains and --job-queue must be >= 1\n";
      exit 1
    end;
    if tenant_quota < 1 || tenant_rate <= 0.0 || tenant_burst < 1.0 then begin
      Printf.eprintf
        "error: --tenant-quota must be >= 1, --tenant-rate > 0, \
         --tenant-burst >= 1\n";
      exit 1
    end;
    if job_retain < 1 then begin
      Printf.eprintf "error: --job-retain must be >= 1\n";
      exit 1
    end;
    if engine_domains < 1 then begin
      Printf.eprintf "error: --engine-domains must be >= 1\n";
      exit 1
    end;
    if queue < 1 then begin
      Printf.eprintf "error: --queue must be >= 1\n";
      exit 1
    end;
    if registry_capacity < 1 then begin
      Printf.eprintf "error: --registry-capacity must be >= 1\n";
      exit 1
    end;
    (match trace_sample with
    | Some n when n < 1 ->
      Printf.eprintf "error: --trace-sample must be >= 1\n";
      exit 1
    | _ -> ());
    (match slow_ms with
    | Some n when n < 1 ->
      Printf.eprintf "error: --slow-ms must be >= 1\n";
      exit 1
    | _ -> ());
    let config =
      {
        Srv.Server.host;
        port;
        domains;
        queue_capacity = queue;
        request_timeout = timeout;
        max_body_bytes = max_body;
        access_log = sink;
        trace_sample;
        slow_ms;
      }
    in
    (* The registry shards per domain, so the gated global telemetry is
       safe (and useful) under the worker pool: per-endpoint latency
       histograms (keyed by the route table, never by raw client paths)
       and engine metrics record concurrently and merge at capture —
       /metrics exposes them, Prometheus format included. Request span
       trees are only recorded for --trace-sample'd requests. *)
    T.set_enabled true;
    let engine_pool =
      if engine_domains > 1 then
        Some
          (Vadasa_base.Task_pool.create
             ~on_wait:(fun dt -> T.observe "pool.wait" dt)
             ~domains:engine_domains ())
      else None
    in
    (* The audit sink is append-only and mutex-serialized: worker
       domains emit registry lines concurrently. *)
    let dataset_audit_sink, close_dataset_audit =
      match dataset_audit with
      | None -> (None, fun () -> ())
      | Some path ->
        let oc =
          try open_out_gen [ Open_append; Open_creat ] 0o644 path
          with Sys_error message ->
            Printf.eprintf "error: cannot open --dataset-audit file: %s\n"
              message;
            exit 1
        in
        let mutex = Mutex.create () in
        ( Some
            (fun line ->
              Mutex.lock mutex;
              output_string oc line;
              output_char oc '\n';
              flush oc;
              Mutex.unlock mutex),
          fun () -> close_out oc )
    in
    let persist =
      match data_dir with
      | None -> None
      | Some dir -> (
        match Srv.Persist.open_ ~snapshot_every ~dir () with
        | p -> Some p
        | exception E.Error e ->
          Printf.eprintf "error: cannot open --data-dir %s: %s\n" dir
            e.E.message;
          exit 1)
    in
    let handlers =
      Srv.Handlers.create ?default_max_facts:max_facts ?engine_pool
        ~registry_capacity ?dataset_audit:dataset_audit_sink ?persist
        ~job_domains ~job_queue ~tenant_quota ~job_retain ~tenant_rate
        ~tenant_burst ()
    in
    (match persist with
    | None -> ()
    | Some p ->
      let recovered = T.Metric.to_json (Srv.Persist.metrics p) in
      let count key =
        Option.value ~default:0 (Option.bind (T.Json.member key recovered) T.Json.to_int_opt)
      in
      Printf.printf
        "vadasa serve: recovered from %s (%d records replayed, %d skipped, \
         %d torn bytes discarded)\n%!"
        (Srv.Persist.dir p) (count "replayed_records") (count "skipped_records")
        (count "truncated_bytes"));
    let server =
      match Srv.Server.create ~config handlers with
      | server -> server
      | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "error: cannot bind %s:%d: %s\n" host port
          (Unix.error_message err);
        exit 1
    in
    Srv.Server.install_signal_handlers server;
    Printf.printf
      "vadasa serve: listening on http://%s:%d (%d domains, %d engine \
       domains, queue %d)\n%!"
      host (Srv.Server.port server) domains engine_domains queue;
    Srv.Server.run server;
    (* Accept loop drained; now stop the job workers and close the
       journal (final snapshot) before dropping auxiliary sinks. *)
    Srv.Handlers.shutdown handlers;
    Option.iter Vadasa_base.Task_pool.stop engine_pool;
    close_dataset_audit ();
    Printf.eprintf "vadasa serve: shutdown complete\n%!";
    finish ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the SDC pipeline as a long-lived HTTP service: POST /v1/risk, \
          /v1/anonymize, /v1/categorize, /v1/reason, /v1/explain; the \
          dataset registry under /v1/datasets (PUT/GET/DELETE, append via \
          POST /v1/datasets/ID/facts); async jobs under /v1/jobs; GET \
          /healthz, /metrics. With $(b,--data-dir) every dataset and job \
          mutation is journaled and recovered on restart. See \
          docs/SERVER.md, docs/STREAMING.md and docs/JOBS.md.")
    Term.(
      const run $ common_term $ host_arg $ port_arg $ domains_arg
      $ engine_domains_arg $ queue_arg $ timeout_arg $ max_body_arg
      $ registry_capacity_arg $ dataset_audit_arg $ data_dir_arg
      $ snapshot_every_arg $ job_domains_arg $ job_queue_arg
      $ tenant_quota_arg $ job_retain_arg $ tenant_rate_arg $ tenant_burst_arg
      $ trace_sample_arg $ slow_ms_arg)

(* ---- datasets / append (registry HTTP client) ------------------------------------- *)

(* Honour backpressure: a 503 (open breaker, full queue) or 429
   (tenant quota / rate limit) with its Retry-After header re-issues
   the request under a jittered-backoff retry policy with a bounded
   budget; exhaustion raises a clear typed [client.unavailable] (the
   CLI renders it as [error[client.unavailable]] plus the retry
   context and exits 2). Every other status returns to the caller. *)
let client_retry_policy =
  {
    Vadasa_resilience.Retry.default_policy with
    Vadasa_resilience.Retry.max_attempts = 4;
    base_delay = 0.2;
    budget = 15.0;
  }

let http_request_retrying ~host ~port ~meth ~target ?headers ?body () =
  let module Retry = Vadasa_resilience.Retry in
  Retry.run ~policy:client_retry_policy
    ~should_retry:(fun ~attempt:_ -> function
      | E.Error e when e.E.code = "client.unavailable" ->
        Some
          (Option.bind
             (List.assoc_opt "retry_after_s" e.E.context)
             float_of_string_opt)
      | _ -> None)
    (fun () ->
      let resp = Srv.Http.call ~host ~port ~meth ~target ?headers ?body () in
      let status = resp.Srv.Http.status in
      if status = 503 || status = 429 then
        raise
          (E.Error
             (E.make ~code:"client.unavailable" E.Resource
                (Printf.sprintf "%s %s: HTTP %d from %s:%d"
                   (Srv.Http.meth_to_string meth)
                   target status host port)
                ~context:
                  (("status", string_of_int status)
                  ::
                  (match
                     List.assoc_opt "retry-after" resp.Srv.Http.resp_headers
                   with
                  | Some v -> [ ("retry_after_s", v) ]
                  | None -> []))));
      resp)

let server_arg =
  Arg.(
    value
    & opt string "127.0.0.1:8080"
    & info [ "server" ] ~docv:"HOST:PORT"
        ~doc:"Address of the running $(b,vadasa serve) instance.")

let parse_server s =
  let fail () =
    Printf.eprintf "error: --server expects HOST:PORT (got %s)\n" s;
    exit 1
  in
  match String.rindex_opt s ':' with
  | None -> fail ()
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && host <> "" -> (host, p)
    | _ -> fail ())

(* Print the response body on stdout (it is already JSON); a non-2xx
   answer goes to stderr instead and exits 1 — the body carries the
   typed error.code, so scripts can branch on it. *)
let newline_terminated s =
  if s = "" || s.[String.length s - 1] <> '\n' then s ^ "\n" else s

let client_call ~server ~meth ~target ?headers ?body () =
  let host, port = parse_server server in
  let { Srv.Http.status; resp_body; _ } =
    http_request_retrying ~host ~port ~meth ~target ?headers ?body ()
  in
  if status >= 200 && status < 300 then
    print_string (newline_terminated resp_body)
  else begin
    Printf.eprintf "error: HTTP %d\n%s" status (newline_terminated resp_body);
    exit 1
  end

let slurp path =
  let ic =
    try open_in_bin path
    with Sys_error message ->
      Printf.eprintf "error: %s\n" message;
      exit 1
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dataset_id_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ID" ~doc:"Dataset id (registered under /v1/datasets/ID).")

let datasets_cmd =
  let list_cmd =
    let run (finish, _, _) server =
      client_call ~server ~meth:Srv.Http.GET ~target:"/v1/datasets" ();
      finish ()
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List registered datasets (GET /v1/datasets).")
      Term.(const run $ common_term $ server_arg)
  in
  let show_cmd =
    let csv_flag =
      Arg.(
        value & flag
        & info [ "csv" ]
            ~doc:
              "Also return the dataset's current (base plus appended \
               deltas) CSV document ($(b,?include=csv)) — the exact input \
               a from-scratch run needs to reproduce its reports.")
    in
    let run (finish, _, _) server id csv =
      let target =
        "/v1/datasets/" ^ id ^ if csv then "?include=csv" else ""
      in
      client_call ~server ~meth:Srv.Http.GET ~target ();
      finish ()
    in
    Cmd.v
      (Cmd.info "show"
         ~doc:"Show one dataset's metadata (GET /v1/datasets/ID).")
      Term.(const run $ common_term $ server_arg $ dataset_id_arg $ csv_flag)
  in
  let put_cmd =
    let file_arg =
      Arg.(
        required
        & pos 1 (some file) None
        & info [] ~docv:"CSV" ~doc:"Base CSV document to register.")
    in
    let param_arg =
      Arg.(
        value & opt_all string []
        & info [ "param" ] ~docv:"KEY=VALUE"
            ~doc:
              "Extra query parameter forwarded verbatim — the same options \
               $(b,POST /v1/risk) takes: $(b,measure), $(b,threshold), \
               $(b,k), $(b,msu-threshold), $(b,semantics), \
               $(b,category)=attr=cat, ... Repeatable.")
    in
    let run (finish, _, _) server id file params =
      let target =
        "/v1/datasets/" ^ id
        ^ if params = [] then "" else "?" ^ String.concat "&" params
      in
      client_call ~server ~meth:Srv.Http.PUT ~target
        ~headers:[ ("content-type", "text/csv") ]
        ~body:(slurp file) ();
      finish ()
    in
    Cmd.v
      (Cmd.info "put"
         ~doc:
           "Register a CSV document as a persistent dataset (PUT \
            /v1/datasets/ID). Re-PUTting the identical document is \
            idempotent; different content under a live id is refused with \
            409 dataset.conflict.")
      Term.(
        const run $ common_term $ server_arg $ dataset_id_arg $ file_arg
        $ param_arg)
  in
  let risk_cmd =
    let full_flag =
      Arg.(
        value & flag
        & info [ "full" ]
            ~doc:
              "Re-estimate from scratch on a snapshot of the current data \
               ($(b,?mode=full)) instead of answering from the \
               incrementally maintained report — the two are \
               byte-identical; this flag exists to prove it.")
    in
    let threshold_arg =
      Arg.(
        value
        & opt (some float) None
        & info [ "threshold" ] ~docv:"T"
            ~doc:"Override the registered risk threshold for this report.")
    in
    let run (finish, _, _) server id full threshold =
      let params =
        (if full then [ "mode=full" ] else [])
        @
        match threshold with
        | Some t -> [ Printf.sprintf "threshold=%g" t ]
        | None -> []
      in
      let target =
        "/v1/datasets/" ^ id ^ "/risk"
        ^ if params = [] then "" else "?" ^ String.concat "&" params
      in
      client_call ~server ~meth:Srv.Http.GET ~target ();
      finish ()
    in
    Cmd.v
      (Cmd.info "risk"
         ~doc:
           "Print the dataset's maintained risk report (GET \
            /v1/datasets/ID/risk) — byte-identical to POST /v1/risk over \
            the union CSV.")
      Term.(
        const run $ common_term $ server_arg $ dataset_id_arg $ full_flag
        $ threshold_arg)
  in
  let delete_cmd =
    let run (finish, _, _) server id =
      client_call ~server ~meth:Srv.Http.DELETE ~target:("/v1/datasets/" ^ id) ();
      finish ()
    in
    Cmd.v
      (Cmd.info "delete"
         ~doc:"Unregister a dataset (DELETE /v1/datasets/ID).")
      Term.(const run $ common_term $ server_arg $ dataset_id_arg)
  in
  Cmd.group
    (Cmd.info "datasets"
       ~doc:
         "Manage the server's persistent dataset registry: list, show, \
          put, risk, delete — thin clients over /v1/datasets on a running \
          $(b,vadasa serve). See docs/STREAMING.md.")
    [ list_cmd; show_cmd; put_cmd; risk_cmd; delete_cmd ]

let append_cmd =
  let input_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "i"; "input" ] ~docv:"CSV"
          ~doc:"Delta CSV file (same header as the base document).")
  in
  let run (finish, _, _) server id input =
    client_call ~server ~meth:Srv.Http.POST
      ~target:("/v1/datasets/" ^ id ^ "/facts")
      ~headers:[ ("content-type", "text/csv") ]
      ~body:(slurp input) ();
    finish ()
  in
  Cmd.v
    (Cmd.info "append"
       ~doc:
         "Append a delta CSV to a registered dataset (POST \
          /v1/datasets/ID/facts): rows join the live relation and risk is \
          re-scored incrementally (only the touched quasi-identifier \
          groups). The response reports what happened (rows_rescored, \
          groups_touched, risk_fallback).")
    Term.(const run $ common_term $ server_arg $ dataset_id_arg $ input_arg)

(* ---- jobs (async jobs HTTP client) ------------------------------------------------ *)

let jobs_cmd =
  let module Json = Vadasa_base.Json in
  let tenant_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "tenant" ] ~docv:"TENANT"
          ~doc:
            "Tenant the submission is accounted to (sent as \
             X-Vadasa-Tenant; quota and rate limits apply per tenant).")
  in
  let job_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOB" ~doc:"Job id (as returned by $(b,jobs submit)).")
  in
  let submit_cmd =
    let op_arg =
      Arg.(
        value
        & opt string "risk"
        & info [ "op" ] ~docv:"OP"
            ~doc:
              "What to run: $(b,risk) (the dataset's maintained report — \
               byte-identical to $(b,datasets risk)) or $(b,anonymize) (a \
               suppression/recoding cycle over a snapshot).")
    in
    let measure_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "measure" ] ~docv:"MEASURE"
            ~doc:"Risk measure for $(b,--op anonymize).")
    in
    let threshold_arg =
      Arg.(
        value
        & opt (some float) None
        & info [ "threshold" ] ~docv:"T" ~doc:"Risk threshold.")
    in
    let k_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "k" ] ~docv:"K" ~doc:"k-anonymity parameter.")
    in
    let method_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "method" ] ~docv:"METHOD"
            ~doc:"Anonymization method: $(b,suppress) or $(b,recode).")
    in
    let semantics_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "semantics" ] ~docv:"SEMANTICS"
            ~doc:"Null-matching semantics for risk grouping.")
    in
    let run (finish, _, _) server tenant id op measure threshold k method_
        semantics =
      let opt_field name to_json value =
        match value with Some v -> [ (name, to_json v) ] | None -> []
      in
      let body =
        Json.to_string
          (Json.Obj
             ([ ("dataset", Json.Str id); ("op", Json.Str op) ]
             @ opt_field "measure" (fun s -> Json.Str s) measure
             @ opt_field "threshold" (fun f -> Json.Float f) threshold
             @ opt_field "k" (fun n -> Json.Int n) k
             @ opt_field "method" (fun s -> Json.Str s) method_
             @ opt_field "semantics" (fun s -> Json.Str s) semantics))
      in
      client_call ~server ~meth:Srv.Http.POST ~target:"/v1/jobs"
        ~headers:
          [
            ("content-type", "application/json");
            ("x-vadasa-tenant", tenant);
          ]
        ~body ();
      finish ()
    in
    Cmd.v
      (Cmd.info "submit"
         ~doc:
           "Submit an async job over a registered dataset (POST /v1/jobs, \
            202). Prints the job object; poll it with $(b,jobs status) or \
            $(b,jobs wait). Quota/rate rejections (429) are retried with \
            backoff honouring Retry-After before giving up.")
      Term.(
        const run $ common_term $ server_arg $ tenant_arg $ dataset_id_arg
        $ op_arg $ measure_arg $ threshold_arg $ k_arg $ method_arg
        $ semantics_arg)
  in
  let status_cmd =
    let run (finish, _, _) server id =
      client_call ~server ~meth:Srv.Http.GET ~target:("/v1/jobs/" ^ id) ();
      finish ()
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:"Show one job's state and result (GET /v1/jobs/JOB).")
      Term.(const run $ common_term $ server_arg $ job_pos)
  in
  let list_cmd =
    let run (finish, _, _) server =
      client_call ~server ~meth:Srv.Http.GET ~target:"/v1/jobs" ();
      finish ()
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List every known job (GET /v1/jobs).")
      Term.(const run $ common_term $ server_arg)
  in
  let wait_cmd =
    let timeout_arg =
      Arg.(
        value
        & opt float 60.0
        & info [ "timeout" ] ~docv:"SECONDS"
            ~doc:
              "Give up (error[client.timeout], exit 2) if the job is still \
               not terminal after this long.")
    in
    let poll_ms_arg =
      Arg.(
        value
        & opt int 200
        & info [ "poll-ms" ] ~docv:"MS" ~doc:"Polling interval.")
    in
    let run (finish, _, _) server id timeout poll_ms =
      let host, port = parse_server server in
      let deadline = Unix.gettimeofday () +. timeout in
      let rec poll () =
        let { Srv.Http.status; resp_body = body; _ } =
          http_request_retrying ~host ~port ~meth:Srv.Http.GET
            ~target:("/v1/jobs/" ^ id) ()
        in
        if status <> 200 then begin
          Printf.eprintf "error: HTTP %d\n%s" status (newline_terminated body);
          exit 1
        end;
        let json =
          match Json.of_string body with
          | Ok json -> json
          | Error msg ->
            raise
              (E.Error
                 (E.make ~code:"client.bad_response" E.Io
                    ("cannot parse job status: " ^ msg)))
        in
        let state =
          Option.value ~default:""
            (Option.bind (Json.member "state" json) Json.to_string_opt)
        in
        match state with
        | "done" -> (
          (* The result body is the op's canonical rendering (for risk
             jobs: byte-identical to [datasets risk]); print it alone so
             scripts can diff it directly. *)
          match
            Option.bind (Json.member "result" json) Json.to_string_opt
          with
          | Some result -> print_string (newline_terminated result)
          | None -> print_string (newline_terminated body))
        | ("failed" | "cancelled" | "orphaned") as state ->
          (* Exit through the typed-error path (exit 2) with the job's
             own error code, so scripts branch on error[job.cancelled],
             error[job.orphaned], ... *)
          let code, message =
            match Json.member "error" json with
            | Some error_json ->
              ( Option.value ~default:("job." ^ state)
                  (Option.bind (Json.member "code" error_json)
                     Json.to_string_opt),
                Option.value
                  ~default:("job " ^ id ^ " " ^ state)
                  (Option.bind (Json.member "message" error_json)
                     Json.to_string_opt) )
            | None -> ("job." ^ state, "job " ^ id ^ " " ^ state)
          in
          raise
            (E.Error
               (E.make ~code E.Resource message
                  ~context:[ ("job", id); ("state", state) ]))
        | state ->
          if Unix.gettimeofday () > deadline then
            raise
              (E.Error
                 (E.make ~code:"client.timeout" E.Resource
                    (Printf.sprintf "job %s still %s after %gs" id state
                       timeout)
                    ~context:[ ("job", id); ("state", state) ]))
          else begin
            Unix.sleepf (float_of_int poll_ms /. 1000.0);
            poll ()
          end
      in
      poll ();
      finish ()
    in
    Cmd.v
      (Cmd.info "wait"
         ~doc:
           "Poll a job until it reaches a terminal state. Prints the \
            result body on success; a failed/cancelled/orphaned job exits \
            2 with its typed error code.")
      Term.(
        const run $ common_term $ server_arg $ job_pos $ timeout_arg
        $ poll_ms_arg)
  in
  let cancel_cmd =
    let run (finish, _, _) server id =
      client_call ~server ~meth:Srv.Http.DELETE ~target:("/v1/jobs/" ^ id) ();
      finish ()
    in
    Cmd.v
      (Cmd.info "cancel"
         ~doc:
           "Cooperatively cancel a job (DELETE /v1/jobs/JOB): queued jobs \
            settle immediately, running jobs stop at their next budget \
            poll point; either way the worker slot is released and the \
            job reports job.cancelled.")
      Term.(const run $ common_term $ server_arg $ job_pos)
  in
  Cmd.group
    (Cmd.info "jobs"
       ~doc:
         "Submit and track async anonymization/risk jobs on a running \
          $(b,vadasa serve): submit, status, list, wait, cancel — thin \
          clients over /v1/jobs. Per-tenant quotas and rate limits answer \
          429 with Retry-After, honoured by the built-in retry. See \
          docs/JOBS.md.")
    [ submit_cmd; status_cmd; list_cmd; wait_cmd; cancel_cmd ]

(* ---- main ------------------------------------------------------------------------- *)

let () =
  let doc = "Vada-SA: reasoning-based statistical disclosure control" in
  let info = Cmd.info "vadasa" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        generate_cmd;
        categorize_cmd;
        risk_cmd;
        anonymize_cmd;
        attack_cmd;
        reason_cmd;
        explain_cmd;
        profile_cmd;
        serve_cmd;
        datasets_cmd;
        append_cmd;
        jobs_cmd;
      ]
  in
  (* The registry clients write to a server that may answer (413) and
     close before the upload ends: that must be EPIPE, not a kill. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* [~catch:false] lets typed errors reach this handler: every failure
     in the taxonomy prints as one [error[code]] line plus its context
     pairs (file, line, column, …) and exits 2. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception E.Error e ->
    Printf.eprintf "error[%s]: %s\n" e.E.code e.E.message;
    List.iter (fun (k, v) -> Printf.eprintf "  %s: %s\n" k v) e.E.context;
    exit 2
