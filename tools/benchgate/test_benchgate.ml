(* The counter gate's comparison, on perfbench-shaped run outputs. *)

module G = Benchgate

let per_layer =
  match
    G.per_layer_of_string
      {|{"per_layer": [
          {"name": "vadalog.engine.scanned", "unit": "count", "better": "lower"},
          {"name": "vadalog.engine.match_ratio", "unit": "ratio", "better": "higher"},
          {"name": "vadalog.engine.run_ms", "unit": "ms", "better": "lower"},
          {"name": "gc.minor_mwords_per_op", "unit": "Mwords", "better": "lower"}]}|}
  with
  | Ok m -> m
  | Error e -> Alcotest.fail e

(* Two lines as perfbench prints them: the run label, then the result. *)
let output ?(workload = "reason-chase") ?(seed = 1) ?(seconds = 3)
    ?(trace = true) ?(correct = true) metrics =
  Printf.sprintf
    {|{"label":{"nproc":2},"workload":%S,"seed":%d,"seconds":%d,"trace":%b,"ops":126}
{"correct":%b,"attempted":252,"failed":0,"metrics":{%s}}
|}
    workload seed seconds trace correct
    (String.concat ","
       (List.map
          (fun (name, v) -> Printf.sprintf {|%S:{"value":%.17g,"unit":"x"}|} name v)
          metrics))

let run ?workload ?seed ?seconds metrics =
  match G.run_of_string (output ?workload ?seed ?seconds metrics) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let metrics ?(scanned = 19518.92) ?(ratio = 0.8347) ?(run_ms = 12.08)
    ?(minor = 1.0091) () =
  [
    ("vadalog.engine.scanned", scanned);
    ("vadalog.engine.match_ratio", ratio);
    ("vadalog.engine.run_ms", run_ms);
    ("gc.minor_mwords_per_op", minor);
  ]

let gate ?(base2 = metrics ()) head =
  match G.compare per_layer ~base:(run (metrics ()), run base2) ~head:(run head) with
  | Ok rows -> rows
  | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let status rows name = (List.find (fun r -> r.G.name = name) rows).G.status

let status_t =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with G.Held -> "held" | G.Worse -> "worse" | G.Ungated -> "ungated"))
    ( = )

let test_equal_runs_pass () =
  let rows = gate (metrics ()) in
  List.iter
    (fun r ->
      if r.G.name <> "gc.minor_mwords_per_op" then
        Alcotest.check status_t r.G.name G.Held r.G.status)
    rows;
  Alcotest.(check bool)
    "table counts" true
    (contains (G.render (run (metrics ())) rows)
       "gated 3: held 3, worse 0; ungated 1")

let test_lower_one_unit_worse_fails () =
  let rows = gate (metrics ~scanned:19519.92 ()) in
  Alcotest.check status_t "scanned" G.Worse (status rows "vadalog.engine.scanned");
  let rows = gate (metrics ~scanned:19517.92 ()) in
  Alcotest.check status_t "fewer scanned holds" G.Held
    (status rows "vadalog.engine.scanned")

let test_higher_metric () =
  Alcotest.check status_t "lower ratio is worse" G.Worse
    (status (gate (metrics ~ratio:0.8346 ())) "vadalog.engine.match_ratio");
  Alcotest.check status_t "higher ratio holds" G.Held
    (status (gate (metrics ~ratio:0.9 ())) "vadalog.engine.match_ratio")

let test_unreproduced_metric_ungated () =
  let rows = gate ~base2:(metrics ~run_ms:12.31 ()) (metrics ~run_ms:99.0 ()) in
  Alcotest.check status_t "run_ms" G.Ungated (status rows "vadalog.engine.run_ms");
  Alcotest.(check bool)
    "spread printed" true
    (contains (G.render (run (metrics ())) rows) "12.08 .. 12.31")

let test_gc_never_gated () =
  let rows = gate (metrics ~minor:1.5 ()) in
  Alcotest.check status_t "gc" G.Ungated (status rows "gc.minor_mwords_per_op")

let test_absent_from_head_fails () =
  let rows = gate (List.tl (metrics ())) in
  Alcotest.check status_t "scanned" G.Worse (status rows "vadalog.engine.scanned")

let test_mismatched_labels_rejected () =
  let base = (run (metrics ()), run (metrics ())) in
  List.iter
    (fun (what, head) ->
      match G.compare per_layer ~base ~head with
      | Ok _ -> Alcotest.failf "%s mismatch accepted" what
      | Error _ -> ())
    [
      ("workload", run ~workload:"anonymize-suite" (metrics ()));
      ("seed", run ~seed:2 (metrics ()));
      ("seconds", run ~seconds:15 (metrics ()));
    ]

let test_inputs () =
  (match G.run_of_string (output ~correct:false (metrics ())) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "run marked incorrect rejected: %s" e);
  (match G.run_of_string (output ~trace:false (metrics ())) with
  | Ok _ -> Alcotest.fail "untraced run accepted"
  | Error _ -> ());
  (match G.run_of_string "" with
  | Ok _ -> Alcotest.fail "empty output accepted"
  | Error _ -> ());
  match G.per_layer_of_string {|{"per_layer": [{"name": "x", "better": "up"}]}|} with
  | Ok _ -> Alcotest.fail "unknown direction accepted"
  | Error _ -> ()

let () =
  Alcotest.run "benchgate"
    [
      ( "compare",
        [
          Alcotest.test_case "equal runs pass" `Quick test_equal_runs_pass;
          Alcotest.test_case "one unit worse on a lower metric fails" `Quick
            test_lower_one_unit_worse_fails;
          Alcotest.test_case "higher metric" `Quick test_higher_metric;
          Alcotest.test_case "unreproduced metric is not gated" `Quick
            test_unreproduced_metric_ungated;
          Alcotest.test_case "gc figures are not gated" `Quick
            test_gc_never_gated;
          Alcotest.test_case "metric absent from head fails" `Quick
            test_absent_from_head_fails;
          Alcotest.test_case "mismatched labels rejected" `Quick
            test_mismatched_labels_rejected;
        ] );
      ("inputs", [ Alcotest.test_case "run and spec parsing" `Quick test_inputs ]);
    ]
