(* Tests for the telemetry subsystem: counters, gauges, histograms,
   nested spans, the enabled gate, JSON round-trips of reports, and the
   engine integration (per-rule derivation counters). *)

module T = Vadasa_telemetry.Telemetry
module V = Vadasa_vadalog

(* --- counters and gauges ---------------------------------------------- *)

let test_counter () =
  let r = T.create () in
  let c = T.Counter.v ~registry:r "requests" in
  Alcotest.(check int) "starts at zero" 0 (T.Counter.value c);
  T.Counter.incr c;
  T.Counter.add c 4;
  Alcotest.(check int) "incr + add" 5 (T.Counter.value c);
  let c' = T.Counter.v ~registry:r "requests" in
  Alcotest.(check int) "interned by name" 5 (T.Counter.value c');
  T.Counter.set c 2;
  Alcotest.(check int) "set is absolute" 2 (T.Counter.value c')

(* A set means "the value is now v" whichever domain sets it: each
   domain adds to its own shard, and a capture sums the shards. *)
let test_counter_set_across_domains () =
  let r = T.create () in
  let captured () =
    Option.value ~default:(-1)
      (List.assoc_opt "published" (T.Report.capture r).T.Report.counters)
  in
  let on_other_domain f =
    Domain.join (Domain.spawn (fun () -> f (T.Counter.v ~registry:r "published")))
  in
  let c = T.Counter.v ~registry:r "published" in
  T.Counter.add c 5;
  on_other_domain (fun c -> T.Counter.add c 3);
  Alcotest.(check int) "adds sum across domains" 8 (captured ());
  on_other_domain (fun c -> T.Counter.set c 7);
  Alcotest.(check int) "a set on another domain wins" 7 (captured ());
  T.Counter.set c 4;
  Alcotest.(check int) "the last set wins" 4 (captured ());
  Alcotest.(check int) "value after a set" 4 (T.Counter.value c);
  T.Counter.add c 2;
  on_other_domain (fun c -> T.Counter.add c 1);
  Alcotest.(check int) "adds after a set count on top of it" 7 (captured ());
  T.reset r;
  Alcotest.(check int) "reset forgets the set" 0
    (T.Counter.value (T.Counter.v ~registry:r "published"))

let test_gauge () =
  let r = T.create () in
  let g = T.Gauge.v ~registry:r "risk" in
  T.Gauge.set g 0.25;
  T.Gauge.set g 0.75;
  Alcotest.(check (float 1e-9)) "last write wins" 0.75 (T.Gauge.value g)

(* --- histograms -------------------------------------------------------- *)

let test_histogram_exact_stats () =
  let r = T.create () in
  let h = T.Histogram.v ~registry:r "delta" in
  List.iter (fun x -> T.Histogram.observe h x) [ 4.0; 1.0; 3.0; 2.0 ];
  let s = T.Histogram.summary h in
  Alcotest.(check int) "count" 4 s.T.Histogram.count;
  Alcotest.(check (float 1e-9)) "sum" 10.0 s.T.Histogram.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.T.Histogram.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.T.Histogram.max;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.T.Histogram.mean

let test_histogram_percentiles () =
  let r = T.create () in
  let h = T.Histogram.v ~registry:r "latency" in
  (* 1..100: fits entirely in the 512-slot reservoir, so percentiles are
     exact nearest-rank values. *)
  for i = 1 to 100 do
    T.Histogram.observe h (float_of_int i)
  done;
  let s = T.Histogram.summary h in
  Alcotest.(check (float 1e-9)) "p50" 50.0 s.T.Histogram.p50;
  Alcotest.(check (float 1e-9)) "p95" 95.0 s.T.Histogram.p95;
  Alcotest.(check (float 1e-9)) "p99" 99.0 s.T.Histogram.p99

let test_histogram_reservoir_bounds () =
  let r = T.create () in
  let h = T.Histogram.v ~registry:r "big" in
  for i = 1 to 10_000 do
    T.Histogram.observe h (float_of_int i)
  done;
  let s = T.Histogram.summary h in
  Alcotest.(check int) "exact count beyond reservoir" 10_000 s.T.Histogram.count;
  (* The sampled median of uniform 1..10_000 must land well inside the
     middle of the range. *)
  Alcotest.(check bool) "sampled p50 plausible" true
    (s.T.Histogram.p50 > 2000.0 && s.T.Histogram.p50 < 8000.0)

(* --- spans ------------------------------------------------------------- *)

let test_span_nesting () =
  let r = T.create () in
  let result =
    T.Span.with_ ~registry:r "outer" (fun () ->
        T.Span.with_ ~registry:r "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "body result" 42 result;
  match T.Span.finished r with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner path" "outer/inner" inner.T.Span.sp_path;
    Alcotest.(check string) "outer path" "outer" outer.T.Span.sp_path;
    Alcotest.(check int) "inner depth" 1 inner.T.Span.sp_depth;
    Alcotest.(check bool) "outer contains inner" true
      (outer.T.Span.sp_duration >= inner.T.Span.sp_duration)
  | spans ->
    Alcotest.failf "expected 2 finished spans, got %d" (List.length spans)

let test_span_exception_safe () =
  let r = T.create () in
  (try
     T.Span.with_ ~registry:r "boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (T.Span.finished r));
  (* The raise must also pop the stack: a later span is not nested. *)
  T.Span.with_ ~registry:r "after" (fun () -> ());
  match T.Span.finished r with
  | [ _boom; after ] ->
    Alcotest.(check string) "stack unwound" "after" after.T.Span.sp_path
  | _ -> Alcotest.fail "expected 2 finished spans"

let test_span_timed () =
  let r = T.create () in
  let x, dt = T.Span.timed ~registry:r "work" (fun () -> 7) in
  Alcotest.(check int) "result" 7 x;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0)

(* --- the global gate --------------------------------------------------- *)

let test_disabled_global_is_noop () =
  T.set_enabled false;
  T.reset T.global;
  T.count "gated.counter" 3;
  T.observe "gated.histogram" 1.0;
  T.span "gated.span" (fun () -> ());
  let report = T.Report.capture T.global in
  Alcotest.(check int) "no counters" 0 (List.length report.T.Report.counters);
  Alcotest.(check int) "no histograms" 0
    (List.length report.T.Report.histograms);
  Alcotest.(check int) "no spans" 0 (List.length report.T.Report.spans)

let test_enabled_global_records () =
  T.set_enabled true;
  T.reset T.global;
  T.count "gated.counter" 3;
  T.span "gated.span" (fun () -> ());
  T.set_enabled false;
  let report = T.Report.capture T.global in
  Alcotest.(check (list (pair string int)))
    "counter recorded"
    [ ("gated.counter", 3) ]
    report.T.Report.counters;
  Alcotest.(check int) "span recorded" 1 (List.length report.T.Report.spans);
  T.reset T.global

(* --- reports and JSON -------------------------------------------------- *)

let report_of_spans spans =
  {
    T.Report.counters = [];
    gauges = [];
    histograms = [];
    spans =
      List.map
        (fun (path, total) ->
          { T.Report.agg_path = path; agg_count = 1; agg_total = total; agg_max = total })
        spans;
    dropped_spans = 0;
  }

let sample_report () =
  let r = T.create () in
  T.Counter.add (T.Counter.v ~registry:r "alpha \"quoted\"") 7;
  T.Counter.add (T.Counter.v ~registry:r "beta\nnewline") 1;
  T.Gauge.set (T.Gauge.v ~registry:r "ratio") 0.1;
  let h = T.Histogram.v ~registry:r "sizes" in
  List.iter (fun x -> T.Histogram.observe h x) [ 1.0; 2.0; 30.5 ];
  T.Span.with_ ~registry:r "run" (fun () ->
      T.Span.with_ ~registry:r "phase" (fun () -> ());
      T.Span.with_ ~registry:r "phase" (fun () -> ()));
  T.Report.capture r

let test_report_span_aggregation () =
  let report = sample_report () in
  let phase =
    List.find
      (fun a -> String.equal a.T.Report.agg_path "run/phase")
      report.T.Report.spans
  in
  Alcotest.(check int) "two phase spans aggregated" 2 phase.T.Report.agg_count;
  Alcotest.(check bool) "max <= total" true
    (phase.T.Report.agg_max <= phase.T.Report.agg_total)

let test_report_json_fields () =
  let report =
    {
      (sample_report ()) with
      T.Report.spans =
        [
          { T.Report.agg_path = "run"; agg_count = 1; agg_total = 0.75; agg_max = 0.75 };
          { T.Report.agg_path = "run/phase"; agg_count = 2; agg_total = 0.5; agg_max = 0.375 };
        ];
      dropped_spans = 3;
    }
  in
  let json =
    match
      T.Json.of_string (T.Json.to_string ~indent:true (T.Report.to_json report))
    with
    | Ok json -> json
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let member name json =
    match T.Json.member name json with
    | Some v -> v
    | None -> Alcotest.failf "missing %S" name
  in
  let int name json = T.Json.to_int_opt (member name json) in
  Alcotest.(check (option int)) "version" (Some 1) (int "version" json);
  let counters = member "counters" json in
  Alcotest.(check (option int)) "quoted counter" (Some 7)
    (int "alpha \"quoted\"" counters);
  Alcotest.(check (option int)) "newline counter" (Some 1)
    (int "beta\nnewline" counters);
  let span json =
    let float name = Option.get (T.Json.to_float_opt (member name json)) in
    ( (Option.get (T.Json.to_string_opt (member "path" json)), Option.get (int "count" json)),
      (float "total_s", float "max_s") )
  in
  Alcotest.(check (list (pair (pair string int) (pair (float 0.0) (float 0.0)))))
    "spans: path, count, total_s, max_s"
    [ (("run", 1), (0.75, 0.75)); (("run/phase", 2), (0.5, 0.375)) ]
    (List.map span (Option.get (T.Json.to_list_opt (member "spans" json))));
  Alcotest.(check (option int)) "dropped spans" (Some 3) (int "dropped_spans" json)

let test_json_escapes () =
  let tricky = "quote \" backslash \\ newline \n tab \t unicode \xc3\xa9" in
  let json = T.Json.Obj [ ("k", T.Json.Str tricky) ] in
  match T.Json.of_string (T.Json.to_string json) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
    let got =
      Option.bind (T.Json.member "k" parsed) T.Json.to_string_opt
    in
    Alcotest.(check (option string)) "string survives" (Some tricky) got

(* --- trace exporters ---------------------------------------------------- *)

(* A registry with a known span shape: root > child > leaf, plus a
   sibling child2 under root. *)
let trace_registry () =
  let r = T.create () in
  T.Span.with_ ~registry:r "root" (fun () ->
      T.Span.with_ ~registry:r "child" (fun () ->
          T.Span.with_ ~registry:r "leaf" (fun () -> ()));
      T.Span.with_ ~registry:r "child2" (fun () -> ()));
  r

let test_trace_chrome_parses_and_nests () =
  let r = trace_registry () in
  let rendered = T.Json.to_string ~indent:true (T.trace_chrome r) in
  match T.Json.of_string rendered with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok json ->
    let events =
      match Option.bind (T.Json.member "traceEvents" json) T.Json.to_list_opt with
      | Some l -> l
      | None -> Alcotest.fail "no traceEvents list"
    in
    Alcotest.(check int) "one event per finished span" 4 (List.length events);
    let field name ev =
      match T.Json.member name ev with
      | Some v -> v
      | None -> Alcotest.failf "event missing %s" name
    in
    let num ev name =
      match T.Json.to_float_opt (field name ev) with
      | Some f -> f
      | None -> Alcotest.failf "%s is not numeric" name
    in
    let path ev =
      match
        Option.bind (T.Json.member "args" ev) (fun a ->
            Option.bind (T.Json.member "path" a) T.Json.to_string_opt)
      with
      | Some p -> p
      | None -> Alcotest.fail "event missing args.path"
    in
    List.iter
      (fun ev ->
        Alcotest.(check (option string))
          "complete event" (Some "X")
          (T.Json.to_string_opt (field "ph" ev)))
      events;
    (* Every child interval must nest inside its parent's interval
       (small slack: ts/dur round through microseconds). *)
    let by_path = List.map (fun ev -> (path ev, ev)) events in
    List.iter
      (fun (p, ev) ->
        match String.rindex_opt p '/' with
        | None -> ()
        | Some i -> (
          let parent_path = String.sub p 0 i in
          match List.assoc_opt parent_path by_path with
          | None -> Alcotest.failf "no parent event for %s" p
          | Some parent ->
            let slack = 2.0 (* µs *) in
            let ts = num ev "ts" and dur = num ev "dur" in
            let pts = num parent "ts" and pdur = num parent "dur" in
            Alcotest.(check bool)
              (p ^ " starts after parent") true
              (ts +. slack >= pts);
            Alcotest.(check bool)
              (p ^ " ends before parent") true
              (ts +. dur <= pts +. pdur +. slack)))
      by_path

let test_trace_folded_roundtrip () =
  let r = trace_registry () in
  let folded = T.trace_folded r in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per distinct path" 4 (List.length lines);
  (* Each line is "a;b;c <int>"; the stack must be a finished span path
     with '/' replaced by ';', and ancestry must be reconstructible: every
     stack's prefix is itself a stack in the output. *)
  let stacks =
    List.map
      (fun line ->
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "malformed folded line %S" line
        | Some i ->
          let stack = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (match int_of_string_opt v with
          | Some n when n >= 0 -> ()
          | _ -> Alcotest.failf "bad self-time value in %S" line);
          stack)
      lines
  in
  let span_paths =
    List.map
      (fun i ->
        String.concat ";" (String.split_on_char '/' i.T.Span.sp_path))
      (T.Span.finished r)
  in
  List.iter
    (fun stack ->
      Alcotest.(check bool)
        (stack ^ " is a span path") true
        (List.mem stack span_paths);
      match String.rindex_opt stack ';' with
      | None -> ()
      | Some i ->
        let prefix = String.sub stack 0 i in
        Alcotest.(check bool)
          (prefix ^ " ancestor present") true
          (List.mem prefix stacks))
    stacks

let test_report_text_sorted_with_self () =
  let report =
    report_of_spans [ ("a", 1.0); ("b", 2.0); ("a/c", 0.25) ]
  in
  let self = T.Report.self_times report in
  Alcotest.(check (option (float 1e-9)))
    "self of a excludes child" (Some 0.75) (List.assoc_opt "a" self);
  Alcotest.(check (option (float 1e-9)))
    "leaf self = total" (Some 2.0) (List.assoc_opt "b" self);
  let text = T.Report.to_text report in
  let index needle =
    let rec find i =
      if i + String.length needle > String.length text then
        Alcotest.failf "%S not in report text" needle
      else if String.sub text i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "slowest span printed first" true
    (index "  b " < index "  a ")

let test_span_limit_and_dropped () =
  let r = T.create ~span_limit:2 () in
  for _ = 1 to 5 do
    T.Span.with_ ~registry:r "s" (fun () -> ())
  done;
  Alcotest.(check int) "retained bounded" 2 (List.length (T.Span.finished r));
  Alcotest.(check int) "overflow counted" 3 (T.Span.dropped r);
  let report = T.Report.capture r in
  Alcotest.(check int) "dropped in report" 3 report.T.Report.dropped_spans;
  T.set_span_limit r 4;
  Alcotest.(check int) "limit readable" 4 (T.span_limit r);
  T.Span.with_ ~registry:r "t" (fun () -> ());
  T.Span.with_ ~registry:r "t" (fun () -> ());
  T.Span.with_ ~registry:r "t" (fun () -> ());
  Alcotest.(check int) "raised limit retains more" 4
    (List.length (T.Span.finished r));
  Alcotest.(check int) "previous drops not forgotten" 4 (T.Span.dropped r)

(* --- domain safety ------------------------------------------------------ *)

(* N domains hammer one registry: counters must lose no increments,
   merged histograms must stay exact on count/sum and well-formed on
   buckets, and span aggregation must see every completion. *)
let test_domain_hammer () =
  let r = T.create () in
  let domains = 4 and per = 10_000 in
  let work () =
    let c = T.Counter.v ~registry:r "hammer.count" in
    let h = T.Histogram.v ~registry:r "hammer.obs" in
    for i = 1 to per do
      T.Counter.incr c;
      T.Histogram.observe h (float_of_int (i mod 100));
      if i mod 1000 = 0 then
        T.Span.with_ ~registry:r "hammer.span" (fun () -> ())
    done
  in
  let workers = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join workers;
  let report = T.Report.capture r in
  Alcotest.(check (option int))
    "zero lost counter increments"
    (Some (domains * per))
    (List.assoc_opt "hammer.count" report.T.Report.counters);
  let s =
    match List.assoc_opt "hammer.obs" report.T.Report.histograms with
    | Some s -> s
    | None -> Alcotest.fail "merged histogram missing"
  in
  Alcotest.(check int) "zero lost observations" (domains * per)
    s.T.Histogram.count;
  (* sum of (i mod 100) over 1..10_000 per domain: 100 full cycles of
     0+..+99 = 100 * 4950 *)
  Alcotest.(check (float 1e-6))
    "merged sum exact"
    (float_of_int (domains * 100 * 4950))
    s.T.Histogram.sum;
  Alcotest.(check (float 1e-9)) "merged min" 0.0 s.T.Histogram.min;
  Alcotest.(check (float 1e-9)) "merged max" 99.0 s.T.Histogram.max;
  (* buckets: cumulative, monotone, bounded by the exact count *)
  let last = ref 0 in
  List.iter
    (fun (le, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket le=%g monotone" le)
        true (n >= !last);
      last := n;
      Alcotest.(check bool)
        (Printf.sprintf "bucket le=%g bounded" le)
        true
        (n <= s.T.Histogram.count))
    s.T.Histogram.buckets;
  (* every observation is <= 99 < 100, so the le=100 bucket holds all *)
  Alcotest.(check (option int))
    "top bucket holds everything"
    (Some (domains * per))
    (List.assoc_opt 100.0 s.T.Histogram.buckets);
  (match
     List.find_opt
       (fun a -> String.equal a.T.Report.agg_path "hammer.span")
       report.T.Report.spans
   with
  | Some agg ->
    Alcotest.(check int) "all spans aggregated" (domains * (per / 1000))
      agg.T.Report.agg_count
  | None -> Alcotest.fail "hammer.span missing from report");
  Alcotest.(check int) "nothing dropped" 0 report.T.Report.dropped_spans

(* Concurrent recording against a small span limit: the retained count
   must hit the limit exactly and the dropped count must account for
   every other completion — per-shard counts summed at capture. *)
let test_span_limit_concurrent () =
  let r = T.create ~span_limit:50 () in
  let domains = 4 and per = 1_000 in
  let work () =
    for _ = 1 to per do
      T.Span.with_ ~registry:r "s" (fun () -> ())
    done
  in
  let workers = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join workers;
  Alcotest.(check int) "retained exactly at limit" 50
    (List.length (T.Span.finished r));
  Alcotest.(check int) "dropped accounts for the rest"
    ((domains * per) - 50)
    (T.Span.dropped r);
  let report = T.Report.capture r in
  Alcotest.(check int) "report agrees"
    ((domains * per) - 50)
    report.T.Report.dropped_spans

(* [with_local_trace] returns only the calling domain's spans, oldest
   first, even while another domain records into the same registry. *)
let test_with_local_trace () =
  let r = T.create () in
  let stop = Atomic.make false in
  let noisy =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          T.Span.with_ ~registry:r "other" (fun () -> Domain.cpu_relax ())
        done)
  in
  let result, events =
    T.with_local_trace ~registry:r (fun () ->
        T.Span.with_ ~registry:r "mine" (fun () ->
            T.Span.with_ ~registry:r "nested" (fun () -> ()));
        42)
  in
  Atomic.set stop true;
  Domain.join noisy;
  Alcotest.(check int) "result threads through" 42 result;
  Alcotest.(check (list string))
    "local spans only, oldest first"
    [ "mine/nested"; "mine" ]
    (List.map (fun e -> e.T.Span.sp_path) events)

(* The local trace collector is independent of the retention limit: a
   registry whose span budget is exhausted still yields complete traces
   (the server's [--trace-sample] must not die in a long run), while
   the registry itself retains nothing and counts every drop. *)
let test_local_trace_survives_span_limit () =
  let r = T.create ~span_limit:0 () in
  let result, events =
    T.with_local_trace ~registry:r (fun () ->
        T.Span.with_ ~registry:r "root" (fun () ->
            T.Span.with_ ~registry:r "child" (fun () -> ()));
        7)
  in
  Alcotest.(check int) "result threads through" 7 result;
  Alcotest.(check (list string))
    "trace complete despite exhausted retention"
    [ "root/child"; "root" ]
    (List.map (fun e -> e.T.Span.sp_path) events);
  Alcotest.(check int) "registry retained nothing" 0
    (List.length (T.Span.finished r));
  Alcotest.(check int) "drops still accounted" 2 (T.Span.dropped r)

(* --- Prometheus exposition ---------------------------------------------- *)

let test_prometheus_name () =
  Alcotest.(check string)
    "dots and spaces" "engine_facts_derived"
    (T.prometheus_name "engine.facts.derived");
  Alcotest.(check string)
    "slash and leading digit" "_fast_path"
    (T.prometheus_name "2fast/path");
  Alcotest.(check string) "empty" "_" (T.prometheus_name "")

(* A deterministic registry rendered against the checked-in golden
   exposition: counters get _total, histograms render the full bucket
   ladder + +Inf/_sum/_count, names sanitize into the Prometheus
   charset. Regenerate with:
     PROMETHEUS_GOLDEN_WRITE=test/golden_prometheus.txt \
       dune exec test/test_telemetry.exe -- test prometheus *)
let golden_registry () =
  let r = T.create () in
  T.Counter.add (T.Counter.v ~registry:r "engine.facts.derived") 42;
  T.Gauge.set (T.Gauge.v ~registry:r "sdc.risk.global") 0.25;
  let h = T.Histogram.v ~registry:r "http.latency.GET healthz" in
  List.iter (fun x -> T.Histogram.observe h x) [ 0.002; 0.004; 0.3; 77_000.0 ];
  r

let test_prometheus_golden () =
  let rendered =
    T.Prometheus.render (T.Report.capture (golden_registry ()))
  in
  (match Sys.getenv_opt "PROMETHEUS_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out path in
    output_string oc rendered;
    close_out oc
  | None -> ());
  let golden =
    (* dune runtest runs in _build/default/test; dune exec from the root *)
    let path =
      if Sys.file_exists "golden_prometheus.txt" then "golden_prometheus.txt"
      else Filename.concat "test" "golden_prometheus.txt"
    in
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  if not (String.equal rendered golden) then
    Alcotest.failf "exposition drifted from golden file:\n%s" rendered

let test_prometheus_no_duplicate_series () =
  (* Two names that sanitize to the same family must not render twice. *)
  let r = T.create () in
  T.Counter.add (T.Counter.v ~registry:r "a.b") 1;
  T.Counter.add (T.Counter.v ~registry:r "a b") 2;
  let rendered = T.Prometheus.render (T.Report.capture r) in
  let occurrences =
    String.split_on_char '\n' rendered
    |> List.filter (fun l -> l = "vadasa_a_b_total 1" || l = "vadasa_a_b_total 2")
  in
  Alcotest.(check int) "one sample for the colliding family" 1
    (List.length occurrences)

(* Non-integers print as Json.float_repr does: %g would give 123457 and
   1.23457e+06. *)
let test_prometheus_float_precision () =
  let r = T.create () in
  T.Gauge.set (T.Gauge.v ~registry:r "uptime") 123456.7;
  let metrics =
    [ T.Metric.prom T.Metric.Gauge ~family:"vadasa_big" ~help:"big" 1234567.89 ]
  in
  let lines =
    String.split_on_char '\n' (T.Prometheus.render ~metrics (T.Report.capture r))
  in
  Alcotest.(check bool) "registry gauge" true (List.mem "vadasa_uptime 123456.7" lines);
  Alcotest.(check bool) "labelled sample" true (List.mem "vadasa_big 1234567.89" lines)

(* Labelled samples: one HELP/TYPE per family, escaped label values, and
   a family already written by the registry is dropped. *)
let test_prometheus_samples () =
  let r = T.create () in
  T.Counter.add (T.Counter.v ~registry:r "taken") 1;
  let module M = T.Metric in
  let entries =
    [
      M.counter ~labels:[ ("k", "a\"b") ] ~family:"vadasa_x_total" ~help:"X" "a" 1;
      M.counter ~labels:[ ("k", "c") ] ~family:"vadasa_x_total" ~help:"X" "c" 2;
      M.gauge ~family:"vadasa_taken_total" ~help:"collides" "taken" 9;
      M.json "json_only" (T.Json.Str "s");
    ]
  in
  let rendered =
    T.Prometheus.render ~metrics:entries (T.Report.capture r)
  in
  Alcotest.(check string) "exposition"
    "# HELP vadasa_taken_total Vada-SA counter taken\n\
     # TYPE vadasa_taken_total counter\n\
     vadasa_taken_total 1\n\
     # HELP vadasa_x_total X\n\
     # TYPE vadasa_x_total counter\n\
     vadasa_x_total{k=\"a\\\"b\"} 1\n\
     vadasa_x_total{k=\"c\"} 2\n"
    rendered;
  Alcotest.(check string) "json body" {|{"a":1,"c":2,"taken":9,"json_only":"s"}|}
    (T.Json.to_string (M.to_json entries));
  Alcotest.(check string) "nested"
    {|{"outer":{"a":1,"c":2,"taken":9,"json_only":"s"}}|}
    (T.Json.to_string (M.to_json (M.nest "outer" entries)))

(* --- engine integration ------------------------------------------------ *)

let ancestry_src =
  {|
@label("base").
ancestor(X, Y) :- parent(X, Y).
@label("step").
ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
parent(a, b). parent(b, c). parent(c, d).
@output("ancestor").
|}

let test_engine_rule_counters () =
  T.set_enabled true;
  T.reset T.global;
  let engine = V.Engine.create (V.Parser.parse ancestry_src) in
  V.Engine.run engine;
  let counters () = (T.Report.capture T.global).T.Report.counters in
  (* A run mirrors only fixed-name counters; names taken from the program
     text appear once the caller publishes them. *)
  Alcotest.(check bool) "run publishes no per-rule counter" false
    (List.exists
       (fun (name, _) ->
         String.starts_with ~prefix:"engine.rule." name
         || String.starts_with ~prefix:"engine.pred." name)
       (counters ()));
  V.Engine.publish_rule_counters engine;
  T.set_enabled false;
  let stats = V.Engine.stats engine in
  Alcotest.(check bool) "facts derived" true (stats.V.Engine.facts_derived > 0);
  let derivations = V.Engine.rule_derivations engine in
  List.iter
    (fun label ->
      match List.assoc_opt label derivations with
      | Some n -> Alcotest.(check bool) (label ^ " derived facts") true (n > 0)
      | None -> Alcotest.failf "no derivation count for rule %S" label)
    [ "base"; "step" ];
  (* The published global counters must agree with the engine's stats. *)
  let report = T.Report.capture T.global in
  Alcotest.(check (option int))
    "engine.facts.derived counter"
    (Some stats.V.Engine.facts_derived)
    (List.assoc_opt "engine.facts.derived" report.T.Report.counters);
  Alcotest.(check bool) "per-rule counter present" true
    (List.mem_assoc "engine.rule.step.derived" report.T.Report.counters);
  Alcotest.(check (option int)) "per-predicate counter"
    (List.assoc_opt "ancestor" (V.Engine.pred_derivations engine))
    (List.assoc_opt "engine.pred.ancestor.derived" report.T.Report.counters);
  Alcotest.(check bool) "engine.run span present" true
    (List.exists
       (fun a -> String.equal a.T.Report.agg_path "engine.run")
       report.T.Report.spans);
  T.reset T.global

let () =
  Alcotest.run "telemetry"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter set across domains" `Quick
            test_counter_set_across_domains;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram exact stats" `Quick
            test_histogram_exact_stats;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "histogram reservoir bounds" `Quick
            test_histogram_reservoir_bounds;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting paths" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "timed" `Quick test_span_timed;
        ] );
      ( "gate",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_global_is_noop;
          Alcotest.test_case "enabled records" `Quick
            test_enabled_global_records;
        ] );
      ( "report",
        [
          Alcotest.test_case "span aggregation" `Quick
            test_report_span_aggregation;
          Alcotest.test_case "json fields" `Quick test_report_json_fields;
          Alcotest.test_case "json escapes" `Quick test_json_escapes;
          Alcotest.test_case "text sorted with self column" `Quick
            test_report_text_sorted_with_self;
        ] );
      ( "traces",
        [
          Alcotest.test_case "chrome trace parses and nests" `Quick
            test_trace_chrome_parses_and_nests;
          Alcotest.test_case "folded stacks round-trip" `Quick
            test_trace_folded_roundtrip;
          Alcotest.test_case "span limit and dropped" `Quick
            test_span_limit_and_dropped;
        ] );
      ( "domains",
        [
          Alcotest.test_case "N-domain hammer" `Quick test_domain_hammer;
          Alcotest.test_case "span limit exact under concurrency" `Quick
            test_span_limit_concurrent;
          Alcotest.test_case "with_local_trace" `Quick test_with_local_trace;
          Alcotest.test_case "local trace survives span limit" `Quick
            test_local_trace_survives_span_limit;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "name sanitation" `Quick test_prometheus_name;
          Alcotest.test_case "golden exposition" `Quick test_prometheus_golden;
          Alcotest.test_case "sanitize collisions dedup" `Quick
            test_prometheus_no_duplicate_series;
          Alcotest.test_case "non-integer precision" `Quick
            test_prometheus_float_precision;
          Alcotest.test_case "labelled samples" `Quick test_prometheus_samples;
        ] );
      ( "engine",
        [
          Alcotest.test_case "per-rule derivation counters" `Quick
            test_engine_rule_counters;
        ] );
    ]
