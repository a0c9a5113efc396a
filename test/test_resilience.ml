(* Failure-path tests for the resilience layer: the monotonic clock,
   cooperative budgets, the typed error taxonomy and its HTTP mapping,
   deterministic fault injection, the per-endpoint circuit breaker, the
   engine's structured interrupts, the pool's inclusive deadline, and an
   end-to-end degraded /v1/risk under an armed slow-engine fault. *)

module E = Vadasa_base.Error
module Budget = Vadasa_base.Budget
module Clock = Vadasa_base.Clock
module Json = Vadasa_base.Json
module Faultpoint = Vadasa_resilience.Faultpoint
module S = Vadasa_sdc
module D = Vadasa_datagen
module V = Vadasa_vadalog
module Srv = Vadasa_server

(* --- clock ---------------------------------------------------------------- *)

let test_clock_monotone () =
  let a = Clock.now () in
  let b = Clock.now () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool)
    "deadline in the future" true
    (Clock.deadline_in 10.0 > a)

let test_clock_expired_inclusive () =
  Alcotest.(check bool) "before" false (Clock.expired ~now:4.9 5.0);
  (* the boundary itself counts as expired — the pool-race fix *)
  Alcotest.(check bool) "exactly at" true (Clock.expired ~now:5.0 5.0);
  Alcotest.(check bool) "after" true (Clock.expired ~now:5.1 5.0)

(* --- budget --------------------------------------------------------------- *)

let test_budget_unconstrained () =
  let b = Budget.create () in
  Alcotest.(check bool) "no reason" true (Budget.check b ~facts:1_000_000 = None)

let test_budget_cancel () =
  let b = Budget.create () in
  Alcotest.(check bool) "not yet" true (Budget.check b ~facts:0 = None);
  Budget.cancel b;
  Alcotest.(check bool) "cancelled" true (Budget.cancelled b);
  Alcotest.(check bool)
    "reported" true
    (Budget.check b ~facts:0 = Some Budget.Cancelled)

let test_budget_deadline () =
  let b = Budget.create ~deadline:(Clock.now () -. 1.0) () in
  Alcotest.(check bool)
    "expired" true
    (Budget.check b ~facts:0 = Some Budget.Deadline);
  (* earlier of the two deadline forms wins *)
  let b2 = Budget.create ~deadline_in:3600.0 ~deadline:(Clock.now () -. 1.0) () in
  Alcotest.(check bool)
    "earlier wins" true
    (Budget.check b2 ~facts:0 = Some Budget.Deadline)

let test_budget_fact_ceiling () =
  let b = Budget.create ~max_facts:10 () in
  Alcotest.(check bool) "under" true (Budget.check b ~facts:9 = None);
  Alcotest.(check bool)
    "at the cap" true
    (Budget.check b ~facts:10 = Some Budget.Fact_ceiling);
  Alcotest.(check bool)
    "over" true
    (Budget.check b ~facts:11 = Some Budget.Fact_ceiling)

let test_budget_priority_and_codes () =
  let b = Budget.create ~deadline:(Clock.now () -. 1.0) ~max_facts:1 () in
  Budget.cancel b;
  (* all three exhausted: cancel outranks deadline outranks ceiling *)
  Alcotest.(check bool)
    "cancel first" true
    (Budget.check b ~facts:100 = Some Budget.Cancelled);
  Alcotest.(check string)
    "code" "budget.cancelled"
    (Budget.reason_code Budget.Cancelled);
  Alcotest.(check string)
    "code" "budget.deadline"
    (Budget.reason_code Budget.Deadline);
  Alcotest.(check string)
    "code" "budget.fact_ceiling"
    (Budget.reason_code Budget.Fact_ceiling)

(* --- error taxonomy ------------------------------------------------------- *)

let test_error_render () =
  let e =
    E.make ~code:"csv.ragged_row" E.Parse "bad row"
      ~context:[ ("line", "3"); ("column", "2") ]
  in
  Alcotest.(check string)
    "to_string" "csv.ragged_row: bad row (line=3, column=2)" (E.to_string e);
  let json = Json.to_string (E.to_json e) in
  Alcotest.(check bool)
    "json code" true
    (Astring_contains.contains json "\"code\":\"csv.ragged_row\"");
  Alcotest.(check bool)
    "json category" true
    (Astring_contains.contains json "\"category\":\"parse\"")

let test_error_context_precedence () =
  let e = E.make ~code:"x" E.Io "m" ~context:[ ("file", "inner.csv") ] in
  let e = E.add_context e [ ("file", "outer.csv"); ("op", "load") ] in
  (* the failure site's context wins; fresh keys are appended *)
  Alcotest.(check (option string))
    "existing kept" (Some "inner.csv") (E.context_value e "file");
  Alcotest.(check (option string)) "fresh added" (Some "load")
    (E.context_value e "op")

let test_error_category_round_trip () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (E.category_to_string c) true
        (E.category_of_string (E.category_to_string c) = Some c))
    [ E.Parse; E.Wardedness; E.Resource; E.Io; E.Internal ]

let test_status_of_category () =
  let check cat status =
    Alcotest.(check int)
      (E.category_to_string cat)
      status
      (Srv.Codec.status_of_category cat)
  in
  check E.Parse 400;
  check E.Wardedness 422;
  check E.Resource 503;
  check E.Io 500;
  check E.Internal 500

let test_error_of_exn () =
  let code_of exn = (Srv.Codec.error_of_exn exn).E.code in
  Alcotest.(check string)
    "typed passthrough" "csv.ragged_row"
    (code_of (E.Error (E.make ~code:"csv.ragged_row" E.Parse "x")));
  Alcotest.(check string)
    "parser" "program.parse"
    (code_of (V.Parser.Error { line = 3; message = "nope" }));
  Alcotest.(check string)
    "stratify" "program.not_stratifiable"
    (code_of (V.Stratify.Not_stratifiable "loop"));
  Alcotest.(check string) "limit" "engine.limit" (code_of (V.Engine.Limit "x"));
  Alcotest.(check string)
    "unsupported" "measure.unsupported"
    (code_of (S.Vadalog_bridge.Unsupported "mc"));
  Alcotest.(check string)
    "unix" "io.unix"
    (code_of (Unix.Unix_error (Unix.ENOENT, "open", "f")));
  Alcotest.(check string)
    "fallback" "internal.exception" (code_of Not_found)

(* --- fault points --------------------------------------------------------- *)

let with_faults spec k =
  Faultpoint.reset ();
  (match Faultpoint.arm_spec spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm_spec %S: %s" spec (E.to_string e));
  Fun.protect ~finally:Faultpoint.reset k

let test_fault_disarmed_noop () =
  (* the disarmed path is a single atomic load: no raise, no counting *)
  Faultpoint.reset ();
  Faultpoint.hit "csv.read";
  Faultpoint.hit "csv.read";
  Alcotest.(check int) "not counted while disarmed" 0
    (Faultpoint.hit_count "csv.read")

let test_fault_fail_code () =
  with_faults "csv.read:fail" (fun () ->
      match Faultpoint.hit "csv.read" with
      | () -> Alcotest.fail "expected the injected failure"
      | exception E.Error e ->
        Alcotest.(check string) "code" "fault.csv.read" e.E.code;
        Alcotest.(check bool) "category" true (e.E.category = E.Io))

let test_fault_nth_hit () =
  with_faults "engine.iterate:fail@3" (fun () ->
      Faultpoint.hit "engine.iterate";
      Faultpoint.hit "engine.iterate";
      (match Faultpoint.hit "engine.iterate" with
      | () -> Alcotest.fail "third hit must fail"
      | exception E.Error _ -> ());
      (* only the Nth hit fires *)
      Faultpoint.hit "engine.iterate";
      Alcotest.(check int) "all hits counted" 4
        (Faultpoint.hit_count "engine.iterate"))

let test_fault_spec_errors () =
  Faultpoint.reset ();
  let rejects spec =
    match Faultpoint.arm_spec spec with
    | Ok () -> Alcotest.failf "spec %S must be rejected" spec
    | Error e -> Alcotest.(check string) spec "fault.bad_spec" e.E.code
  in
  rejects "unknown.point:fail";
  rejects "csv.read";
  rejects "csv.read:explode";
  rejects "csv.read:delay=abc";
  rejects "csv.read:fail@0";
  Alcotest.(check int) "nothing armed" 0 (List.length (Faultpoint.armed ()))

let test_fault_multi_clause_and_armed () =
  with_faults "csv.read:fail@2,http.write:delay=1ms" (fun () ->
      let names = List.map fst (Faultpoint.armed ()) in
      Alcotest.(check (list string))
        "both armed" [ "csv.read"; "http.write" ] (List.sort compare names);
      (* the delay clause sleeps but does not raise *)
      Faultpoint.hit "http.write")

(* --- circuit breaker ------------------------------------------------------ *)

let test_breaker_opens_at_threshold () =
  let b = Srv.Breaker.create ~threshold:3 ~cooldown:60.0 () in
  Srv.Breaker.failure b "k";
  Srv.Breaker.failure b "k";
  Alcotest.(check string) "still closed" "closed" (Srv.Breaker.state b "k");
  Alcotest.(check bool) "allows" true (Srv.Breaker.check b "k" = Srv.Breaker.Allow);
  Srv.Breaker.failure b "k";
  Alcotest.(check string) "open" "open" (Srv.Breaker.state b "k");
  (match Srv.Breaker.check b "k" with
  | Srv.Breaker.Allow -> Alcotest.fail "open circuit must reject"
  | Srv.Breaker.Rejected retry ->
    Alcotest.(check bool) "retry hint" true (retry > 0.0));
  (* a success on another key is independent *)
  Alcotest.(check string) "other key closed" "closed" (Srv.Breaker.state b "x")

let test_breaker_half_open_probe () =
  let b = Srv.Breaker.create ~threshold:1 ~cooldown:0.05 () in
  Srv.Breaker.failure b "k";
  Alcotest.(check string) "open" "open" (Srv.Breaker.state b "k");
  Unix.sleepf 0.06;
  (* first check after the cooldown claims the probe slot *)
  Alcotest.(check bool)
    "probe allowed" true
    (Srv.Breaker.check b "k" = Srv.Breaker.Allow);
  Alcotest.(check string) "half-open" "half_open" (Srv.Breaker.state b "k");
  (* a second caller is rejected while the probe is in flight *)
  (match Srv.Breaker.check b "k" with
  | Srv.Breaker.Allow -> Alcotest.fail "only one probe at a time"
  | Srv.Breaker.Rejected _ -> ());
  (* probe failure re-opens; probe success closes *)
  Srv.Breaker.failure b "k";
  Alcotest.(check string) "re-opened" "open" (Srv.Breaker.state b "k");
  Unix.sleepf 0.06;
  Alcotest.(check bool)
    "second probe" true
    (Srv.Breaker.check b "k" = Srv.Breaker.Allow);
  Srv.Breaker.success b "k";
  Alcotest.(check string) "closed again" "closed" (Srv.Breaker.state b "k");
  Alcotest.(check bool)
    "traffic flows" true
    (Srv.Breaker.check b "k" = Srv.Breaker.Allow)

(* --- engine interrupts ---------------------------------------------------- *)

let transitive_closure_engine () =
  let program =
    V.Parser.parse
      "@output(\"reach\").\n\
       edge(1,2). edge(2,3). edge(3,4). edge(4,5). edge(5,6).\n\
       reach(X,Y) :- edge(X,Y).\n\
       reach(X,Z) :- reach(X,Y), edge(Y,Z).\n"
  in
  V.Engine.create program

let test_engine_interrupt_consistency () =
  let engine = transitive_closure_engine () in
  let budget = Budget.create ~max_facts:3 () in
  match V.Engine.run ~budget engine with
  | () -> Alcotest.fail "expected an interrupt"
  | exception V.Engine.Interrupted i ->
    Alcotest.(check bool) "reason" true (i.V.Engine.reason = Budget.Fact_ceiling);
    (* the ceiling is polled at iteration boundaries, so the count can
       overshoot within one round but must match the engine's stats *)
    Alcotest.(check bool)
      "at or over the cap" true
      (i.V.Engine.facts_derived >= 3);
    Alcotest.(check int)
      "consistent with stats" i.V.Engine.facts_derived
      (V.Engine.stats engine).V.Engine.facts_derived;
    (* every derived fact is really in the store *)
    Alcotest.(check bool)
      "partial facts present" true
      (List.length (V.Engine.facts engine "reach") > 0)

let test_engine_cancel () =
  let engine = transitive_closure_engine () in
  let budget = Budget.create () in
  Budget.cancel budget;
  match V.Engine.run ~budget engine with
  | () -> Alcotest.fail "expected an interrupt"
  | exception V.Engine.Interrupted i ->
    Alcotest.(check bool) "reason" true (i.V.Engine.reason = Budget.Cancelled)

let test_engine_unbudgeted_unchanged () =
  let engine = transitive_closure_engine () in
  V.Engine.run engine;
  (* full closure of a 6-node chain: 5+4+3+2+1 pairs *)
  Alcotest.(check int) "saturated" 15 (List.length (V.Engine.facts engine "reach"))

let test_cycle_budget_interrupted () =
  let md = D.Suite.load ~scale:0.05 "R6A4U" in
  let exhausted = Budget.create ~deadline:(Clock.now () -. 1.0) () in
  let outcome = S.Cycle.run ~budget:exhausted md in
  Alcotest.(check bool)
    "outcome flags the interrupt" true
    (outcome.S.Cycle.interrupted = Some Budget.Deadline);
  let outcome = S.Cycle.run md in
  Alcotest.(check bool)
    "unbudgeted runs clean" true
    (outcome.S.Cycle.interrupted = None)

(* --- end-to-end degraded risk --------------------------------------------- *)

open E2e

(* --- pool deadline (inclusive) and enqueue fault ----------------------------- *)

let test_pool_exact_deadline_expires () =
  (* [request_timeout = 0.0] stamps the deadline at the accept instant:
     the worker starts the connection at now >= deadline, and the
     inclusive comparison must answer 408 rather than serve it with
     zero budget. *)
  let config = { config with Srv.Server.request_timeout = 0.0 } in
  with_server ~config (fun _server port ->
      let status, body = http_call ~port ~meth:"GET" ~target:"/healthz" () in
      Alcotest.(check int) "408" 408 status;
      Alcotest.(check (option string))
        "expired while queued" (Some "queue.expired") (error_code body))

let test_pool_enqueue_fault_rejects () =
  (* An armed [pool.enqueue] rejects exactly like a full queue: the
     server answers 503 and counts the rejection... *)
  with_faults "pool.enqueue:fail@1" (fun () ->
      with_server (fun _server port ->
          let status, body =
            http_call ~port ~meth:"GET" ~target:"/healthz" ()
          in
          Alcotest.(check int) "503" 503 status;
          Alcotest.(check (option string))
            "like a full queue" (Some "queue.full") (error_code body);
          let _, metrics = http_call ~port ~meth:"GET" ~target:"/metrics" () in
          let pool = Option.get (Json.member "pool" (json_of metrics)) in
          Alcotest.(check (option int))
            "counted" (Some 1)
            (Option.bind (Json.member "rejected" pool) Json.to_int_opt)));
  (* ...and a job submission is refused as [jobs.queue_full]. Hits 1
     and 2 are the server's own submits of the PUT and the POST; hit 3
     is the job's. *)
  with_faults "pool.enqueue:fail@3" (fun () ->
      with_server (fun _server port ->
          let status, _ =
            http_call ~port ~meth:"PUT" ~target:"/v1/datasets/d"
              ~body:(Lazy.force figure6_csv) ()
          in
          Alcotest.(check int) "PUT" 201 status;
          let status, body =
            http_call ~port ~meth:"POST" ~target:"/v1/jobs"
              ~body:"{\"dataset\": \"d\", \"op\": \"risk\"}" ()
          in
          Alcotest.(check int) "503" 503 status;
          Alcotest.(check (option string))
            "job refused" (Some "jobs.queue_full") (error_code body)))

let test_e2e_degraded_risk () =
  let csv, name = Lazy.force figure6 in
  with_faults "engine.iterate:delay=30ms" (fun () ->
      with_server (fun _server port ->
          let budget_ms = 50 in
          let target =
            Printf.sprintf "/v1/risk?name=%s&reasoned=true&budget-ms=%d" name
              budget_ms
          in
          let started = Unix.gettimeofday () in
          let status, body =
            http_call ~port ~meth:"POST" ~target
              ~headers:[ ("content-type", "text/csv") ]
              ~body:csv ()
          in
          let elapsed = Unix.gettimeofday () -. started in
          Alcotest.(check int) "degraded is still a 200" 200 status;
          Alcotest.(check bool)
            "flagged degraded" true
            (Astring_contains.contains body "\"degraded\": true");
          Alcotest.(check bool)
            "carries the interrupt reason" true
            (Astring_contains.contains body "budget.deadline");
          Alcotest.(check bool)
            "partial progress present" true
            (Astring_contains.contains body "\"facts_derived\"");
          (* the budget is honoured promptly; generous slack for CI — the
             iteration boundary adds at most one 30 ms delay past 50 ms *)
          Alcotest.(check bool)
            (Printf.sprintf "answered within ~2x budget (%.0f ms)"
               (elapsed *. 1000.0))
            true (elapsed < 2.0);
          (* the same request without a budget is not degraded *)
          Faultpoint.reset ();
          let target = "/v1/risk?name=" ^ name ^ "&reasoned=true" in
          let status, body =
            http_call ~port ~meth:"POST" ~target
              ~headers:[ ("content-type", "text/csv") ]
              ~body:csv ()
          in
          Alcotest.(check int) "clean 200" 200 status;
          Alcotest.(check bool)
            "not degraded" false
            (Astring_contains.contains body "\"degraded\"")))

let test_e2e_error_codes () =
  with_server (fun _server port ->
      let expect_code what target ?headers ?body code status' =
        let status, resp_body =
          http_call ~port ~meth:"POST" ~target ?headers ?body ()
        in
        Alcotest.(check int) (what ^ " status") status' status;
        Alcotest.(check (option string))
          (what ^ " code") (Some code) (error_code resp_body)
      in
      let csv_hdr = [ ("content-type", "text/csv") ] in
      let csv, name = Lazy.force figure6 in
      expect_code "empty body" "/v1/risk" ~headers:csv_hdr "request.empty_body"
        400;
      expect_code "ragged csv" "/v1/risk" ~headers:csv_hdr ~body:"a,b\n1\n"
        "csv.ragged_row" 400;
      expect_code "unknown measure"
        ("/v1/risk?name=" ^ name ^ "&measure=nope")
        ~headers:csv_hdr ~body:csv "measure.unknown" 422;
      expect_code "unknown method"
        ("/v1/anonymize?name=" ^ name ^ "&method=nope")
        ~headers:csv_hdr ~body:csv "method.unknown" 422;
      expect_code "unknown semantics"
        ("/v1/anonymize?name=" ^ name ^ "&semantics=bogus")
        ~headers:csv_hdr ~body:csv "semantics.unknown" 422;
      expect_code "misspelled category"
        ("/v1/risk?name=" ^ name ^ "&category=qi_1=quasi-identifer")
        ~headers:csv_hdr ~body:csv "category.unknown" 422;
      expect_code "bad json" "/v1/risk"
        ~headers:[ ("content-type", "application/json") ]
        ~body:"{\"nope\"" "json.invalid" 400;
      expect_code "bad param" "/v1/risk?budget-ms=zero" ~headers:csv_hdr
        ~body:"a,b\n1,2\n" "request.bad_param" 400;
      (* router-level errors carry codes too *)
      let status, body = http_call ~port ~meth:"POST" ~target:"/nope" () in
      Alcotest.(check int) "404" 404 status;
      Alcotest.(check bool)
        "404 code" true
        (Astring_contains.contains body "http.not_found");
      let status, body = http_call ~port ~meth:"PUT" ~target:"/v1/risk" () in
      Alcotest.(check int) "405" 405 status;
      Alcotest.(check bool)
        "405 code" true
        (Astring_contains.contains body "http.method_not_allowed"))

let test_e2e_fault_500_and_breaker () =
  (* A dispatch fault surfaces as a 500 with the fault's code; enough of
     them trip the endpoint's breaker, which answers 503 breaker.open
     with a Retry-After without running the handler. *)
  let handlers =
    Srv.Handlers.create ~breaker_threshold:2 ~breaker_cooldown:60.0 ()
  in
  with_faults "handler.dispatch:fail" (fun () ->
      with_server ~handlers (fun _server port ->
          let call () =
            http_call ~port ~meth:"GET" ~target:"/healthz" ()
          in
          let status, body = call () in
          Alcotest.(check int) "injected fault is a 500" 500 status;
          Alcotest.(check bool)
            "fault code" true
            (Astring_contains.contains body "fault.handler.dispatch");
          let _ = call () in
          (* threshold reached: the circuit is now open, and the client
             sees the Retry-After its retry loop honours *)
          let { Srv.Http.status; resp_headers; resp_body = body } =
            http_call_full ~port ~meth:"GET" ~target:"/healthz" ()
          in
          Alcotest.(check int) "breaker open" 503 status;
          Alcotest.(check bool)
            "breaker code" true
            (Astring_contains.contains body "breaker.open");
          Alcotest.(check bool)
            "Retry-After seen by the client" true
            (List.mem_assoc "retry-after" resp_headers);
          Alcotest.(check string)
            "breaker visible" "open"
            (Srv.Breaker.state (Srv.Handlers.breaker handlers) "GET /healthz");
          (* other endpoints are unaffected *)
          Faultpoint.reset ();
          let status, _ = http_call ~port ~meth:"GET" ~target:"/metrics" () in
          Alcotest.(check int) "metrics unaffected" 200 status;
          (* the request counters and circuit states, in both exposition
             formats *)
          let _, prom =
            http_call ~port ~meth:"GET" ~target:"/metrics"
              ~headers:[ ("accept", "text/plain; version=0.0.4") ]
              ()
          in
          let series =
            String.split_on_char '\n' prom
            |> List.filter (fun l ->
                   String.starts_with ~prefix:"vadasa_http_requests_total" l
                   || String.starts_with ~prefix:"vadasa_breaker_state" l)
          in
          Alcotest.(check (list string))
            "labelled series"
            [
              {|vadasa_http_requests_total{method="GET",path="/healthz",status="500"} 2|};
              {|vadasa_http_requests_total{method="GET",path="/healthz",status="503"} 1|};
              {|vadasa_http_requests_total{method="GET",path="/metrics",status="200"} 1|};
              {|vadasa_breaker_state{endpoint="GET /healthz"} 2|};
              {|vadasa_breaker_state{endpoint="GET /metrics"} 0|};
            ]
            series;
          let _, body = http_call ~port ~meth:"GET" ~target:"/metrics" () in
          Alcotest.(check string)
            "JSON request keys"
            {|{"GET /healthz 500":2,"GET /healthz 503":1,"GET /metrics 200":2}|}
            (Json.to_string
               (Option.get (Json.member "requests" (json_of body))))))

let test_e2e_server_max_facts_degrades () =
  (* The server-wide fact ceiling (serve --max-facts) degrades reasoned
     requests that bring no budget of their own. *)
  let csv, name = Lazy.force figure6 in
  let handlers = Srv.Handlers.create ~default_max_facts:5 () in
  with_server ~handlers (fun _server port ->
      let status, body =
        http_call ~port ~meth:"POST"
          ~target:("/v1/reason?name=" ^ name)
          ~headers:[ ("content-type", "text/csv") ]
          ~body:csv ()
      in
      Alcotest.(check int) "200" 200 status;
      Alcotest.(check bool)
        "degraded" true
        (Astring_contains.contains body "\"degraded\": true");
      Alcotest.(check bool)
        "ceiling reason" true
        (Astring_contains.contains body "budget.fact_ceiling"))

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "resilience"
    [
      ( "clock",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "inclusive expiry" `Quick
            test_clock_expired_inclusive;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unconstrained" `Quick test_budget_unconstrained;
          Alcotest.test_case "cancel" `Quick test_budget_cancel;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "fact ceiling inclusive" `Quick
            test_budget_fact_ceiling;
          Alcotest.test_case "priority and codes" `Quick
            test_budget_priority_and_codes;
        ] );
      ( "error",
        [
          Alcotest.test_case "rendering" `Quick test_error_render;
          Alcotest.test_case "context precedence" `Quick
            test_error_context_precedence;
          Alcotest.test_case "category round trip" `Quick
            test_error_category_round_trip;
          Alcotest.test_case "HTTP status mapping" `Quick
            test_status_of_category;
          Alcotest.test_case "exception mapping" `Quick test_error_of_exn;
        ] );
      ( "faultpoint",
        [
          Alcotest.test_case "disarmed no-op counts" `Quick
            test_fault_disarmed_noop;
          Alcotest.test_case "fail carries code" `Quick test_fault_fail_code;
          Alcotest.test_case "fail@N fires once" `Quick test_fault_nth_hit;
          Alcotest.test_case "bad specs rejected" `Quick test_fault_spec_errors;
          Alcotest.test_case "multi-clause arming" `Quick
            test_fault_multi_clause_and_armed;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens at threshold" `Quick
            test_breaker_opens_at_threshold;
          Alcotest.test_case "half-open probe lifecycle" `Quick
            test_breaker_half_open_probe;
        ] );
      ( "engine",
        [
          Alcotest.test_case "interrupt counts consistent" `Quick
            test_engine_interrupt_consistency;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "unbudgeted unchanged" `Quick
            test_engine_unbudgeted_unchanged;
          Alcotest.test_case "cycle reports interrupt" `Quick
            test_cycle_budget_interrupted;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exact deadline expires" `Quick
            test_pool_exact_deadline_expires;
          Alcotest.test_case "enqueue fault rejects" `Quick
            test_pool_enqueue_fault_rejects;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "degraded risk under budget" `Slow
            test_e2e_degraded_risk;
          Alcotest.test_case "error codes on the wire" `Slow
            test_e2e_error_codes;
          Alcotest.test_case "fault 500 and breaker" `Slow
            test_e2e_fault_500_and_breaker;
          Alcotest.test_case "server-wide fact ceiling" `Slow
            test_e2e_server_max_facts_degrades;
        ] );
    ]
