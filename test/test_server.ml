(* Tests for the vadasa serve subsystem: the HTTP parser and serializer,
   the router, the shared LRU caches, the domain worker pool, concurrent
   reads of a quiescent fact store, and an end-to-end in-process server
   exercised over real sockets (64 concurrent risk requests must come
   back byte-identical to the CLI's [risk --json] rendering, a repeat
   reasoned request must hit the compiled-program cache, and a saturated
   pool must answer 503). *)

module Srv = Vadasa_server
module Http = Srv.Http
module Json = Vadasa_base.Json
module S = Vadasa_sdc
module V = Vadasa_vadalog
module Task_pool = Vadasa_base.Task_pool

(* --- HTTP parser -------------------------------------------------------- *)

let parse s = Http.read_request (Http.reader_of_string s)

let check_error what expected = function
  | Ok (_ : Http.request) -> Alcotest.failf "%s: expected an error" what
  | Error e ->
    Alcotest.(check int)
      what expected (Http.error_response e).Http.status

let test_parse_get () =
  match parse "GET /v1/x?a=1&b=hello%20world HTTP/1.1\r\nHost: h\r\n\r\n" with
  | Error _ -> Alcotest.fail "expected a parse"
  | Ok req ->
    Alcotest.(check string) "path" "/v1/x" req.Http.path;
    Alcotest.(check (option string)) "a" (Some "1") (Http.query_param req "a");
    Alcotest.(check (option string))
      "decoded" (Some "hello world")
      (Http.query_param req "b");
    Alcotest.(check (option string))
      "header, case-insensitive" (Some "h") (Http.header req "HOST");
    Alcotest.(check string) "empty body" "" req.Http.body

let test_parse_post_body () =
  let body = "col\n1\n2\n" in
  let raw =
    Printf.sprintf
      "POST /v1/risk HTTP/1.1\r\ncontent-type: text/csv\r\ncontent-length: \
       %d\r\n\r\n%s"
      (String.length body) body
  in
  match parse raw with
  | Error _ -> Alcotest.fail "expected a parse"
  | Ok req ->
    Alcotest.(check string) "body" body req.Http.body;
    Alcotest.(check bool) "method" true (req.Http.meth = Http.POST);
    (* the client's serializer writes what the parser reads *)
    match parse (Http.request_to_string req) with
    | Error _ -> Alcotest.fail "wire form must parse"
    | Ok again ->
      Alcotest.(check string) "round-trip target" "/v1/risk" again.Http.target;
      Alcotest.(check string) "round-trip body" body again.Http.body

let test_parse_body_split_across_reads () =
  (* a reader that yields one byte at a time still produces the body *)
  let body = String.make 70 'x' in
  let raw =
    Printf.sprintf "POST / HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let pos = ref 0 in
  let one_byte buf off _len =
    if !pos >= String.length raw then 0
    else begin
      Bytes.set buf off raw.[!pos];
      incr pos;
      1
    end
  in
  match Http.read_request one_byte with
  | Error _ -> Alcotest.fail "expected a parse"
  | Ok req -> Alcotest.(check string) "body" body req.Http.body

let test_oversized_body_413 () =
  let limits = { Http.default_limits with Http.max_body_bytes = 10 } in
  let raw = "POST / HTTP/1.1\r\ncontent-length: 11\r\n\r\nhello world" in
  (match Http.read_request ~limits (Http.reader_of_string raw) with
  | Ok _ -> Alcotest.fail "expected 413"
  | Error e ->
    Alcotest.(check int) "413" 413 (Http.error_response e).Http.status);
  (* at the limit is fine *)
  let raw = "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nhelloworld" in
  match Http.read_request ~limits (Http.reader_of_string raw) with
  | Ok req -> Alcotest.(check string) "at limit" "helloworld" req.Http.body
  | Error _ -> Alcotest.fail "10 bytes should parse"

let test_malformed_400 () =
  check_error "garbage request line" 400 (parse "NOT-HTTP\r\n\r\n");
  check_error "bad version" 400 (parse "GET / HTTP/9.9\r\n\r\n");
  check_error "header without colon" 400
    (parse "GET / HTTP/1.1\r\nbadheader\r\n\r\n");
  check_error "negative content-length" 400
    (parse "POST / HTTP/1.1\r\ncontent-length: -1\r\n\r\n");
  check_error "non-numeric content-length" 400
    (parse "POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n");
  check_error "truncated body" 400
    (parse "POST / HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort");
  check_error "truncated headers" 400 (parse "GET / HTTP/1.1\r\nhost: h\r\n")

let test_chunked_501 () =
  check_error "chunked" 501
    (parse "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")

let test_header_block_limit () =
  let limits = { Http.default_limits with Http.max_header_bytes = 64 } in
  let raw =
    "GET / HTTP/1.1\r\nbig: " ^ String.make 200 'x' ^ "\r\n\r\n"
  in
  match Http.read_request ~limits (Http.reader_of_string raw) with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error e ->
    Alcotest.(check int) "400" 400 (Http.error_response e).Http.status

let read_response s = Http.read_response (Http.reader_of_string s)

let test_response_round_trip () =
  let resp = Http.response ~status:200 "{\"ok\":true}" in
  let wire = Http.response_to_string resp in
  Alcotest.(check bool)
    "status line" true
    (Astring_contains.contains wire "HTTP/1.1 200 OK\r\n");
  Alcotest.(check bool)
    "content-length" true
    (Astring_contains.contains wire "content-length: 11\r\n");
  Alcotest.(check bool)
    "connection close" true
    (Astring_contains.contains wire "connection: close\r\n");
  (* it reads back through the shared reader: a blank line inside the
     body is body, header names come back lowercased *)
  let body = "a\r\n\r\nb" in
  let resp = Http.response ~headers:[ ("Retry-After", "3") ] ~status:503 body in
  match read_response (Http.response_to_string resp) with
  | Error _ -> Alcotest.fail "expected a response"
  | Ok r ->
    Alcotest.(check int) "status" 503 r.Http.status;
    Alcotest.(check string) "body keeps its CRLFCRLF" body r.Http.resp_body;
    Alcotest.(check (option string))
      "lowercased name" (Some "3")
      (List.assoc_opt "retry-after" r.Http.resp_headers)

let test_read_response_malformed () =
  let rejects what s =
    match read_response s with
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error _ -> ()
  in
  rejects "body shorter than content-length"
    "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort";
  rejects "garbled status line" "HTTP/1.1 OK 200\r\n\r\n";
  rejects "not a status line" "GET / HTTP/1.1\r\n\r\n";
  rejects "truncated headers" "HTTP/1.1 200 OK\r\nx: y\r\n";
  Alcotest.(check bool)
    "no bytes is Closed" true
    (read_response "" = Error Http.Closed)

let test_percent_decode () =
  Alcotest.(check string)
    "plus and hex" "a b/c" (Http.percent_decode "a+b%2Fc");
  Alcotest.(check string) "lone percent" "100%" (Http.percent_decode "100%")

(* --- request options -------------------------------------------------- *)

(* The query string and a JSON body decode through one decoder: the
   same options, and the same failures under each shape's error code. *)
let test_options_both_shapes () =
  let decode ?(content_type = "text/csv") target body =
    match
      parse
        (Printf.sprintf
           "POST %s HTTP/1.1\r\ncontent-type: %s\r\ncontent-length: %d\r\n\r\n%s"
           target content_type (String.length body) body)
    with
    | Error _ -> Alcotest.fail "request must parse"
    | Ok req -> (
      match Srv.Codec.parse_payload req with
      | Ok p -> Json.to_string (Srv.Codec.options_to_json p.Srv.Codec.options)
      | Error e -> "error " ^ e.Vadasa_base.Error.code)
  in
  let query q = decode ("/v1/risk?" ^ q) "a\n1\n" in
  let json fields =
    decode ~content_type:"application/json" "/v1/risk"
      (Printf.sprintf {|{"csv": "a\n1\n", %s}|} fields)
  in
  Alcotest.(check string)
    "every option"
    (json
       {|"name": "x", "measure": "suda", "k": 3, "threshold": 0.25,
         "msu_threshold": 2, "categories": {"a": "identifier"},
         "reasoned": true, "method": "recode", "semantics": "standard",
         "budget_ms": 5, "max_facts": 7, "audit": true|})
    (query
       "name=x&measure=suda&k=3&threshold=0.25&msu-threshold=2&category=a=identifier&reasoned=true&method=recode&semantics=standard&budget-ms=5&max-facts=7&audit=true");
  List.iter
    (fun (q, j) ->
      Alcotest.(check string) q "error request.bad_param" (query q);
      Alcotest.(check string) j "error request.bad_field" (json j))
    [
      ("k=x", {|"k": "x"|});
      ("threshold=x", {|"threshold": "x"|});
      ("budget-ms=0", {|"budget_ms": 0|});
      ("category=a", {|"categories": {"a": 1}|});
    ]

(* --- router -------------------------------------------------------------- *)

let dummy_handler body _req = Http.response ~status:200 body

let test_router_dispatch () =
  let router =
    Srv.Router.create
      [
        (Http.GET, "/a", dummy_handler "a");
        (Http.POST, "/a", dummy_handler "posted");
        (Http.GET, "/b", dummy_handler "b");
      ]
  in
  let req meth path =
    match
      parse (Printf.sprintf "%s %s HTTP/1.1\r\n\r\n" meth path)
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "request builds"
  in
  Alcotest.(check string)
    "GET /a" "a"
    (Srv.Router.dispatch router (req "GET" "/a")).Http.resp_body;
  Alcotest.(check string)
    "POST /a" "posted"
    (Srv.Router.dispatch router (req "POST" "/a")).Http.resp_body;
  Alcotest.(check int)
    "unknown path" 404
    (Srv.Router.dispatch router (req "GET" "/nope")).Http.status;
  let not_allowed = Srv.Router.dispatch router (req "DELETE" "/b") in
  Alcotest.(check int) "wrong method" 405 not_allowed.Http.status;
  Alcotest.(check (option string))
    "allow header" (Some "GET")
    (List.assoc_opt "allow" not_allowed.Http.resp_headers)

(* --- cache --------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Srv.Cache.create ~capacity:8 "t" in
  Alcotest.(check (option int)) "empty" None (Srv.Cache.find_opt c "k");
  let v, hit = Srv.Cache.find_or_build_hit c "k" (fun _ -> 42) in
  Alcotest.(check int) "built" 42 v;
  Alcotest.(check bool) "first is a miss" false hit;
  let v, hit = Srv.Cache.find_or_build_hit c "k" (fun _ -> 99) in
  Alcotest.(check int) "cached value survives" 42 v;
  Alcotest.(check bool) "second is a hit" true hit;
  Alcotest.(check int) "hits" 1 (Metric_value.int (Srv.Cache.metrics c) "hits");
  (* find_opt "k" missed once, find_or_build_hit missed once *)
  Alcotest.(check int) "misses" 2 (Metric_value.int (Srv.Cache.metrics c) "misses")

let test_cache_lru_eviction () =
  let c = Srv.Cache.create ~capacity:2 "t" in
  ignore (Srv.Cache.find_or_build c "a" (fun _ -> 1));
  ignore (Srv.Cache.find_or_build c "b" (fun _ -> 2));
  ignore (Srv.Cache.find_opt c "a");
  (* "b" is now the least recently used; inserting "c" evicts it *)
  ignore (Srv.Cache.find_or_build c "c" (fun _ -> 3));
  Alcotest.(check int) "size bounded" 2 (Metric_value.int (Srv.Cache.metrics c) "size");
  Alcotest.(check (option int)) "a kept" (Some 1) (Srv.Cache.find_opt c "a");
  Alcotest.(check (option int)) "b evicted" None (Srv.Cache.find_opt c "b");
  Alcotest.(check int) "one eviction" 1 (Metric_value.int (Srv.Cache.metrics c) "evictions")

let test_cache_concurrent_builders () =
  let c = Srv.Cache.create ~capacity:8 "t" in
  let builds = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Srv.Cache.find_or_build c "k" (fun _ ->
                Atomic.incr builds;
                7)))
  in
  let values = List.map Domain.join domains in
  List.iter (fun v -> Alcotest.(check int) "same value" 7 v) values;
  Alcotest.(check bool)
    "at least one build, no corruption" true
    (Atomic.get builds >= 1);
  Alcotest.(check int) "one entry" 1 (Metric_value.int (Srv.Cache.metrics c) "size")

(* --- pool ---------------------------------------------------------------- *)

let test_pool_runs_jobs () =
  (* a submit-only pool of [domains] runs on [domains - 1] workers *)
  let pool = Task_pool.create ~capacity:16 ~domains:3 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 10 do
    let ok = Task_pool.submit pool (fun () -> Atomic.incr hits) in
    Alcotest.(check bool) "accepted" true ok
  done;
  Task_pool.stop pool;
  Alcotest.(check int) "all ran before stop returned" 10 (Atomic.get hits);
  Alcotest.(check bool)
    "stopped pool rejects" false
    (Task_pool.submit pool ignore);
  Alcotest.(check bool)
    "no worker domains rejects" false
    (Task_pool.submit (Task_pool.create ~domains:1 ()) ignore)

let test_pool_saturation_rejects () =
  let pool = Task_pool.create ~capacity:2 ~domains:2 () in
  let release = Atomic.make false in
  let block () = while not (Atomic.get release) do Domain.cpu_relax () done in
  (* one job occupies the worker; two fill the queue; the next must bounce *)
  Alcotest.(check bool) "worker busy" true (Task_pool.submit pool block);
  (* wait until the worker has actually dequeued the blocking job *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Task_pool.queue_length pool > 0 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "queued 1" true (Task_pool.submit pool ignore);
  Alcotest.(check bool) "queued 2" true (Task_pool.submit pool ignore);
  Alcotest.(check bool)
    "queue full rejects" false
    (Task_pool.submit pool ignore);
  Alcotest.(check int) "rejection enqueued nothing" 2
    (Task_pool.queue_length pool);
  Atomic.set release true;
  Task_pool.stop pool

(* --- concurrent reads of a quiescent fact store -------------------------- *)

let test_database_concurrent_lookup () =
  let db = V.Database.create () in
  let n = 2000 in
  for i = 0 to n - 1 do
    ignore
      (V.Database.add db "p"
         [|
           Vadasa_base.Value.Int (i mod 17);
           Vadasa_base.Value.Str (Printf.sprintf "s%d" (i mod 5));
           Vadasa_base.Value.Int i;
         |])
  done;
  (* sequential ground truth, on indexes built by this domain *)
  let expected pos v = V.Database.lookup db "p" ~pos v in
  let truth0 = expected 0 (Vadasa_base.Value.Int 3) in
  let truth1 = expected 1 (Vadasa_base.Value.Str "s2") in
  (* a fresh store: the hammer builds indexes concurrently from scratch *)
  let db2 = V.Database.create () in
  V.Database.iter_pred db "p" (fun fact ->
      ignore (V.Database.add db2 "p" (Array.copy fact)));
  let errors = Atomic.make 0 in
  let domains =
    List.init 6 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              let r0 = V.Database.lookup db2 "p" ~pos:0 (Vadasa_base.Value.Int 3) in
              let r1 =
                V.Database.lookup db2 "p" ~pos:1 (Vadasa_base.Value.Str "s2")
              in
              if r0 <> truth0 || r1 <> truth1 then Atomic.incr errors;
              (* vary which position each domain touches first *)
              ignore
                (V.Database.lookup db2 "p" ~pos:(d mod 3)
                   (V.Database.nth db2 "p" (d * 7)).(d mod 3))
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get errors)

(* --- end-to-end ----------------------------------------------------------- *)

open E2e

let test_e2e_concurrent_risk () =
  let csv, name = Lazy.force figure6 in
  (* What the CLI's [risk --json] prints for this input: same codec. *)
  let expected =
    let payload =
      {
        Srv.Codec.csv;
        options = { Srv.Codec.default_options with Srv.Codec.name };
      }
    in
    let md =
      match Srv.Codec.microdata_of_payload payload with
      | Ok md -> md
      | Error e ->
        Alcotest.failf "categorization failed: %s" (Vadasa_base.Error.to_string e)
    in
    let report = S.Risk.estimate (S.Risk.K_anonymity { k = 2 }) md in
    Srv.Codec.risk_report_string ~threshold:0.5 md report
  in
  with_server (fun _server port ->
      let target = "/v1/risk?name=" ^ name in
      let clients =
        List.init 64 (fun _ ->
            Domain.spawn (fun () ->
                http_call ~port ~meth:"POST" ~target
                  ~headers:[ ("content-type", "text/csv") ]
                  ~body:csv ()))
      in
      let results = List.map Domain.join clients in
      List.iteri
        (fun i (status, body) ->
          if status <> 200 then Alcotest.failf "client %d: status %d" i status;
          if not (String.equal body expected) then
            Alcotest.failf "client %d: response not byte-identical" i)
        results;
      (* the dataset cache collapsed 64 identical bodies into one build *)
      let handlers = Srv.Server.handlers _server in
      Alcotest.(check int)
        "one dataset cached" 1
        (Metric_value.int (Srv.Cache.metrics (Srv.Handlers.datasets handlers)) "size"))

let test_e2e_program_cache_hit () =
  let csv, name = Lazy.force figure6 in
  with_server (fun server port ->
      let target = "/v1/reason?name=" ^ name in
      let call () =
        http_call ~port ~meth:"POST" ~target
          ~headers:[ ("content-type", "text/csv") ]
          ~body:csv ()
      in
      let status1, body1 = call () in
      Alcotest.(check int) "first 200" 200 status1;
      Alcotest.(check bool)
        "first misses" true
        (Astring_contains.contains body1 "\"program_cache_hit\": false");
      let status2, body2 = call () in
      Alcotest.(check int) "second 200" 200 status2;
      Alcotest.(check bool)
        "second hits" true
        (Astring_contains.contains body2 "\"program_cache_hit\": true");
      let handlers = Srv.Server.handlers server in
      Alcotest.(check int)
        "hit counted" 1
        (Metric_value.int (Srv.Cache.metrics (Srv.Handlers.programs handlers)) "hits");
      (* the hit is visible in /metrics *)
      let status, metrics = http_call ~port ~meth:"GET" ~target:"/metrics" () in
      Alcotest.(check int) "metrics 200" 200 status;
      match Json.of_string metrics with
      | Error m -> Alcotest.failf "metrics is JSON: %s" m
      | Ok json ->
        let hits =
          Option.bind (Json.member "caches" json) (fun c ->
              Option.bind (Json.member "programs" c) (Json.member "hits"))
          |> Fun.flip Option.bind Json.to_int_opt
        in
        Alcotest.(check (option int)) "metrics shows the hit" (Some 1) hits)

let test_e2e_error_statuses () =
  with_server (fun _server port ->
      let status, _ = http_call ~port ~meth:"GET" ~target:"/healthz" () in
      Alcotest.(check int) "healthz" 200 status;
      let status, _ = http_call ~port ~meth:"GET" ~target:"/nope" () in
      Alcotest.(check int) "404" 404 status;
      let status, _ = http_call ~port ~meth:"PUT" ~target:"/v1/risk" () in
      Alcotest.(check int) "405" 405 status;
      let status, _ =
        http_call ~port ~meth:"POST" ~target:"/v1/risk"
          ~headers:[ ("content-type", "application/json") ]
          ~body:"{\"nope\"" ()
      in
      Alcotest.(check int) "bad JSON 400" 400 status;
      let status, body =
        http_call ~port ~meth:"POST" ~target:"/v1/risk"
          ~headers:[ ("content-type", "text/csv") ]
          ~body:"a,b\n1\n" ()
      in
      (* ragged CSV is a malformed input envelope: Parse category, 400 *)
      Alcotest.(check int) "ragged CSV 400" 400 status;
      Alcotest.(check bool)
        "carries the error code" true
        (Astring_contains.contains body "csv.ragged_row"))

let test_e2e_oversized_413 () =
  let config =
    {
      config with
      Srv.Server.domains = 1;
      max_body_bytes = 64;
    }
  in
  with_server ~config (fun _server port ->
      let status, _ =
        http_call ~port ~meth:"POST" ~target:"/v1/risk"
          ~headers:[ ("content-type", "text/csv") ]
          ~body:(String.make 1000 'x') ()
      in
      Alcotest.(check int) "413" 413 status;
      (* A multi-MB upload outlives the socket buffers: the server
         answers and closes mid-write. The client stops writing and
         returns the 413 — or, when the reset overtook the response, a
         typed client.io; never a raw Unix_error. *)
      match
        http_call ~port ~meth:"POST" ~target:"/v1/risk"
          ~headers:[ ("content-type", "text/csv") ]
          ~body:(String.make (8 * 1024 * 1024) 'x') ()
      with
      | status, _ -> Alcotest.(check int) "multi-MB 413" 413 status
      | exception Vadasa_base.Error.Error e ->
        Alcotest.(check string) "typed client error" "client.io" e.code)

let test_e2e_pool_saturation_503 () =
  (* One worker, one queue slot, and a route that blocks until released:
     the third concurrent request must be answered 503 by the accept
     loop itself. *)
  let release = Atomic.make false in
  let entered = Atomic.make 0 in
  let blocking _req =
    Atomic.incr entered;
    while not (Atomic.get release) do Domain.cpu_relax () done;
    Http.response ~status:200 "unblocked"
  in
  let handlers = Srv.Handlers.create () in
  let router =
    Srv.Router.add
      (Srv.Handlers.router handlers)
      ~meth:Http.GET ~path:"/block" blocking
  in
  let config =
    {
      Srv.Server.default_config with
      Srv.Server.port = 0;
      domains = 1;
      queue_capacity = 1;
      request_timeout = 60.0;
    }
  in
  let server = Srv.Server.create ~config ~router handlers in
  Srv.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Srv.Server.shutdown server)
    (fun () ->
      let port = Srv.Server.port server in
      let fire () =
        Domain.spawn (fun () ->
            http_call ~port ~meth:"GET" ~target:"/block" ())
      in
      let c1 = fire () in
      (* wait until the worker is actually inside the handler *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get entered = 0 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check int) "worker entered" 1 (Atomic.get entered);
      let c2 = fire () in
      (* give the accept loop a moment to queue the second connection *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Task_pool.queue_length (Srv.Server.pool server) < 1
        && Unix.gettimeofday () < deadline
      do
        Domain.cpu_relax ()
      done;
      let status3, body3 = http_call ~port ~meth:"GET" ~target:"/block" () in
      Alcotest.(check int) "saturated: 503" 503 status3;
      Alcotest.(check bool)
        "saturation is explained" true
        (Astring_contains.contains body3 "saturated");
      Atomic.set release true;
      let status1, _ = Domain.join c1 in
      let status2, _ = Domain.join c2 in
      Alcotest.(check int) "first unblocked" 200 status1;
      Alcotest.(check int) "queued one served" 200 status2)

(* A connection still queued at its deadline is answered 408 without
   reaching a handler. With [request_timeout = 0.0] the deadline is the
   accept instant, so every connection expires — at the latest through
   the inclusive comparison. *)
let test_pool_expired_jobs () =
  let ran = Atomic.make 0 in
  let handlers = Srv.Handlers.create () in
  let router =
    Srv.Router.add
      (Srv.Handlers.router handlers)
      ~meth:Http.GET ~path:"/probe"
      (fun _req ->
        Atomic.incr ran;
        Http.response ~status:200 "ran")
  in
  let config = { config with Srv.Server.request_timeout = 0.0 } in
  let server = Srv.Server.create ~config ~router handlers in
  Srv.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Srv.Server.shutdown server;
      Srv.Handlers.shutdown handlers)
    (fun () ->
      for _ = 1 to 3 do
        let status, body =
          http_call ~port:(Srv.Server.port server) ~meth:"GET" ~target:"/probe"
            ()
        in
        Alcotest.(check int) "408" 408 status;
        Alcotest.(check (option string))
          "typed code" (Some "queue.expired") (error_code body)
      done;
      Alcotest.(check int) "handler never ran" 0 (Atomic.get ran))

(* The value of the unlabelled sample [name] in a Prometheus body. *)
let prom_sample body name =
  let prefix = name ^ " " in
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           Some
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
         else None)

let scrape port =
  let { Http.status; resp_body; _ } =
    http_call_full ~port ~meth:"GET" ~target:"/metrics"
      ~headers:[ ("accept", "text/plain; version=0.0.4") ]
      ()
  in
  Alcotest.(check int) "scrape 200" 200 status;
  resp_body

let with_telemetry k =
  let module T = Vadasa_telemetry.Telemetry in
  let was_enabled = T.enabled () in
  T.set_enabled true;
  T.reset T.global;
  Fun.protect ~finally:(fun () -> T.set_enabled was_enabled) k

(* GET [target] and read until the server closes the connection, as a
   client that frames responses by the close does. *)
let get_to_eof ~port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n" target
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      match Http.read_response (Http.reader_of_string (Buffer.contents buf)) with
      | Ok r -> r.Http.status
      | Error _ -> Alcotest.fail "unparsable response")

(* A request is counted before its response is written: a client that
   scrapes as soon as it has the response, whether it framed it by the
   close ([get_to_eof]) or by its Content-Length ([Http.call]), must
   find it in the latency histogram. *)
let latency_counted_by get () =
  with_telemetry (fun () ->
      with_server (fun _server port ->
          for i = 1 to 200 do
            Alcotest.(check int) "200" 200 (get ~port "/healthz");
            Alcotest.(check (option string))
              (Printf.sprintf "counted after request %d" i)
              (Some (string_of_int i))
              (prom_sample (scrape port)
                 "vadasa_http_latency_GET_healthz_count")
          done))

let test_e2e_latency_counted_before_close = latency_counted_by get_to_eof

let test_e2e_latency_counted_before_write =
  latency_counted_by (fun ~port target ->
      fst (http_call ~port ~meth:"GET" ~target ()))

(* Every accepted connection records its queue wait once, before it is
   served: after n requests the scrape (itself connection n + 1) sees
   n + 1 waits and as many submissions. *)
let test_e2e_pool_wait_histogram () =
  with_telemetry (fun () ->
      with_server (fun _server port ->
          let n = 5 in
          for _ = 1 to n do
            let status, _ = http_call ~port ~meth:"GET" ~target:"/healthz" () in
            Alcotest.(check int) "200" 200 status
          done;
          let body = scrape port in
          let accepted = Some (string_of_int (n + 1)) in
          Alcotest.(check bool)
            "histogram family" true
            (Astring_contains.contains body
               "# TYPE vadasa_server_pool_wait histogram");
          Alcotest.(check (option string))
            "one wait per accepted connection" accepted
            (prom_sample body "vadasa_server_pool_wait_count");
          Alcotest.(check (option string))
            "submissions" accepted
            (prom_sample body "vadasa_pool_jobs_total{outcome=\"submitted\"}")))

let test_e2e_request_id_round_trip () =
  let module T = Vadasa_telemetry.Telemetry in
  let lock = Mutex.create () in
  let lines = ref [] in
  let sink line =
    Mutex.lock lock;
    lines := line :: !lines;
    Mutex.unlock lock
  in
  let snapshot () =
    Mutex.lock lock;
    let l = !lines in
    Mutex.unlock lock;
    l
  in
  let config =
    {
      config with
      Srv.Server.access_log = Some sink;
      trace_sample = Some 1;
    }
  in
  let was_enabled = T.enabled () in
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () -> T.set_enabled was_enabled)
    (fun () ->
      with_server ~config (fun _server port ->
          let resp =
            http_call_full ~port ~meth:"GET" ~target:"/healthz"
              ~headers:[ ("x-vadasa-request-id", "test-id-123") ]
              ()
          in
          Alcotest.(check int) "200" 200 resp.Http.status;
          Alcotest.(check (option string))
            "request id echoed in the response" (Some "test-id-123")
            (List.assoc_opt "x-vadasa-request-id" resp.Http.resp_headers);
          (* the log and trace lines land after the response is written *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            List.length (snapshot ()) < 2 && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          let captured = snapshot () in
          let has pred = List.exists pred captured in
          let contains needle line = Astring_contains.contains line needle in
          Alcotest.(check bool)
            "access log carries request_id/endpoint/latency_ms" true
            (has (fun l ->
                 contains "test-id-123" l
                 && contains "latency_ms" l
                 && contains "endpoint" l));
          Alcotest.(check bool)
            "sampled trace carries the id and the root span" true
            (has (fun l ->
                 contains "test-id-123" l
                 && contains "http.request" l
                 && contains "\"trace\"" l))))

let test_e2e_metrics_content_negotiation () =
  with_server (fun _server port ->
      let { Http.status; resp_headers; resp_body = body } =
        http_call_full ~port ~meth:"GET" ~target:"/metrics"
          ~headers:[ ("accept", "text/plain; version=0.0.4") ]
          ()
      in
      Alcotest.(check int) "prometheus 200" 200 status;
      Alcotest.(check (option string))
        "prometheus content type" (Some Srv.Handlers.content_type)
        (List.assoc_opt "content-type" resp_headers);
      Alcotest.(check bool)
        "exposition body" true
        (String.length body > 0 && body.[0] = '#');
      Alcotest.(check bool)
        "pool series present" true
        (Astring_contains.contains body "vadasa_pool_jobs_total");
      Alcotest.(check bool)
        "pool utilization gauges present" true
        (Astring_contains.contains body "vadasa_pool_utilization"
        && Astring_contains.contains body "vadasa_pool_busy_domains"
        && Astring_contains.contains body "vadasa_pool_domains");
      (* no Accept header: JSON stays the default *)
      let status, body = http_call ~port ~meth:"GET" ~target:"/metrics" () in
      Alcotest.(check int) "json 200" 200 status;
      Alcotest.(check bool)
        "json body" true
        (String.length body > 0 && body.[0] = '{'))

(* Accept-header negotiation is parsed, not substring-matched: q=0
   means "explicitly not acceptable", and media types are compared as
   whole tokens. *)
let test_accept_negotiation () =
  let wants accept =
    match
      parse (Printf.sprintf "GET /metrics HTTP/1.1\r\naccept: %s\r\n\r\n" accept)
    with
    | Ok req -> Srv.Handlers.wants_prometheus req
    | Error _ -> Alcotest.fail "request should parse"
  in
  Alcotest.(check bool) "text/plain" true (wants "text/plain");
  Alcotest.(check bool)
    "versioned exposition" true
    (wants "text/plain; version=0.0.4");
  Alcotest.(check bool)
    "openmetrics" true
    (wants "application/openmetrics-text; version=1.0.0");
  Alcotest.(check bool)
    "second entry counts" true
    (wants "text/html, text/plain;q=0.5");
  Alcotest.(check bool)
    "q=0 is explicitly not acceptable" false
    (wants "text/html, text/plain;q=0");
  Alcotest.(check bool)
    "token match, not substring" false
    (wants "text/plain-extended");
  Alcotest.(check bool) "bare wildcard keeps JSON" false (wants "*/*")

(* Client-controlled paths must not grow the instrument set: requests
   to paths no route serves collapse into the single "unmatched"
   latency bucket instead of interning one histogram per path. *)
let test_e2e_unmatched_path_cardinality () =
  let module T = Vadasa_telemetry.Telemetry in
  let was_enabled = T.enabled () in
  T.set_enabled true;
  T.reset T.global;
  Fun.protect
    ~finally:(fun () -> T.set_enabled was_enabled)
    (fun () ->
      with_server (fun _server port ->
          List.iter
            (fun target ->
              let status, _ = http_call ~port ~meth:"GET" ~target () in
              Alcotest.(check int) "404" 404 status)
            [ "/no-such-path-1"; "/no-such-path-2"; "/probe/random" ];
          let status, _ = http_call ~port ~meth:"GET" ~target:"/healthz" () in
          Alcotest.(check int) "200" 200 status;
          (* latency is observed before the response is written *)
          let names =
            List.map fst (T.Report.capture T.global).T.Report.histograms
          in
          Alcotest.(check bool)
            "unmatched paths collapse into one bucket" true
            (List.mem "http.latency.unmatched" names);
          Alcotest.(check bool)
            "known endpoint keyed by its route" true
            (List.mem "http.latency.GET healthz" names);
          Alcotest.(check bool)
            "no client-controlled name interned" false
            (List.exists
               (fun n ->
                 Astring_contains.contains n "no-such-path"
                 || Astring_contains.contains n "probe")
               names)))

(* Generated request ids must not skew --trace-sample: the sampling
   counter advances exactly once per request, so 4 requests at N=2
   yield exactly 2 trace lines. *)
let test_e2e_trace_sample_rate () =
  let module T = Vadasa_telemetry.Telemetry in
  let lock = Mutex.create () in
  let lines = ref [] in
  let sink line =
    Mutex.lock lock;
    lines := line :: !lines;
    Mutex.unlock lock
  in
  let count pred =
    Mutex.lock lock;
    let l = !lines in
    Mutex.unlock lock;
    List.length (List.filter pred l)
  in
  let config =
    {
      config with
      Srv.Server.domains = 1;
      access_log = Some sink;
      trace_sample = Some 2;
    }
  in
  let was_enabled = T.enabled () in
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () -> T.set_enabled was_enabled)
    (fun () ->
      with_server ~config (fun _server port ->
          for _ = 1 to 4 do
            let status, _ = http_call ~port ~meth:"GET" ~target:"/healthz" () in
            Alcotest.(check int) "200" 200 status
          done;
          (* trace lines are emitted before each access-log line, so
             once all 4 log lines are in, so are the traces *)
          let logs () =
            count (fun l -> Astring_contains.contains l "\"status\"")
          in
          let deadline = Unix.gettimeofday () +. 5.0 in
          while logs () < 4 && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.01
          done;
          Alcotest.(check int) "4 access-log lines" 4 (logs ());
          Alcotest.(check int)
            "exactly every 2nd request sampled" 2
            (count (fun l -> Astring_contains.contains l "\"trace\""))))

(* --slow-ms must dump a span tree for a slow request even with trace
   sampling off, and the line must carry the slow marker. *)
let test_e2e_slow_request_logged () =
  let module T = Vadasa_telemetry.Telemetry in
  let lock = Mutex.create () in
  let lines = ref [] in
  let sink line =
    Mutex.lock lock;
    lines := line :: !lines;
    Mutex.unlock lock
  in
  let snapshot () =
    Mutex.lock lock;
    let l = !lines in
    Mutex.unlock lock;
    l
  in
  let config =
    {
      config with
      Srv.Server.domains = 1;
      access_log = Some sink;
      trace_sample = None;
      slow_ms = Some 1;
    }
  in
  let was_enabled = T.enabled () in
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () -> T.set_enabled was_enabled)
    (fun () ->
      with_server ~config (fun _server port ->
          (* a full risk estimation comfortably exceeds 1 ms *)
          let csv, name = Lazy.force figure6 in
          let status, _ =
            http_call ~port ~meth:"POST" ~target:("/v1/risk?name=" ^ name)
              ~headers:[ ("content-type", "text/csv") ]
              ~body:csv ()
          in
          Alcotest.(check int) "risk 200" 200 status;
          let deadline = Unix.gettimeofday () +. 5.0 in
          let slow_line () =
            List.find_opt
              (fun l -> Astring_contains.contains l "\"slow\":true")
              (snapshot ())
          in
          while slow_line () = None && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.01
          done;
          match slow_line () with
          | None -> Alcotest.fail "no slow trace line emitted"
          | Some line ->
            Alcotest.(check bool)
              "slow line carries the span tree and latency" true
              (Astring_contains.contains line "\"trace\""
              && Astring_contains.contains line "latency_ms"
              && Astring_contains.contains line "http.request")))

(* The /v1/explain contract: the response body is the exact string the
   CLI's [explain --json] prints — both go through
   [Codec.explain_string] over the same provenance tree. *)
let explain_program =
  {|@label("base_case").
path(X, Y) :- edge(X, Y).
@label("step").
path(X, Y) :- edge(X, Z), path(Z, Y).
edge(a, b). edge(b, c).
@output("path").
|}

let test_e2e_explain_byte_identical () =
  let expected =
    let program = V.Parser.parse explain_program in
    let engine = V.Engine.create program in
    Fun.protect
      ~finally:(fun () -> V.Engine.shutdown engine)
      (fun () ->
        V.Engine.run engine;
        match
          V.Engine.explain engine "path"
            [| Vadasa_base.Value.Str "a"; Vadasa_base.Value.Str "c" |]
        with
        | Some tree -> Srv.Codec.explain_string tree
        | None -> Alcotest.fail "path(a, c) should be derivable")
  in
  with_server (fun _server port ->
      let body =
        Json.to_string
          (Json.Obj
             [
               ("program", Json.Str explain_program);
               ("fact", Json.Str "path(a, c)");
             ])
      in
      let status, resp =
        http_call ~port ~meth:"POST" ~target:"/v1/explain"
          ~headers:[ ("content-type", "application/json") ]
          ~body ()
      in
      Alcotest.(check int) "explain 200" 200 status;
      Alcotest.(check string) "byte-identical to the CLI rendering" expected
        resp)

let pinned_series =
  [
    "vadasa_breaker_state{endpoint=\"GET /v1/jobs/{id}\"}";
    "vadasa_breaker_state{endpoint=\"POST /v1/datasets/{id}/facts\"}";
    "vadasa_breaker_state{endpoint=\"POST /v1/jobs\"}";
    "vadasa_breaker_state{endpoint=\"POST /v1/reason\"}";
    "vadasa_breaker_state{endpoint=\"POST /v1/risk\"}";
    "vadasa_breaker_state{endpoint=\"PUT /v1/datasets/{id}\"}";
    "vadasa_cache_evictions_total{cache=\"datasets\"}";
    "vadasa_cache_evictions_total{cache=\"programs\"}";
    "vadasa_cache_hits_total{cache=\"datasets\"}";
    "vadasa_cache_hits_total{cache=\"programs\"}";
    "vadasa_cache_misses_total{cache=\"datasets\"}";
    "vadasa_cache_misses_total{cache=\"programs\"}";
    "vadasa_cache_size{cache=\"datasets\"}";
    "vadasa_cache_size{cache=\"programs\"}";
    "vadasa_csv_read_bytes_total";
    "vadasa_csv_read_rows_total";
    "vadasa_csv_write_bytes_total";
    "vadasa_csv_write_rows_total";
    "vadasa_datasets_appends_total";
    "vadasa_datasets_bytes";
    "vadasa_datasets_evictions_total";
    "vadasa_datasets_registered";
    "vadasa_datasets_rows";
    "vadasa_engine_agg_groups_total";
    "vadasa_engine_facts_derived_total";
    "vadasa_engine_facts_duplicate_total";
    "vadasa_engine_facts_total_total";
    "vadasa_engine_iteration_delta_count";
    "vadasa_engine_iteration_delta_sum";
    "vadasa_engine_iteration_derived_count";
    "vadasa_engine_iteration_derived_sum";
    "vadasa_engine_iteration_duplicates_count";
    "vadasa_engine_iteration_duplicates_sum";
    "vadasa_engine_iterations_total";
    "vadasa_engine_nulls_created_total";
    "vadasa_engine_provenance_nodes_total";
    "vadasa_engine_strata_total";
    "vadasa_http_latency_GET_v1_jobs__id__count";
    "vadasa_http_latency_GET_v1_jobs__id__sum";
    "vadasa_http_latency_POST_v1_datasets__id__facts_count";
    "vadasa_http_latency_POST_v1_datasets__id__facts_sum";
    "vadasa_http_latency_POST_v1_jobs_count";
    "vadasa_http_latency_POST_v1_jobs_sum";
    "vadasa_http_latency_POST_v1_reason_count";
    "vadasa_http_latency_POST_v1_reason_sum";
    "vadasa_http_latency_POST_v1_risk_count";
    "vadasa_http_latency_POST_v1_risk_sum";
    "vadasa_http_latency_PUT_v1_datasets__id__count";
    "vadasa_http_latency_PUT_v1_datasets__id__sum";
    "vadasa_http_requests_total{method=\"GET\",path=\"/v1/jobs/{id}\",status=\"200\"}";
    "vadasa_http_requests_total{method=\"POST\",path=\"/v1/datasets/{id}/facts\",status=\"200\"}";
    "vadasa_http_requests_total{method=\"POST\",path=\"/v1/jobs\",status=\"202\"}";
    "vadasa_http_requests_total{method=\"POST\",path=\"/v1/reason\",status=\"200\"}";
    "vadasa_http_requests_total{method=\"POST\",path=\"/v1/risk\",status=\"200\"}";
    "vadasa_http_requests_total{method=\"PUT\",path=\"/v1/datasets/{id}\",status=\"201\"}";
    "vadasa_jobs_cancelled_total";
    "vadasa_jobs_completed_total";
    "vadasa_jobs_failed_total";
    "vadasa_jobs_orphaned_total";
    "vadasa_jobs_pruned_total";
    "vadasa_jobs_queued";
    "vadasa_jobs_rejected_total{gate=\"queue\"}";
    "vadasa_jobs_rejected_total{gate=\"quota\"}";
    "vadasa_jobs_rejected_total{gate=\"rate\"}";
    "vadasa_jobs_replayed_total";
    "vadasa_jobs_running";
    "vadasa_jobs_submitted_total";
    "vadasa_journal_appends_total";
    "vadasa_journal_batches_total";
    "vadasa_journal_bytes_total";
    "vadasa_journal_errors_total";
    "vadasa_journal_fsyncs_total";
    "vadasa_journal_replayed_records_total";
    "vadasa_journal_skipped_records_total";
    "vadasa_journal_snapshots_total";
    "vadasa_journal_truncated_bytes";
    "vadasa_pool_busy_domains";
    "vadasa_pool_domains";
    "vadasa_pool_jobs_total{outcome=\"completed\"}";
    "vadasa_pool_jobs_total{outcome=\"expired\"}";
    "vadasa_pool_jobs_total{outcome=\"raised\"}";
    "vadasa_pool_jobs_total{outcome=\"rejected\"}";
    "vadasa_pool_jobs_total{outcome=\"submitted\"}";
    "vadasa_pool_queue_depth";
    "vadasa_pool_utilization";
    "vadasa_relational_group_stats_class_tests_total";
    "vadasa_sdc_risk_estimates_total";
    "vadasa_sdc_risk_global";
    "vadasa_sdc_risk_tuples_count";
    "vadasa_sdc_risk_tuples_sum";
    "vadasa_server_pool_wait_count";
    "vadasa_server_pool_wait_sum";
    "vadasa_uptime_seconds";
  ]

(* The "# TYPE" lines of an exposition, minus the runtime's gc.* gauges
   (one family per domain that happened to serve a scrape). *)
let families body =
  String.split_on_char '\n' body
  |> List.filter (fun l ->
         String.starts_with ~prefix:"# TYPE " l
         && not (String.starts_with ~prefix:"# TYPE vadasa_gc_" l))
  |> List.sort_uniq compare

let explain_new_names ~port ~pred ~label =
  let program =
    Printf.sprintf "@label(%S).\n%s(X) :- seed(X).\nseed(a).\n@output(%S).\n" label
      pred pred
  in
  let body =
    Json.to_string
      (Json.Obj [ ("program", Json.Str program); ("fact", Json.Str (pred ^ "(a)")) ])
  in
  let status, _ =
    http_call ~port ~meth:"POST" ~target:"/v1/explain"
      ~headers:[ ("content-type", "application/json") ]
      ~body ()
  in
  Alcotest.(check int) (pred ^ " explained") 200 status

(* Predicate names and rule labels are client text: explaining programs
   with new ones must not add series to /metrics. *)
let test_e2e_program_text_adds_no_series () =
  with_telemetry (fun () ->
      with_server (fun _server port ->
          explain_new_names ~port ~pred:"alphaq" ~label:"alpha_rule";
          (* the first scrape's own latency family shows from the second *)
          ignore (scrape port);
          let before = families (scrape port) in
          explain_new_names ~port ~pred:"betaq" ~label:"beta_rule";
          explain_new_names ~port ~pred:"gammaq" ~label:"gamma_rule";
          Alcotest.(check (list string)) "same families" before (families (scrape port))))

(* Every sample name and label set /metrics exports on one fixed server
   state (a data dir, one dataset with one append, one reasoned chase,
   one job, one cache hit, breaker circuits), without histogram buckets
   and gc.* gauges: a series dropped from any component's [metrics] list
   fails here. *)
let test_e2e_pinned_series () =
  let dir = Filename.temp_file "vadasa-series" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let csv, name = Lazy.force figure6 in
  let persist = Srv.Persist.open_ ~dir () in
  let handlers = Srv.Handlers.create ~persist ~job_domains:1 () in
  with_telemetry (fun () ->
      with_server ~handlers (fun _server port ->
          let call meth target body =
            let status, resp = http_call ~port ~meth ~target ~body () in
            if status >= 300 then Alcotest.failf "%s %s: %d %s" meth target status resp;
            resp
          in
          ignore (call "PUT" "/v1/datasets/d" (csv_slice csv 0 100));
          ignore (call "POST" "/v1/datasets/d/facts" (csv_slice csv 100 120));
          (* the scenario's one engine run: keeps the engine.* families *)
          ignore (call "POST" "/v1/reason" (csv_slice csv 0 100));
          let field key body = Option.bind (Json.member key (json_of body)) Json.to_string_opt in
          let job =
            Option.get (field "id" (call "POST" "/v1/jobs" {|{"dataset": "d", "op": "risk"}|}))
          in
          let rec settle tries =
            let state = field "state" (call "GET" ("/v1/jobs/" ^ job) "") in
            if state <> Some "done" && tries > 0 then begin
              Unix.sleepf 0.05;
              settle (tries - 1)
            end
          in
          settle 400;
          for _ = 1 to 2 do
            ignore (call "POST" ("/v1/risk?name=" ^ name) csv)
          done;
          let series =
            String.split_on_char '\n' (scrape port)
            |> List.filter_map (fun line ->
                   match String.rindex_opt line ' ' with
                   | Some i
                     when line <> ""
                          && line.[0] <> '#'
                          && not
                               (Astring_contains.contains line "_bucket{"
                               || String.starts_with ~prefix:"vadasa_gc_" line) ->
                     Some (String.sub line 0 i)
                   | _ -> None)
            |> List.sort_uniq compare
          in
          Alcotest.(check (list string)) "series" pinned_series series))

let test_e2e_explain_not_found_422 () =
  with_server (fun _server port ->
      let body =
        Json.to_string
          (Json.Obj
             [
               ("program", Json.Str explain_program);
               ("fact", Json.Str "path(c, a)");
             ])
      in
      let status, resp =
        http_call ~port ~meth:"POST" ~target:"/v1/explain"
          ~headers:[ ("content-type", "application/json") ]
          ~body ()
      in
      Alcotest.(check int) "fact the chase never derived: 422" 422 status;
      Alcotest.(check bool)
        "carries the typed code" true
        (Astring_contains.contains resp "fact.not_found");
      (* a fact that does not even parse is a malformed request: 400 *)
      let body =
        Json.to_string
          (Json.Obj
             [
               ("program", Json.Str explain_program);
               ("fact", Json.Str "path(X, ");
             ])
      in
      let status, resp =
        http_call ~port ~meth:"POST" ~target:"/v1/explain"
          ~headers:[ ("content-type", "application/json") ]
          ~body ()
      in
      Alcotest.(check int) "unparsable fact: 400" 400 status;
      Alcotest.(check bool)
        "carries fact.invalid" true
        (Astring_contains.contains resp "fact.invalid"))

let test_e2e_anonymize_audit_embedded () =
  let csv, name = Lazy.force figure6 in
  with_server (fun _server port ->
      let call target =
        http_call ~port ~meth:"POST" ~target
          ~headers:[ ("content-type", "text/csv") ]
          ~body:csv ()
      in
      (* without the opt-in, no trail in the response *)
      let status, body = call ("/v1/anonymize?name=" ^ name) in
      Alcotest.(check int) "anonymize 200" 200 status;
      Alcotest.(check bool)
        "no audit by default" false
        (Astring_contains.contains body "\"audit\"");
      let status, body = call ("/v1/anonymize?name=" ^ name ^ "&audit=true") in
      Alcotest.(check int) "audited anonymize 200" 200 status;
      match Json.of_string body with
      | Error m -> Alcotest.failf "response is JSON: %s" m
      | Ok json ->
        let rounds =
          Json.member "rounds" json
          |> Fun.flip Option.bind Json.to_int_opt
          |> Option.value ~default:0
        in
        Alcotest.(check bool) "cycle ran rounds" true (rounds > 0);
        (match Json.member "audit" json with
        | Some (Json.List events) ->
          Alcotest.(check int) "one audit event per round" rounds
            (List.length events);
          List.iter
            (fun e ->
              Alcotest.(check bool)
                "event is an object with a round" true
                (match e with
                | Json.Obj fields -> List.mem_assoc "round" fields
                | _ -> false))
            events
        | _ -> Alcotest.fail "audit trail missing from the response"))

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "server"
    [
      ( "http",
        [
          Alcotest.test_case "parse GET with query" `Quick test_parse_get;
          Alcotest.test_case "parse POST body" `Quick test_parse_post_body;
          Alcotest.test_case "byte-at-a-time reader" `Quick
            test_parse_body_split_across_reads;
          Alcotest.test_case "oversized body 413" `Quick test_oversized_body_413;
          Alcotest.test_case "malformed 400" `Quick test_malformed_400;
          Alcotest.test_case "chunked 501" `Quick test_chunked_501;
          Alcotest.test_case "header block limit" `Quick test_header_block_limit;
          Alcotest.test_case "response wire form" `Quick test_response_round_trip;
          Alcotest.test_case "malformed responses" `Quick
            test_read_response_malformed;
          Alcotest.test_case "percent decode" `Quick test_percent_decode;
        ] );
      ( "router",
        [ Alcotest.test_case "dispatch/404/405" `Quick test_router_dispatch ] );
      ( "options",
        [ Alcotest.test_case "query and JSON agree" `Quick test_options_both_shapes ] );
      ( "cache",
        [
          Alcotest.test_case "hit and miss counters" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "concurrent builders" `Quick
            test_cache_concurrent_builders;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs jobs, drains on stop" `Quick
            test_pool_runs_jobs;
          Alcotest.test_case "saturation rejects" `Quick
            test_pool_saturation_rejects;
          Alcotest.test_case "queued past deadline expires" `Quick
            test_pool_expired_jobs;
          Alcotest.test_case "queue wait per accepted connection" `Quick
            test_e2e_pool_wait_histogram;
        ] );
      ( "database",
        [
          Alcotest.test_case "concurrent lookup on quiescent store" `Quick
            test_database_concurrent_lookup;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "64 concurrent risk, byte-identical" `Slow
            test_e2e_concurrent_risk;
          Alcotest.test_case "program cache hit on repeat reason" `Slow
            test_e2e_program_cache_hit;
          Alcotest.test_case "status codes" `Quick test_e2e_error_statuses;
          Alcotest.test_case "oversized body over the wire" `Quick
            test_e2e_oversized_413;
          Alcotest.test_case "pool saturation answers 503" `Slow
            test_e2e_pool_saturation_503;
          Alcotest.test_case "latency counted before close" `Quick
            test_e2e_latency_counted_before_close;
          Alcotest.test_case "latency counted before the write" `Quick
            test_e2e_latency_counted_before_write;
          Alcotest.test_case "request id round trip" `Quick
            test_e2e_request_id_round_trip;
          Alcotest.test_case "metrics content negotiation" `Quick
            test_e2e_metrics_content_negotiation;
          Alcotest.test_case "accept header parsing" `Quick
            test_accept_negotiation;
          Alcotest.test_case "unmatched paths share one bucket" `Quick
            test_e2e_unmatched_path_cardinality;
          Alcotest.test_case "trace sample rate exact" `Quick
            test_e2e_trace_sample_rate;
          Alcotest.test_case "slow request always traced" `Quick
            test_e2e_slow_request_logged;
          Alcotest.test_case "explain byte-identical to CLI" `Quick
            test_e2e_explain_byte_identical;
          Alcotest.test_case "explain missing fact 422" `Quick
            test_e2e_explain_not_found_422;
          Alcotest.test_case "program text adds no series" `Quick
            test_e2e_program_text_adds_no_series;
          Alcotest.test_case "pinned series" `Quick test_e2e_pinned_series;
          Alcotest.test_case "anonymize embeds audit trail" `Quick
            test_e2e_anonymize_audit_embedded;
        ] );
    ]
