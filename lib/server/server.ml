(* The daemon: a listening socket, an accept loop, and the worker pool.

   The accept loop is the only place that blocks on the network; it
   multiplexes the listener against a self-pipe with [Unix.select] so a
   signal handler can interrupt a blocked accept portably (the handler
   just writes one byte — the only async-signal-safe thing it does).
   Accepted connections go to a bounded [Task_pool] with an absolute
   deadline; when the queue is full the loop answers 503 itself, so
   overload never blocks accepting (and never makes a client wait for a
   rejection). A connection still queued at or past its deadline
   (inclusive comparison, on the non-decreasing [Clock]) is answered
   408 instead of served, so a burst cannot make the tail of the queue
   do work for clients that already gave up. Workers own the whole
   request lifecycle: read (bounded by SO_RCVTIMEO), dispatch, write,
   close. *)

module Json = Vadasa_base.Json
module Clock = Vadasa_base.Clock
module Task_pool = Vadasa_base.Task_pool
module Telemetry = Vadasa_telemetry.Telemetry

type config = {
  host : string;
  port : int;  (* 0 picks an ephemeral port; see [port] *)
  domains : int;
  queue_capacity : int;
  request_timeout : float;  (* seconds, read deadline + max queue wait *)
  max_body_bytes : int;
  access_log : (string -> unit) option;  (* one JSON line per request *)
  trace_sample : int option;
      (* every Nth request dumps its span tree to [access_log] *)
  slow_ms : int option;
      (* any request slower than this dumps its span tree to
         [access_log], independently of [trace_sample] *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    domains = 4;
    queue_capacity = 128;
    request_timeout = 30.0;
    max_body_bytes = Http.default_limits.Http.max_body_bytes;
    access_log = None;
    trace_sample = None;
    slow_ms = None;
  }

(* What became of the connections handed to the pool. Atomics: the
   accept loop and every worker bump them without a lock. *)
type tally = {
  submitted : int Atomic.t;
  rejected : int Atomic.t;
  completed : int Atomic.t;
  expired : int Atomic.t;
  raised : int Atomic.t;
  busy : int Atomic.t;  (* workers currently running a connection *)
  last_error : string option Atomic.t;  (* most recent raise *)
}

type t = {
  config : config;
  handlers : Handlers.t;
  router : Router.t;
  pool : Task_pool.t;
  tally : tally;
  listener : Unix.file_descr;
  bound_port : int;
  stop_r : Unix.file_descr;  (* self-pipe: handlers write, accept loop reads *)
  stop_w : Unix.file_descr;
  stopping : bool Atomic.t;
  request_seq : int Atomic.t;  (* drives generated request ids *)
  trace_seq : int Atomic.t;
      (* drives [--trace-sample]: bumps exactly once per parsed request,
         so "every Nth request" means exactly that — [request_seq] can't
         serve double duty because id generation also advances it *)
  mutable accept_domain : unit Domain.t option;
}

let port t = t.bound_port

let handlers t = t.handlers

let pool t = t.pool

let outcomes tally =
  [
    ("submitted", Atomic.get tally.submitted);
    ("rejected", Atomic.get tally.rejected);
    ("completed", Atomic.get tally.completed);
    ("expired", Atomic.get tally.expired);
    ("raised", Atomic.get tally.raised);
  ]

let pool_json config pool tally =
  Json.Obj
    ([
       ("queue_length", Json.Int (Task_pool.queue_length pool));
       ("queue_capacity", Json.Int config.queue_capacity);
       ("domains", Json.Int config.domains);
       ("busy", Json.Int (Atomic.get tally.busy));
     ]
    @ List.map (fun (k, v) -> (k, Json.Int v)) (outcomes tally)
    @
    match Atomic.get tally.last_error with
    | None -> []
    | Some msg -> [ ("last_error", Json.Str msg) ])

let pool_prom config pool tally =
  let buf = Buffer.create 512 in
  Prom.family buf ~name:"vadasa_pool_queue_depth"
    ~help:"Jobs waiting in the HTTP worker pool queue" ~typ:"gauge";
  Prom.sample_int buf ~name:"vadasa_pool_queue_depth"
    (Task_pool.queue_length pool);
  Prom.family buf ~name:"vadasa_pool_jobs_total"
    ~help:"HTTP worker pool jobs by outcome" ~typ:"counter";
  List.iter
    (fun (outcome, v) ->
      Prom.sample_int buf ~name:"vadasa_pool_jobs_total"
        ~labels:[ ("outcome", outcome) ]
        v)
    (outcomes tally);
  let domains = config.domains in
  let busy = Atomic.get tally.busy in
  Prom.family buf ~name:"vadasa_pool_domains"
    ~help:"Worker domains in the HTTP pool" ~typ:"gauge";
  Prom.sample_int buf ~name:"vadasa_pool_domains" domains;
  Prom.family buf ~name:"vadasa_pool_busy_domains"
    ~help:"Worker domains currently executing a job" ~typ:"gauge";
  Prom.sample_int buf ~name:"vadasa_pool_busy_domains" busy;
  Prom.family buf ~name:"vadasa_pool_utilization"
    ~help:"Busy fraction of the HTTP worker pool (0..1)" ~typ:"gauge";
  Prom.sample_float buf ~name:"vadasa_pool_utilization"
    (float_of_int busy /. float_of_int domains);
  Buffer.contents buf

let create ?(config = default_config) ?router handlers =
  if config.domains < 1 then invalid_arg "Server.create: domains must be >= 1";
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      let addr =
        Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port)
      in
      Unix.bind listener addr;
      Unix.listen listener 128;
      let bound_port =
        match Unix.getsockname listener with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.port
      in
      (* The accept loop only submits, so [domains + 1] gives exactly
         [config.domains] worker domains. *)
      let pool =
        Task_pool.create
          ~on_wait:(fun dt -> Telemetry.observe "server.pool.wait" dt)
          ~capacity:config.queue_capacity ~domains:(config.domains + 1) ()
      in
      let tally =
        {
          submitted = Atomic.make 0;
          rejected = Atomic.make 0;
          completed = Atomic.make 0;
          expired = Atomic.make 0;
          raised = Atomic.make 0;
          busy = Atomic.make 0;
          last_error = Atomic.make None;
        }
      in
      let stop_r, stop_w = Unix.pipe () in
      let router =
        match router with
        | Some r -> r
        | None ->
          Handlers.router
            ~extra_metrics:(fun () -> [ ("pool", pool_json config pool tally) ])
            ~extra_prom:(fun () -> pool_prom config pool tally)
            handlers
      in
      {
        config;
        handlers;
        router;
        pool;
        tally;
        listener;
        bound_port;
        stop_r;
        stop_w;
        stopping = Atomic.make false;
        request_seq = Atomic.make 0;
        trace_seq = Atomic.make 0;
        accept_domain = None;
      }
    with e ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      raise e
  in
  t

(* Async-signal-safe: a flag flip and a single pipe write. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then
    ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _signum -> stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

(* One JSONL access-log line per request; the field schema is
   documented in docs/SERVER.md (keep the two in sync). *)
let log_request t ~(req : Http.request option) ~request_id ~status ~bytes
    ~elapsed =
  match t.config.access_log with
  | None -> ()
  | Some sink ->
    let meth, path =
      match req with
      | Some r -> (Http.meth_to_string r.Http.meth, r.Http.path)
      | None -> ("-", "-")
    in
    let endpoint = if meth = "-" then "-" else meth ^ " " ^ path in
    sink
      (Json.to_string
         (Json.Obj
            [
              ("ts", Json.Float (Unix.gettimeofday ()));
              ("request_id", Json.Str (Option.value ~default:"-" request_id));
              ("method", Json.Str meth);
              ("path", Json.Str path);
              ("endpoint", Json.Str endpoint);
              ("status", Json.Int status);
              ("bytes", Json.Int bytes);
              ("elapsed_s", Json.Float elapsed);
              ("latency_ms", Json.Float (elapsed *. 1000.0));
            ]))

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A write can fail with an injected typed error (the [http.write]
   fault point): answer with the error body if the socket still takes
   it, otherwise give up on this connection. *)
let write_guarded fd resp =
  match Http.write_response fd resp with
  | bytes -> (resp.Http.status, bytes)
  | exception Vadasa_base.Error.Error e -> (
    let fallback = Codec.response_of_error e in
    match Http.write_response fd fallback with
    | bytes -> (fallback.Http.status, bytes)
    | exception Vadasa_base.Error.Error _ -> (fallback.Http.status, 0))

(* Correlation ids: the client's [X-Vadasa-Request-Id] wins (so a
   gateway's id threads through); otherwise µs timestamp + process-wide
   sequence — unique within a process and sortable across one. *)
let gen_request_id t =
  Printf.sprintf "%012x-%04x"
    (Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e6))
    land 0xffff_ffff_ffff)
    (Atomic.fetch_and_add t.request_seq 1 land 0xffff)

let request_id_header = "x-vadasa-request-id"

(* The span name for an endpoint: "POST v1.risk" — slashes become dots
   so the slash-joined span *path* hierarchy stays intact. *)
let endpoint_span_name meth path =
  let dotted =
    String.split_on_char '/' path
    |> List.filter (fun s -> s <> "")
    |> String.concat "."
  in
  if dotted = "" then meth else meth ^ " " ^ dotted

let trace_line ?slow_latency_ms ~request_id events =
  Json.to_string
    (Json.Obj
       ([
          ("trace", Json.Str "request");
          ("request_id", Json.Str request_id);
        ]
       @ (match slow_latency_ms with
         | None -> []
         | Some ms -> [ ("slow", Json.Bool true); ("latency_ms", Json.Float ms) ])
       @ [
         ( "spans",
           Json.List
             (List.map
                (fun (ev : Telemetry.Span.info) ->
                  Json.Obj
                    [
                      ("name", Json.Str ev.Telemetry.Span.sp_name);
                      ("path", Json.Str ev.Telemetry.Span.sp_path);
                      ("start_s", Json.Float ev.Telemetry.Span.sp_start);
                      ("duration_s", Json.Float ev.Telemetry.Span.sp_duration);
                      ("depth", Json.Int ev.Telemetry.Span.sp_depth);
                    ])
                events) );
       ]))

(* Runs on a worker domain: one whole request lifecycle. [deadline] is
   the absolute Clock time by which the response should be written —
   stamped on the request so handlers can derive their work budget.

   Telemetry rides on the worker's registry shard, with two bounds that
   keep an unauthenticated client from growing server memory:

   - Metric and span names only ever come from the route table: a path
     [Router.dispatch] would 404 collapses into the single "unmatched"
     endpoint instead of interning a per-path histogram (request paths
     are client-controlled, instrument interning is forever).
   - The [http.request/<endpoint>] span tree is recorded only for
     [--trace-sample]d requests, via the retention-independent local
     trace collector — so sampled trace lines keep flowing after the
     registry's span limit fills, and unsampled requests add no span
     events at all. Every request still lands in the per-endpoint
     [http.latency.*] histogram. *)
let serve_connection t ~deadline fd =
  let started = Unix.gettimeofday () in
  let limits =
    { Http.default_limits with Http.max_body_bytes = t.config.max_body_bytes }
  in
  match Http.read_request ~limits (Http.reader_of_fd fd) with
  | Error err ->
    let status, bytes = write_guarded fd (Http.error_response err) in
    close_quietly fd;
    log_request t ~req:None ~request_id:None ~status ~bytes
      ~elapsed:(Unix.gettimeofday () -. started)
  | Ok req ->
    req.Http.deadline <- Some deadline;
    let request_id =
      match Http.header req request_id_header with
      | Some id when id <> "" -> id
      | _ -> gen_request_id t
    in
    let seq = 1 + Atomic.fetch_and_add t.trace_seq 1 in
    let sampled =
      match t.config.trace_sample with
      | Some n when n > 0 -> seq mod n = 0
      | _ -> false
    in
    (* Telemetry names come from the route *pattern*, not the request
       path: "/v1/datasets/band42" collapses into "/v1/datasets/{id}",
       so client-chosen ids never intern new instruments. *)
    let endpoint =
      match Router.endpoint_path t.router req.Http.path with
      | Some pattern ->
        endpoint_span_name (Http.meth_to_string req.Http.meth) pattern
      | None -> "unmatched"
    in
    (* [--slow-ms] needs the span tree of every request — whether a
       request was slow is only known after it finished — so an armed
       slow log collects the local trace unconditionally and discards
       it for requests that came in under the bar unsampled. *)
    let slow_armed = t.config.slow_ms <> None in
    let resp, trace =
      if (sampled || slow_armed) && Telemetry.enabled () then
        let resp, events =
          Telemetry.with_local_trace (fun () ->
              Telemetry.span "http.request" (fun () ->
                  Telemetry.span endpoint (fun () ->
                      Router.dispatch t.router req)))
        in
        (resp, Some events)
      else (Router.dispatch t.router req, None)
    in
    let resp =
      {
        resp with
        Http.resp_headers =
          resp.Http.resp_headers @ [ ("X-Vadasa-Request-Id", request_id) ];
      }
    in
    let status, bytes = write_guarded fd resp in
    let elapsed = Unix.gettimeofday () -. started in
    (* Record before the close: a client that reads to EOF and then
       scrapes /metrics must find this request counted. *)
    Telemetry.observe ("http.latency." ^ endpoint) elapsed;
    let slow =
      match t.config.slow_ms with
      | Some ms -> elapsed *. 1000.0 > float_of_int ms
      | None -> false
    in
    if slow then Telemetry.count "http.slow_requests" 1;
    close_quietly fd;
    (match (trace, t.config.access_log) with
    | Some events, Some sink when events <> [] && (sampled || slow) ->
      sink
        (trace_line
           ?slow_latency_ms:(if slow then Some (elapsed *. 1000.0) else None)
           ~request_id events)
    | _ -> ());
    (* Keep the worker domain's GC gauges fresh: quick_stat is cheap and
       the sample lands on this domain's registry shard. *)
    Health.sample_gc ();
    log_request t ~req:(Some req) ~request_id:(Some request_id) ~status ~bytes
      ~elapsed

let reject t fd status ?code message =
  let resp = Http.json_error ~status ?code message in
  let status, bytes = write_guarded fd resp in
  close_quietly fd;
  log_request t ~req:None ~request_id:None ~status ~bytes ~elapsed:0.0

(* A pool task: serve the connection, or answer 408 when it waited in
   the queue up to its deadline. *)
let run_queued t ~deadline fd =
  let tally = t.tally in
  Atomic.incr tally.busy;
  (if Clock.expired deadline then begin
     ignore
       (Health.supervise (fun () ->
            reject t fd 408 ~code:"queue.expired" "request expired while queued"));
     Atomic.incr tally.expired
   end
   else
     match Health.supervise (fun () -> serve_connection t ~deadline fd) with
     | None -> Atomic.incr tally.completed
     | Some msg ->
       Atomic.incr tally.raised;
       Atomic.set tally.last_error (Some msg));
  Atomic.decr tally.busy

let run t =
  (* A worker writing to a peer that hung up must get EPIPE, not die. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Unix.select [ t.listener; t.stop_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
        if List.mem t.stop_r readable then ()
        else begin
          (match Unix.accept t.listener with
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
            ->
            ()
          | fd, _addr ->
            (* The read deadline rides on the socket itself. *)
            (try
               Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.request_timeout;
               Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.request_timeout
             with Unix.Unix_error _ -> ());
            let deadline = Clock.deadline_in t.config.request_timeout in
            (* Counted before the push, so a worker never finishes a
               connection that [submitted] does not include yet. *)
            Atomic.incr t.tally.submitted;
            if not (Health.submit t.pool (fun () -> run_queued t ~deadline fd))
            then begin
              (* Backpressure: answer 503 from the accept loop itself. *)
              Atomic.decr t.tally.submitted;
              Atomic.incr t.tally.rejected;
              reject t fd 503 ~code:"queue.full" "server saturated (queue full)"
            end);
          loop ()
        end
  in
  loop ();
  close_quietly t.listener;
  Task_pool.stop t.pool

let start t =
  match t.accept_domain with
  | Some _ -> invalid_arg "Server.start: already started"
  | None -> t.accept_domain <- Some (Domain.spawn (fun () -> run t))

let join t =
  match t.accept_domain with
  | None -> ()
  | Some d ->
    t.accept_domain <- None;
    Domain.join d

let shutdown t =
  stop t;
  join t;
  close_quietly t.stop_r;
  close_quietly t.stop_w
