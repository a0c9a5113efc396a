(* The service endpoints, wired over the two shared caches.

   [compiled] is the program cache's value: parse, stratification and
   wardedness analysis are done once per distinct program text; a cache
   hit hands the engine a ready [Stratify.t] so repeat requests skip the
   whole front end ([Program.union] with a facts-only program keeps rule
   ids stable, which is what makes the cached stratification valid).

   The dataset cache keys on a digest of the CSV body plus the category
   overrides: repeat POSTs of the same document reuse the categorized
   microdata (loading and categorization dominate small requests).
   Handlers only read cached microdata — [Cycle.run] transforms a copy —
   so sharing one value across worker domains is safe.

   Failure paths are typed: every error a handler produces is a
   [Vadasa_base.Error.t] (raised as [Error.Error] or mapped from an
   escaped exception by [Codec.error_of_exn]) and renders through
   [Codec.response_of_error], so every non-2xx body carries a stable
   [error.code]. Engine work runs under a [Budget] derived from the
   request deadline and the request's [budget_ms]/[max_facts] options;
   an interrupted chase degrades to a partial 200 instead of failing. *)

module Json = Vadasa_base.Json
module E = Vadasa_base.Error
module Budget = Vadasa_base.Budget
module Faultpoint = Vadasa_resilience.Faultpoint
module Telemetry = Vadasa_telemetry.Telemetry
module M = Telemetry.Metric
module S = Vadasa_sdc
module V = Vadasa_vadalog

type compiled = {
  program : V.Program.t;
  strat : V.Stratify.t;
  warded : bool;
}

type t = {
  programs : (string, compiled) Cache.t;
  datasets : (string, S.Microdata.t) Cache.t;
  registry : Registry.t;  (* persistent datasets behind /v1/datasets *)
  jobs : Jobs.t;  (* async anonymize/risk jobs behind /v1/jobs *)
  persist : Persist.t option;  (* crash-safety store ([serve --data-dir]) *)
  breaker : Breaker.t;
  default_max_facts : int option;  (* server-wide derived-fact ceiling *)
  engine_pool : Vadasa_base.Task_pool.t option;
      (* shared chase worker pool: every request's engine borrows it, so
         M request domains compose with K engine workers without
         spawning per request (no oversubscription) *)
  started_at : float;
  counters : (string * string * int, int) Hashtbl.t;
      (* (method, route pattern, status) -> count; keyed on the route
         pattern, never the raw path, so dataset ids don't mint keys *)
  counters_mutex : Mutex.t;
}

let create ?(registry_capacity = 16) ?dataset_audit ?breaker_threshold
    ?breaker_cooldown ?default_max_facts ?engine_pool ?persist ?job_domains
    ?job_queue ?tenant_quota ?job_retain ?tenant_rate ?tenant_burst () =
  let registry =
    Registry.create ~capacity:registry_capacity ?audit:dataset_audit
      ?pool:engine_pool ?persist ()
  in
  let jobs =
    Jobs.create ?domains:job_domains ?queue:job_queue ?quota:tenant_quota
      ?retain:job_retain ?rate:tenant_rate ?burst:tenant_burst ?persist
      registry
  in
  Jobs.register jobs;
  (* Both durable subsystems are registered; rebuild their state from
     the snapshot + journal tail, then settle what the crash left open
     (queued jobs re-run, mid-flight jobs fault as orphaned). *)
  (match persist with
  | None -> ()
  | Some p ->
    Persist.recover p;
    Jobs.resume jobs);
  {
    programs = Cache.create ~capacity:64 "programs";
    datasets = Cache.create ~capacity:16 "datasets";
    registry;
    jobs;
    persist;
    breaker =
      Breaker.create ?threshold:breaker_threshold ?cooldown:breaker_cooldown ();
    default_max_facts;
    engine_pool;
    started_at = Unix.gettimeofday ();
    counters = Hashtbl.create 16;
    counters_mutex = Mutex.create ();
  }

(* Stop the job workers and close the persistence store (final snapshot
   + journal shutdown). The server's own accept/worker machinery has
   its own [Server.shutdown]; this covers what the handlers own. *)
let shutdown t =
  Jobs.stop t.jobs;
  match t.persist with None -> () | Some p -> Persist.close p

let count t ~meth ~pattern (resp : Http.response) =
  let key = (meth, pattern, resp.Http.status) in
  Mutex.lock t.counters_mutex;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.counters key) in
  Hashtbl.replace t.counters key (n + 1);
  Mutex.unlock t.counters_mutex

let request_metrics t =
  Mutex.lock t.counters_mutex;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [] in
  Mutex.unlock t.counters_mutex;
  List.sort compare entries
  |> List.map (fun ((meth, path, status), n) ->
         M.counter
           ~labels:[ ("method", meth); ("path", path); ("status", string_of_int status) ]
           ~family:"vadasa_http_requests_total"
           ~help:"Guarded requests by method, path and status"
           (Printf.sprintf "%s %s %d" meth path status)
           n)

let programs t = t.programs

let datasets t = t.datasets

let registry t = t.registry

let jobs t = t.jobs

let persist t = t.persist

let breaker t = t.breaker

(* ---- shared steps ------------------------------------------------------- *)

let dataset_key (payload : Codec.payload) =
  let open Codec in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (payload.options.name :: payload.csv
          :: List.concat_map
               (fun (a, c) -> [ a; c ])
               payload.options.categories)))

let ok_or_raise = function Ok v -> v | Error e -> raise (E.Error e)

(* The per-request work budget: the earlier of the response deadline the
   server stamped on the request and the client's own [budget_ms],
   capped by [max_facts]. [None] only when no constraint applies. *)
let budget_of (req : Http.request) (options : Codec.options) =
  let deadline_in =
    Option.map (fun ms -> float_of_int ms /. 1000.0) options.Codec.budget_ms
  in
  match (req.Http.deadline, deadline_in, options.Codec.max_facts) with
  | None, None, None -> None
  | deadline, deadline_in, max_facts ->
    Some (Budget.create ?deadline ?deadline_in ?max_facts ())

(* [budget_of] plus the server-wide fact ceiling ([serve --max-facts])
   when the request didn't bring its own. *)
let budget_for t req (options : Codec.options) =
  let options =
    match options.Codec.max_facts with
    | Some _ -> options
    | None -> { options with Codec.max_facts = t.default_max_facts }
  in
  budget_of req options

let microdata_for t payload =
  let key = dataset_key payload in
  (* The builder can fail (bad CSV, unresolved attributes); failures
     escape as [Error.Error] and are not cached. *)
  Cache.find_or_build t.datasets key (fun _ ->
      ok_or_raise (Codec.microdata_of_payload payload))

let payload_of_request req = ok_or_raise (Codec.parse_payload req)

let measure_of_options options = ok_or_raise (Codec.measure_of_options options)

let compile t source =
  Cache.find_or_build_hit t.programs source (fun src ->
      (* Parser/lexer/stratifier failures escape as typed [program.*]
         errors via [Codec.error_of_exn] in the guard. *)
      let program = V.Parser.parse src in
      {
        program;
        strat = V.Stratify.compute program;
        warded = V.Wardedness.is_warded program;
      })

(* ---- endpoints ---------------------------------------------------------- *)

let healthz t _req =
  Http.response ~status:200
    (Json.to_string
       (Json.Obj
          [
            ("status", Json.Str "ok");
            ( "uptime_s",
              Json.Float (Unix.gettimeofday () -. t.started_at) );
          ]))

let risk t req =
  let payload = payload_of_request req in
  let md = microdata_for t payload in
  let options = payload.Codec.options in
  let measure = measure_of_options options in
  let threshold = options.Codec.threshold in
  let report = S.Risk.estimate measure md in
  if not options.Codec.reasoned then
    (* The exact string the CLI's [risk --json] prints: byte-identical. *)
    Http.response ~status:200 (Codec.risk_report_string ~threshold md report)
  else
    (* Reasoned cross-check: run the measure's program on the engine
       under the request budget. A chase cut short by the budget
       degrades to the native report plus partial-progress markers —
       still a 200, never a timeout error. *)
    match
      S.Vadalog_bridge.risk_via_engine ?budget:(budget_for t req options)
        ?pool:t.engine_pool measure md
    with
    | _engine_risks ->
      Http.response ~status:200 (Codec.risk_report_string ~threshold md report)
    | exception V.Engine.Interrupted interrupt ->
      Http.response ~status:200
        (Codec.risk_report_string ~interrupt ~threshold md report)

let anonymize t req =
  let payload = payload_of_request req in
  let md = microdata_for t payload in
  let options = payload.Codec.options in
  let config = ok_or_raise (Codec.cycle_config options md) in
  let recorder = if options.Codec.audit then Some (S.Audit.recorder ()) else None in
  let outcome =
    S.Cycle.run ~config ?audit:recorder ?budget:(budget_for t req options) md
  in
  let audit = Option.map S.Audit.events recorder in
  Http.response ~status:200
    (Json.to_string ~indent:true (Codec.anonymize_outcome_json ?audit md outcome)
    ^ "\n")

(* Program + fact -> derivation tree. The program compiles through the
   same cache as /v1/reason; the chase runs under the request budget. A
   budget-cut chase may simply not have derived the fact yet — the 422
   then names the interruption so the client can tell "never derivable"
   from "ran out of budget". *)
let explain t req =
  let er = ok_or_raise (Codec.parse_explain_payload req) in
  let compiled, _cached = compile t er.Codec.explain_program in
  let engine =
    V.Engine.create ~strat:compiled.strat ?pool:t.engine_pool
      compiled.program
  in
  let budget =
    budget_for t req
      {
        Codec.default_options with
        Codec.budget_ms = er.Codec.explain_budget_ms;
        max_facts = er.Codec.explain_max_facts;
      }
  in
  let interrupted =
    match V.Engine.run ?budget engine with
    | () -> false
    | exception V.Engine.Interrupted _ -> true
  in
  match
    V.Engine.explain ?max_depth:er.Codec.explain_max_depth engine
      er.Codec.explain_pred er.Codec.explain_args
  with
  | Some tree -> Http.response ~status:200 (Codec.explain_string tree)
  | None ->
    let fact =
      er.Codec.explain_pred ^ "("
      ^ String.concat ", "
          (Array.to_list
             (Array.map Vadasa_base.Value.to_string er.Codec.explain_args))
      ^ ")"
    in
    E.fail ~code:"fact.not_found" E.Wardedness
      (Printf.sprintf "fact %s is not in the database" fact)
      ~context:
        (("fact", fact)
        :: (if interrupted then [ ("note", "chase interrupted by budget") ]
            else []))

let categorize _t req =
  let payload = payload_of_request req in
  let rel =
    Vadasa_relational.Csv.read_string ~name:payload.Codec.options.Codec.name
      payload.Codec.csv
  in
  let result, _ =
    S.Categorize.run ~experience:S.Categorize.builtin_experience
      (Vadasa_relational.Relation.schema rel)
  in
  Http.response ~status:200
    (Json.to_string ~indent:true (Codec.categorize_result_json result) ^ "\n")

let reason t req =
  let payload = payload_of_request req in
  let md = microdata_for t payload in
  let options = payload.Codec.options in
  let measure = measure_of_options options in
  let threshold = options.Codec.threshold in
  let source = S.Vadalog_bridge.program_of_measure measure in
  let compiled, cached = compile t source in
  let program =
    V.Program.union compiled.program
      (V.Program.make ~facts:(S.Vadalog_bridge.microdata_facts md) [])
  in
  let engine =
    V.Engine.create ~strat:compiled.strat ?pool:t.engine_pool program
  in
  (* An interrupted chase still answers: [decode_risks] reads whatever
     riskoutput facts the partial saturation derived. *)
  let interrupt =
    match V.Engine.run ?budget:(budget_for t req options) engine with
    | () -> None
    | exception V.Engine.Interrupted i -> Some i
  in
  let risks = S.Vadalog_bridge.decode_risks engine (S.Microdata.cardinal md) in
  Http.response ~status:200
    (Json.to_string ~indent:true
       (Codec.reason_json ?interrupt ~cached ~warded:compiled.warded ~threshold
          md risks)
    ^ "\n")

(* ---- dataset registry endpoints ----------------------------------------- *)

(* The [{id}] segment of a matched dataset route. *)
let dataset_id ~pattern (req : Http.request) =
  match Router.path_param ~pattern req.Http.path "id" with
  | Some id -> id
  | None ->
    E.fail ~code:"dataset.bad_id" E.Parse
      ("cannot extract a dataset id from " ^ req.Http.path)

(* The LRU key of a registered dataset's union snapshot (see
   [dataset_risk ?mode=full]); appends remove it, so the cache never
   serves a pre-append snapshot. *)
let registry_cache_key id = "registry:" ^ id

(* PUT /v1/datasets/{id} — register the payload (same body formats as
   /v1/risk) as a persistent dataset. The microdata builds through the
   CSV-digest cache as usual, but the registry gets a copy: its relation
   grows in place on appends and must not alias the content-addressed
   cache entry. *)
let dataset_put t req =
  let id = dataset_id ~pattern:"/v1/datasets/{id}" req in
  let payload = payload_of_request req in
  let options = payload.Codec.options in
  let measure = measure_of_options options in
  let semantics = ok_or_raise (Codec.semantics_of_options options) in
  let md = S.Microdata.copy (microdata_for t payload) in
  let compiled =
    (* The measure's program rides the compiled-program cache; measures
       outside the logic (Monte Carlo, SUDA is expressible but the
       bridge's closed-form exclusions are not) skip chase
       materialization and stay native-only. *)
    match S.Vadalog_bridge.program_of_measure measure with
    | source ->
      let compiled, _cached = compile t source in
      Some (compiled.program, compiled.strat)
    | exception S.Vadalog_bridge.Unsupported _ -> None
  in
  let { Registry.entry; created } =
    Registry.put t.registry ~id ~digest:(dataset_key payload)
      ~bytes:(String.length payload.Codec.csv)
      ~options ~measure ~semantics ~compiled md
  in
  let body =
    match Registry.entry_json entry with
    | Json.Obj fields -> Json.Obj (fields @ [ ("created", Json.Bool created) ])
    | json -> json
  in
  Http.response
    ~status:(if created then 201 else 200)
    (Json.to_string ~indent:true body ^ "\n")

(* GET /v1/datasets — ids plus per-dataset metadata. *)
let dataset_list t _req =
  let entries =
    List.filter_map (Registry.find t.registry) (Registry.ids t.registry)
  in
  Http.response ~status:200
    (Json.to_string ~indent:true
       (Json.Obj
          [
            ("count", Json.Int (List.length entries));
            ("datasets", Json.List (List.map Registry.entry_json entries));
          ])
    ^ "\n")

(* GET /v1/datasets/{id} — metadata; [?include=csv] adds the current
   (base ∪ deltas) document, which is what a from-scratch evaluation
   must be fed to reproduce the dataset's reports (the CI smoke job
   diffs exactly that). *)
let dataset_get t req =
  let id = dataset_id ~pattern:"/v1/datasets/{id}" req in
  let entry = Registry.get t.registry id in
  let fields =
    match Registry.entry_json entry with Json.Obj f -> f | _ -> []
  in
  let fields =
    match Http.query_param req "include" with
    | Some "csv" -> fields @ [ ("csv", Json.Str (Registry.entry_csv entry)) ]
    | _ -> fields
  in
  Http.response ~status:200 (Json.to_string ~indent:true (Json.Obj fields) ^ "\n")

(* DELETE /v1/datasets/{id} *)
let dataset_delete t req =
  let id = dataset_id ~pattern:"/v1/datasets/{id}" req in
  if not (Registry.delete t.registry id) then
    raise (E.Error (Registry.not_found id));
  Cache.remove t.datasets (registry_cache_key id);
  Http.response ~status:200
    (Json.to_string (Json.Obj [ ("deleted", Json.Str id) ]) ^ "\n")

(* POST /v1/datasets/{id}/facts — delta ingestion: the body is a CSV
   document with the dataset's header. The registry re-scores risk
   incrementally and continues the chase from its fixpoint snapshot;
   the stale union snapshot (if cached) is dropped. *)
let dataset_append t req =
  let id = dataset_id ~pattern:"/v1/datasets/{id}/facts" req in
  let entry = Registry.get t.registry id in
  if String.trim req.Http.body = "" then
    E.fail ~code:"request.empty_body" E.Parse
      "empty request body (expected delta CSV)";
  let outcome = Registry.append t.registry entry ~csv:req.Http.body in
  Cache.remove t.datasets (registry_cache_key id);
  let report = Registry.entry_report entry in
  Http.response ~status:200
    (Json.to_string ~indent:true
       (Json.Obj
          [
            ("dataset", Json.Str id);
            ("rows_added", Json.Int outcome.Registry.rows_added);
            ("rows_total", Json.Int outcome.Registry.rows_total);
            ( "rows_rescored",
              Json.Int
                outcome.Registry.risk.S.Risk.Incremental.rows_rescored );
            ( "groups_touched",
              Json.Int
                outcome.Registry.risk.S.Risk.Incremental.groups_touched );
            ( "risk_fallback",
              match outcome.Registry.risk.S.Risk.Incremental.fallback with
              | None -> Json.Null
              | Some f -> Json.Str (S.Risk.Incremental.fallback_to_string f) );
            ("chase", Json.Str outcome.Registry.chase_mode);
            ("chase_facts", Json.Int outcome.Registry.chase_facts);
            ("global_risk", Json.Float (S.Risk.global_risk report));
          ])
    ^ "\n")

(* GET /v1/datasets/{id}/risk — the maintained incremental report,
   rendered byte-identically to [POST /v1/risk] over the union CSV.
   [?mode=full] instead re-estimates from scratch on the cached union
   snapshot (the snapshot is invalidated on every append): diffing the
   two bodies is the live incremental-vs-from-scratch check the CI
   smoke job runs. [?threshold=] overrides the registered threshold in
   both modes. *)
let dataset_risk t req =
  let id = dataset_id ~pattern:"/v1/datasets/{id}/risk" req in
  let entry = Registry.get t.registry id in
  let options = Registry.entry_options entry in
  let threshold =
    match Http.query_param req "threshold" with
    | None -> options.Codec.threshold
    | Some v -> (
      match float_of_string_opt v with
      | Some f -> f
      | None ->
        E.fail ~code:"request.bad_param" E.Parse
          "parameter threshold: expected a number"
          ~context:[ ("parameter", "threshold") ])
  in
  match Http.query_param req "mode" with
  | None | Some "incremental" ->
    Http.response ~status:200 (Registry.risk_report_string ~threshold entry)
  | Some "full" ->
    let md =
      Cache.find_or_build t.datasets (registry_cache_key id) (fun _ ->
          Registry.entry_md_snapshot entry)
    in
    let report =
      S.Risk.estimate
        ~semantics:(Registry.entry_semantics entry)
        (Registry.entry_measure entry) md
    in
    Http.response ~status:200 (Codec.risk_report_string ~threshold md report)
  | Some other ->
    E.fail ~code:"request.bad_param" E.Parse
      (Printf.sprintf
         "parameter mode: unknown value %s (expected incremental or full)"
         other)
      ~context:[ ("parameter", "mode") ]

(* ---- async jobs endpoints ------------------------------------------------ *)

(* The tenant of a jobs request: [X-Vadasa-Tenant] header, then
   [?tenant=], then "default". Validated (charset/length) in
   [Jobs.submit]; never a metric label. *)
let tenant_of req =
  match Http.header req "x-vadasa-tenant" with
  | Some tenant -> tenant
  | None -> (
    match Http.query_param req "tenant" with
    | Some tenant -> tenant
    | None -> "default")

(* POST /v1/jobs — submit an async job over a registered dataset:
   [{"dataset": "...", "op": "risk"|"anonymize", ...options}]. Admitted
   jobs answer 202 with the job object; quota/rate rejections are typed
   429s carrying Retry-After. *)
let job_submit t req =
  if String.trim req.Http.body = "" then
    E.fail ~code:"request.empty_body" E.Parse
      "empty request body (expected a JSON job submission)";
  let json =
    match Json.of_string req.Http.body with
    | Ok json -> json
    | Error msg ->
      E.fail ~code:"json.invalid" E.Parse ("request body: " ^ msg)
  in
  let field name =
    match Option.bind (Json.member name json) Json.to_string_opt with
    | Some v -> v
    | None ->
      E.fail ~code:"request.bad_field" E.Parse
        (Printf.sprintf "missing required string field %s" name)
        ~context:[ ("field", name) ]
  in
  let dataset = field "dataset" in
  let op = field "op" in
  let options = ok_or_raise (Codec.options_of_json json) in
  let job =
    Jobs.submit t.jobs ~tenant:(tenant_of req) ~dataset ~op ~options
  in
  Http.response ~status:202
    (Json.to_string ~indent:true (Jobs.job_json job) ^ "\n")

(* The [{id}] segment of a matched jobs route. *)
let job_id_of ~pattern (req : Http.request) =
  match Router.path_param ~pattern req.Http.path "id" with
  | Some id -> id
  | None ->
    E.fail ~code:"job.not_found" E.Wardedness
      ("cannot extract a job id from " ^ req.Http.path)

(* GET /v1/jobs — every known job, submission order. *)
let job_list t _req =
  let jobs = Jobs.list t.jobs in
  Http.response ~status:200
    (Json.to_string ~indent:true
       (Json.Obj
          [
            ("count", Json.Int (List.length jobs));
            ("jobs", Json.List (List.map Jobs.job_json jobs));
          ])
    ^ "\n")

(* GET /v1/jobs/{id} — status; terminal jobs carry their result/error. *)
let job_get t req =
  let id = job_id_of ~pattern:"/v1/jobs/{id}" req in
  Http.response ~status:200
    (Json.to_string ~indent:true (Jobs.job_json (Jobs.get t.jobs id)) ^ "\n")

(* DELETE /v1/jobs/{id} — cooperative cancel (see Jobs.cancel). *)
let job_cancel t req =
  let id = job_id_of ~pattern:"/v1/jobs/{id}" req in
  Http.response ~status:200
    (Json.to_string ~indent:true (Jobs.job_json (Jobs.cancel t.jobs id)) ^ "\n")

(* GET /metrics — one list of every component's entries, nested under
   today's keys: the JSON body is that list, the exposition its samples
   after the telemetry registry (merged across worker-domain shards). *)
let metrics ?(extra = fun () -> []) t req =
  let uptime = Unix.gettimeofday () -. t.started_at in
  let cache c = M.nest (Cache.name c) (Cache.metrics c) in
  let entries =
    {
      (M.prom M.Gauge ~family:"vadasa_uptime_seconds"
         ~help:"Seconds since the handlers were created" uptime)
      with
      path = [ "uptime_s" ];
      json = Json.Float uptime;
    }
    :: M.nest "caches" (cache t.programs @ cache t.datasets)
    @ M.nest "registry" (Registry.metrics t.registry)
    @ M.nest "jobs" (Jobs.metrics t.jobs)
    @ M.nest "requests" (request_metrics t)
    @ M.nest "breaker" (Breaker.metrics t.breaker)
    @ M.json "faults_armed"
        (Json.List
           (List.map
              (fun (name, action) -> Json.Str (name ^ ":" ^ action))
              (Faultpoint.armed ())))
      :: (match t.persist with None -> [] | Some p -> M.nest "persist" (Persist.metrics p))
    @ extra ()
  in
  if Prom.wants_prometheus req then begin
    (* Runtime-health gauges are sampled at capture time, so every scrape
       sees the capturing domain's current GC picture. *)
    Health.sample_gc ();
    Http.response ~content_type:Prom.content_type ~status:200
      (Telemetry.Prometheus.render ~metrics:entries
         (Telemetry.Report.capture Telemetry.global))
  end
  else Http.response ~status:200 (Json.to_string ~indent:true (M.to_json entries) ^ "\n")

(* ---- router ------------------------------------------------------------- *)

(* Wraps every endpoint with the resilience plumbing: the
   [handler.dispatch] fault point, the per-endpoint circuit breaker
   (open circuit → 503 + Retry-After without running the handler), and
   the total exception→typed-error mapping. A 5xx response counts as a
   breaker failure; anything else closes the circuit.

   [meth] and [pattern] come from the route table — the breaker
   circuit ("METHOD pattern") and the request counters key on them, so
   the parameterized dataset routes stay one circuit and one counter
   family regardless of how many ids clients mint. *)
let guard t ~meth ~pattern handler req =
  let key = meth ^ " " ^ pattern in
  let resp =
    match Breaker.check t.breaker key with
    | Breaker.Rejected retry_after ->
      let resp =
        Http.json_error ~status:503 ~code:"breaker.open"
          (Printf.sprintf "circuit open for %s; retry later" key)
      in
      {
        resp with
        Http.resp_headers =
          resp.Http.resp_headers
          @ [
              ( "Retry-After",
                string_of_int (max 1 (int_of_float (Float.ceil retry_after)))
              );
            ];
      }
    | Breaker.Allow ->
      let resp =
        match
          Faultpoint.hit "handler.dispatch";
          handler req
        with
        | resp -> resp
        | exception e -> Codec.response_of_error (Codec.error_of_exn e)
      in
      if resp.Http.status >= 500 then Breaker.failure t.breaker key
      else Breaker.success t.breaker key;
      resp
  in
  count t ~meth ~pattern resp;
  resp

let router ?extra_metrics t =
  let route meth pattern handler =
    ( meth,
      pattern,
      guard t ~meth:(Http.meth_to_string meth) ~pattern handler )
  in
  Router.create
    [
      route Http.GET "/healthz" (healthz t);
      route Http.GET "/metrics" (metrics ?extra:extra_metrics t);
      route Http.POST "/v1/risk" (risk t);
      route Http.POST "/v1/anonymize" (anonymize t);
      route Http.POST "/v1/categorize" (categorize t);
      route Http.POST "/v1/reason" (reason t);
      route Http.POST "/v1/explain" (explain t);
      route Http.GET "/v1/datasets" (dataset_list t);
      route Http.PUT "/v1/datasets/{id}" (dataset_put t);
      route Http.GET "/v1/datasets/{id}" (dataset_get t);
      route Http.DELETE "/v1/datasets/{id}" (dataset_delete t);
      route Http.POST "/v1/datasets/{id}/facts" (dataset_append t);
      route Http.GET "/v1/datasets/{id}/risk" (dataset_risk t);
      route Http.POST "/v1/jobs" (job_submit t);
      route Http.GET "/v1/jobs" (job_list t);
      route Http.GET "/v1/jobs/{id}" (job_get t);
      route Http.DELETE "/v1/jobs/{id}" (job_cancel t);
    ]
