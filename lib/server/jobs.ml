(* Asynchronous anonymization/risk jobs over registered datasets —
   the machinery behind POST /v1/jobs.

   A submission is admitted through three gates, in order: the tenant's
   token bucket (rate), the tenant's active-job quota, and the worker
   pool's bounded queue. Only then is the job journaled and published —
   so a rejected submission (429/503, with a [retry_after_s] hint)
   never leaves a journal record behind. Admitted jobs run on a small
   dedicated pool (created lazily on first submission, so servers that
   never see a job never spawn its domains).

   Each work attempt fires the ["job.step"] fault point and runs under
   the job's {!Vadasa_base.Budget}: DELETE cancels the budget, which a
   queued job observes before starting and a running job observes at
   the chase/cycle poll points — a cancelled job always releases its
   pool slot and reports [job.cancelled]. Transient step failures are
   re-executed under a {!Vadasa_resilience.Retry} policy; only
   Io/Resource-category errors retry (a malformed request is not going
   to parse better the second time).

   Durability piggybacks on the registry's journal: [job.submit] /
   [job.start] / [job.finish] records replay through the same
   {!Persist} machinery. After recovery, {!resume} settles what the
   journal left open — a job that was still queued re-runs (marked
   [replayed]); a job that was mid-flight when the process died can't
   be trusted to re-run exactly once, so it faults terminally as
   [job.orphaned]. *)

module E = Vadasa_base.Error
module Json = Vadasa_base.Json
module Task_pool = Vadasa_base.Task_pool
module Budget = Vadasa_base.Budget
module Faultpoint = Vadasa_resilience.Faultpoint
module Retry = Vadasa_resilience.Retry
module S = Vadasa_sdc

type state = Queued | Running | Done | Failed | Cancelled | Orphaned

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"
  | Orphaned -> "orphaned"

let state_of_string = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "cancelled" -> Some Cancelled
  | "orphaned" -> Some Orphaned
  | _ -> None

let terminal = function
  | Done | Failed | Cancelled | Orphaned -> true
  | Queued | Running -> false

type job = {
  id : string;
  tenant : string;
  op : string;  (* "risk" | "anonymize" *)
  dataset : string;
  options : Codec.options;
  submitted_at : float;
  budget : Budget.t;  (* the cancel handle; never expires on its own *)
  mutable state : state;
  mutable attempts : int;
  mutable result : string option;  (* the response body, on [Done] *)
  mutable error : (string * string) option;  (* (code, message) *)
  mutable finished_at : float option;
  mutable replayed : bool;  (* re-ran after crash recovery *)
  mutable linked : bool;  (* journaled + published; workers wait on it *)
}

type bucket = { mutable tokens : float; mutable last : float }

type t = {
  registry : Registry.t;
  persist : Persist.t option;
  retry : Retry.policy;
  quota : int;  (* max queued+running jobs per tenant *)
  retain : int;  (* terminal jobs kept per tenant; older ones pruned *)
  rate : float;  (* submissions per second per tenant *)
  burst : float;
  domains : int;
  queue : int;
  mu : Mutex.t;
  cond : Condition.t;  (* linkage + state transitions *)
  table : (string, job) Hashtbl.t;
  buckets : (string, bucket) Hashtbl.t;
  mutable pool : Task_pool.t option;  (* lazily created on first submit *)
  mutable next_id : int;
  (* counters, guarded by [mu] *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable orphaned : int;
  mutable replayed : int;
  mutable rejected_quota : int;
  mutable rejected_rate : int;
  mutable rejected_queue : int;
  mutable pruned : int;
}

let create ?(domains = 2) ?(queue = 64) ?(quota = 16) ?(retain = 256)
    ?(rate = 50.0) ?(burst = 100.0)
    ?(retry = { Retry.default_policy with Retry.base_delay = 0.05 }) ?persist
    registry =
  if domains < 1 then invalid_arg "Jobs.create: domains must be >= 1";
  if quota < 1 then invalid_arg "Jobs.create: quota must be >= 1";
  if retain < 1 then invalid_arg "Jobs.create: retain must be >= 1";
  if rate <= 0.0 || burst < 1.0 then
    invalid_arg "Jobs.create: rate must be > 0 and burst >= 1";
  {
    registry;
    persist;
    retry;
    quota;
    retain;
    rate;
    burst;
    domains;
    queue;
    mu = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 16;
    buckets = Hashtbl.create 16;
    pool = None;
    next_id = 1;
    submitted = 0;
    completed = 0;
    failed = 0;
    cancelled = 0;
    orphaned = 0;
    replayed = 0;
    rejected_quota = 0;
    rejected_rate = 0;
    rejected_queue = 0;
    pruned = 0;
  }

let with_commit t ~record f =
  match t.persist with
  | None -> f (fun () -> ())
  | Some p -> Persist.commit p ~record f

let not_found id =
  E.make ~code:"job.not_found" E.Wardedness
    (Printf.sprintf "no job with id %s" id)
    ~context:[ ("job", id) ]

let find t id =
  Mutex.lock t.mu;
  let job = Hashtbl.find_opt t.table id in
  Mutex.unlock t.mu;
  job

let get t id =
  match find t id with
  | Some job -> job
  | None -> raise (E.Error (not_found id))

let list t =
  Mutex.lock t.mu;
  let jobs = Hashtbl.fold (fun _ j acc -> j :: acc) t.table [] in
  Mutex.unlock t.mu;
  List.sort (fun a b -> String.compare a.id b.id) jobs

let job_json job =
  Json.Obj
    ([
       ("id", Json.Str job.id);
       ("tenant", Json.Str job.tenant);
       ("op", Json.Str job.op);
       ("dataset", Json.Str job.dataset);
       ("state", Json.Str (state_to_string job.state));
       ("attempts", Json.Int job.attempts);
       ("replayed", Json.Bool job.replayed);
       ("submitted_at", Json.Float job.submitted_at);
       ( "finished_at",
         match job.finished_at with
         | Some f -> Json.Float f
         | None -> Json.Null );
     ]
    @ (match job.result with
      | Some body -> [ ("result", Json.Str body) ]
      | None -> [])
    @
    match job.error with
    | Some (code, message) ->
      [
        ( "error",
          Json.Obj
            [ ("code", Json.Str code); ("message", Json.Str message) ] );
      ]
    | None -> [])

(* ---- admission gates ----------------------------------------------------- *)

let rate_limited tenant wait =
  E.make ~code:"tenant.rate_limited" E.Resource
    (Printf.sprintf "tenant %s is over its job submission rate" tenant)
    ~context:
      [
        ("tenant", tenant); ("retry_after_s", Printf.sprintf "%.3f" wait);
      ]

let quota_exceeded tenant quota =
  E.make ~code:"tenant.quota_exceeded" E.Resource
    (Printf.sprintf
       "tenant %s already has %d queued or running jobs (the per-tenant \
        quota); wait for one to finish or cancel one"
       tenant quota)
    ~context:[ ("tenant", tenant); ("retry_after_s", "1") ]

let queue_full =
  E.make ~code:"jobs.queue_full" E.Resource
    "the job worker queue is full; retry later"
    ~context:[ ("retry_after_s", "1") ]

(* Caller holds [mu]. Token bucket per tenant. The table is bounded by
   evicting only buckets that have already refilled to full burst —
   forgetting one of those changes nothing (a fresh bucket starts at
   burst), so client-minted tenant names can't grow the table without
   bound *and* can't launder an active tenant's debt away: a bucket
   below burst keeps its exact fill level no matter how many fresh
   tenants churn past. *)
let take_token t tenant =
  let now = Unix.gettimeofday () in
  if Hashtbl.length t.buckets > 1024 && not (Hashtbl.mem t.buckets tenant)
  then begin
    let full =
      Hashtbl.fold
        (fun name b acc ->
          if b.tokens +. ((now -. b.last) *. t.rate) >= t.burst then
            name :: acc
          else acc)
        t.buckets []
    in
    List.iter (Hashtbl.remove t.buckets) full
  end;
  let b =
    match Hashtbl.find_opt t.buckets tenant with
    | Some b -> b
    | None ->
      let b = { tokens = t.burst; last = now } in
      Hashtbl.replace t.buckets tenant b;
      b
  in
  b.tokens <- Float.min t.burst (b.tokens +. ((now -. b.last) *. t.rate));
  b.last <- now;
  if b.tokens >= 1.0 then begin
    b.tokens <- b.tokens -. 1.0;
    None
  end
  else Some ((1.0 -. b.tokens) /. t.rate)

(* caller holds [mu] *)
let active_for t tenant =
  Hashtbl.fold
    (fun _ j acc ->
      if String.equal j.tenant tenant && not (terminal j.state) then acc + 1
      else acc)
    t.table 0

(* Caller holds [mu]. Retention: keep at most [t.retain] terminal jobs
   per tenant, dropping the oldest (lowest id = submission order)
   beyond that — so the table, every snapshot dump and GET /v1/jobs
   stay bounded over the server's lifetime. Pruning is deterministic
   (id order, fired on each terminal transition), so replaying the
   journal prunes exactly what the live run pruned. *)
let prune_terminal t tenant =
  let dead =
    Hashtbl.fold
      (fun _ j acc ->
        if String.equal j.tenant tenant && terminal j.state then j :: acc
        else acc)
      t.table []
  in
  let excess = List.length dead - t.retain in
  if excess > 0 then
    List.sort (fun a b -> String.compare a.id b.id) dead
    |> List.filteri (fun i _ -> i < excess)
    |> List.iter (fun j ->
           Hashtbl.remove t.table j.id;
           t.pruned <- t.pruned + 1)

(* ---- state transitions (journaled) --------------------------------------- *)

(* Terminal transition: journal [job.finish] and apply it under [mu] in
   one commit. Idempotent — a job already terminal stays exactly as it
   was (no record written), which settles the cancel-vs-complete race
   by whoever commits first. *)
let finish t job state ?result ?error () =
  let error_fields =
    match error with
    | Some (code, message) ->
      [ ("code", Json.Str code); ("message", Json.Str message) ]
    | None -> []
  in
  let record attempts =
    Json.Obj
      ([
         ("kind", Json.Str "job.finish");
         ("job", Json.Str job.id);
         ("state", Json.Str (state_to_string state));
         ("attempts", Json.Int attempts);
       ]
      @ (match result with
        | Some body -> [ ("result", Json.Str body) ]
        | None -> [])
      @ error_fields)
  in
  with_commit t ~record:(record job.attempts) @@ fun commit_now ->
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () ->
      Condition.broadcast t.cond;
      Mutex.unlock t.mu)
    (fun () ->
      if not (terminal job.state) then begin
        commit_now ();
        job.state <- state;
        job.result <- result;
        job.error <- error;
        job.finished_at <- Some (Unix.gettimeofday ());
        (match state with
        | Done -> t.completed <- t.completed + 1
        | Failed -> t.failed <- t.failed + 1
        | Cancelled -> t.cancelled <- t.cancelled + 1
        | Orphaned -> t.orphaned <- t.orphaned + 1
        | Queued | Running -> ());
        prune_terminal t job.tenant
      end)

(* Queued -> Running, journaled; [false] when the job was cancelled (or
   otherwise settled) before a worker picked it up. *)
let start t job =
  let record =
    Json.Obj [ ("kind", Json.Str "job.start"); ("job", Json.Str job.id) ]
  in
  with_commit t ~record @@ fun commit_now ->
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if job.state = Queued then begin
        commit_now ();
        job.state <- Running;
        true
      end
      else false)

(* ---- the work itself ----------------------------------------------------- *)

let cancelled_error job =
  ( "job.cancelled",
    Printf.sprintf "job %s was cancelled before completing" job.id )

let check_cancel job =
  match Budget.check job.budget ~facts:0 with
  | None -> ()
  | Some _ ->
    let code, message = cancelled_error job in
    E.fail ~code E.Resource message ~context:[ ("job", job.id) ]

let ok_or_raise = function Ok v -> v | Error e -> raise (E.Error e)

(* The maintained incremental report — the same bytes
   [GET /v1/datasets/{id}/risk] serves (the jobs e2e test diffs them). *)
let run_risk entry =
  Registry.risk_report_string
    ~threshold:(Registry.entry_options entry).Codec.threshold entry

(* Mirrors the synchronous /v1/anonymize handler, over a snapshot of
   the registered dataset, under the job's budget (which is how cancel
   interrupts a long cycle mid-flight). *)
let run_anonymize job entry =
  let options = job.options in
  let md = Registry.entry_md_snapshot entry in
  let config = ok_or_raise (Codec.cycle_config options md) in
  let outcome = S.Cycle.run ~config ~budget:job.budget md in
  Json.to_string ~indent:true (Codec.anonymize_outcome_json md outcome) ^ "\n"

let step t job () =
  Mutex.lock t.mu;
  job.attempts <- job.attempts + 1;
  Mutex.unlock t.mu;
  (* One fault-point firing per execution attempt: [job.step:fail@1]
     fails exactly the first attempt and lets the retry succeed. *)
  Faultpoint.hit "job.step";
  check_cancel job;
  let entry = Registry.get t.registry job.dataset in
  match job.op with
  | "risk" -> run_risk entry
  | "anonymize" -> run_anonymize job entry
  | other ->
    E.fail ~code:"job.bad_op" E.Parse
      (Printf.sprintf "unknown job op %s (expected risk or anonymize)" other)
      ~context:[ ("op", other) ]

(* Only failures that plausibly pass on re-execution retry; a cancelled
   budget never does (the retry loop must not outlive a DELETE). *)
let should_retry job ~attempt:_ = function
  | E.Error e
    when (e.E.category = E.Io || e.E.category = E.Resource)
         && e.E.code <> "job.cancelled"
         && Budget.check job.budget ~facts:0 = None ->
    Some None  (* no server-provided Retry-After; use the backoff *)
  | _ -> None

let execute t job () =
  (* The submit path publishes the job (journal + table) after the pool
     accepted it; don't run before that linkage is visible. *)
  Mutex.lock t.mu;
  while not job.linked do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu;
  if start t job then begin
    match
      Retry.run ~policy:t.retry ~should_retry:(should_retry job) (step t job)
    with
    | body ->
      (* A budget cancelled mid-run interrupts the cycle/chase at a poll
         point and still returns a (degraded) body; the job must report
         cancelled, not quietly complete. *)
      if Budget.check job.budget ~facts:0 = None then
        finish t job Done ~result:body ()
      else finish t job Cancelled ~error:(cancelled_error job) ()
    | exception E.Error e when e.E.code = "job.cancelled" ->
      finish t job Cancelled ~error:(cancelled_error job) ()
    | exception e ->
      let e = Codec.error_of_exn e in
      finish t job Failed ~error:(e.E.code, e.E.message) ()
  end

(* caller holds [mu] *)
let pool t =
  match t.pool with
  | Some p -> p
  | None ->
    (* Only ever submitted to, so [domains + 1] gives exactly [domains]
       worker domains. *)
    let p =
      Task_pool.create ~capacity:t.queue ~domains:(t.domains + 1) ()
    in
    t.pool <- Some p;
    p

let enqueue t job =
  let p =
    Mutex.lock t.mu;
    let p = pool t in
    Mutex.unlock t.mu;
    p
  in
  Health.submit p (fun () -> ignore (Health.supervise (execute t job)))

(* ---- submission ---------------------------------------------------------- *)

let validate_op op =
  if op <> "risk" && op <> "anonymize" then
    E.fail ~code:"job.bad_op" E.Parse
      (Printf.sprintf "unknown job op %s (expected risk or anonymize)" op)
      ~context:[ ("op", op) ]

let validate_tenant tenant =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
    | _ -> false
  in
  if
    tenant = ""
    || String.length tenant > 64
    || not (String.for_all ok_char tenant)
  then
    E.fail ~code:"tenant.bad_id" E.Parse
      (Printf.sprintf
         "invalid tenant %S (want 1-64 chars of [A-Za-z0-9._-])" tenant)

let submit_record job =
  Json.Obj
    [
      ("kind", Json.Str "job.submit");
      ("job", Json.Str job.id);
      ("tenant", Json.Str job.tenant);
      ("op", Json.Str job.op);
      ("dataset", Json.Str job.dataset);
      ("options", Codec.options_to_json job.options);
      ("submitted_at", Json.Float job.submitted_at);
    ]

let submit t ~tenant ~dataset ~op ~options =
  validate_op op;
  validate_tenant tenant;
  (* Fail fast on an unregistered dataset (404), before spending a rate
     token on a submission that can't run. *)
  ignore (Registry.get t.registry dataset);
  let admitted =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        match take_token t tenant with
        | Some wait ->
          t.rejected_rate <- t.rejected_rate + 1;
          Error (rate_limited tenant wait)
        | None ->
          if active_for t tenant >= t.quota then begin
            t.rejected_quota <- t.rejected_quota + 1;
            Error (quota_exceeded tenant t.quota)
          end
          else begin
            let id = Printf.sprintf "job-%06d" t.next_id in
            t.next_id <- t.next_id + 1;
            Ok id
          end)
  in
  let id = ok_or_raise admitted in
  let job =
    {
      id;
      tenant;
      op;
      dataset;
      options;
      submitted_at = Unix.gettimeofday ();
      budget = Budget.create ();
      state = Queued;
      attempts = 0;
      result = None;
      error = None;
      finished_at = None;
      replayed = false;
      linked = false;
    }
  in
  (* Reserve the pool slot before journaling: a queue-full 503 must not
     leave a journal record claiming the job exists. The worker blocks
     on [linked] until the record is durable and the job published. *)
  if not (enqueue t job) then begin
    Mutex.lock t.mu;
    t.rejected_queue <- t.rejected_queue + 1;
    Mutex.unlock t.mu;
    raise (E.Error queue_full)
  end;
  (match
     with_commit t ~record:(submit_record job) @@ fun commit_now ->
     Mutex.lock t.mu;
     Fun.protect
       ~finally:(fun () ->
         Condition.broadcast t.cond;
         Mutex.unlock t.mu)
       (fun () ->
         commit_now ();
         Hashtbl.replace t.table id job;
         t.submitted <- t.submitted + 1;
         job.linked <- true)
   with
  | () -> ()
  | exception e ->
    (* The journal refused the submit record: unblock the reserved
       worker slot with the job settled as failed (nothing durable, so
       a restart won't resurrect it either). *)
    Mutex.lock t.mu;
    job.state <- Failed;
    job.error <- Some ("jobs.journal", "could not journal the submission");
    job.finished_at <- Some (Unix.gettimeofday ());
    job.linked <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    raise e);
  job

let cancel t id =
  let job = get t id in
  (* Cooperative: running work observes the budget at its poll points. *)
  Budget.cancel job.budget;
  (if job.state = Queued then
     (* Settle a not-yet-started job immediately; [finish] is a no-op if
        a worker won the race in the meantime. *)
     finish t job Cancelled ~error:(cancelled_error job) ());
  job

(* ---- persistence --------------------------------------------------------- *)

let bad_record detail =
  E.Error (E.make ~code:"persist.bad_record" E.Io ("journal record: " ^ detail))

let record_string json key =
  match Option.bind (Json.member key json) Json.to_string_opt with
  | Some s -> s
  | None -> raise (bad_record ("missing string field " ^ key))

let record_options json =
  match Json.member "options" json with
  | Some options_json -> (
    match Codec.options_of_json options_json with
    | Ok options -> options
    | Error e -> raise (E.Error e))
  | None -> raise (bad_record "missing options")

(* Track the id counter past every id ever seen, so post-recovery ids
   never collide with journaled ones. Caller holds [mu]. *)
let note_id t id =
  match String.index_opt id '-' with
  | Some i -> (
    match int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1))
    with
    | Some n -> t.next_id <- max t.next_id (n + 1)
    | None -> ())
  | None -> ()

let insert_restored t job =
  Mutex.lock t.mu;
  Hashtbl.replace t.table job.id job;
  note_id t job.id;
  t.submitted <- t.submitted + 1;
  Mutex.unlock t.mu

let job_of_record t json =
  let id = record_string json "job" in
  ignore t;
  {
    id;
    tenant = record_string json "tenant";
    op = record_string json "op";
    dataset = record_string json "dataset";
    options = record_options json;
    submitted_at =
      (match
         Option.bind (Json.member "submitted_at" json) Json.to_float_opt
       with
      | Some f -> f
      | None -> Unix.gettimeofday ());
    budget = Budget.create ();
    state = Queued;
    attempts = 0;
    result = None;
    error = None;
    finished_at = None;
    replayed = false;
    linked = true;  (* replayed jobs don't race a live submit *)
  }

let apply t json =
  match record_string json "kind" with
  | "job.submit" -> insert_restored t (job_of_record t json)
  | "job.start" ->
    let job = get t (record_string json "job") in
    Mutex.lock t.mu;
    if job.state = Queued then job.state <- Running;
    Mutex.unlock t.mu
  | "job.finish" ->
    let job = get t (record_string json "job") in
    let state =
      match state_of_string (record_string json "state") with
      | Some s when terminal s -> s
      | _ -> raise (bad_record "bad terminal state")
    in
    Mutex.lock t.mu;
    job.state <- state;
    (match Option.bind (Json.member "attempts" json) Json.to_int_opt with
    | Some n -> job.attempts <- n
    | None -> ());
    job.result <- Option.bind (Json.member "result" json) Json.to_string_opt;
    (match Option.bind (Json.member "code" json) Json.to_string_opt with
    | Some code ->
      job.error <-
        Some
          ( code,
            Option.value ~default:""
              (Option.bind (Json.member "message" json) Json.to_string_opt) )
    | None -> ());
    job.finished_at <- Some job.submitted_at;
    prune_terminal t job.tenant;
    Mutex.unlock t.mu
  | kind -> raise (bad_record ("unknown kind " ^ kind))

let dump_job job =
  Json.Obj
    ([
       ("job", Json.Str job.id);
       ("tenant", Json.Str job.tenant);
       ("op", Json.Str job.op);
       ("dataset", Json.Str job.dataset);
       ("options", Codec.options_to_json job.options);
       ("submitted_at", Json.Float job.submitted_at);
       ("state", Json.Str (state_to_string job.state));
       ("attempts", Json.Int job.attempts);
       ("replayed", Json.Bool job.replayed);
     ]
    @ (match job.result with
      | Some body -> [ ("result", Json.Str body) ]
      | None -> [])
    @
    match job.error with
    | Some (code, message) ->
      [ ("code", Json.Str code); ("message", Json.Str message) ]
    | None -> [])

let dump t =
  let jobs = list t in
  Mutex.lock t.mu;
  let next_id = t.next_id in
  Mutex.unlock t.mu;
  Json.Obj
    [
      ("next_id", Json.Int next_id);
      ("jobs", Json.List (List.map dump_job jobs));
    ]

let restore t json =
  (match Option.bind (Json.member "next_id" json) Json.to_int_opt with
  | Some n ->
    Mutex.lock t.mu;
    t.next_id <- max t.next_id n;
    Mutex.unlock t.mu
  | None -> ());
  match Option.bind (Json.member "jobs" json) Json.to_list_opt with
  | None -> ()
  | Some jobs ->
    List.iter
      (fun job_json ->
        let job = job_of_record t job_json in
        (match
           Option.bind (Json.member "state" job_json) Json.to_string_opt
           |> Fun.flip Option.bind state_of_string
         with
        | Some state -> job.state <- state
        | None -> ());
        (match
           Option.bind (Json.member "attempts" job_json) Json.to_int_opt
         with
        | Some n -> job.attempts <- n
        | None -> ());
        job.result <-
          Option.bind (Json.member "result" job_json) Json.to_string_opt;
        (match
           Option.bind (Json.member "code" job_json) Json.to_string_opt
         with
        | Some code ->
          job.error <-
            Some
              ( code,
                Option.value ~default:""
                  (Option.bind (Json.member "message" job_json)
                     Json.to_string_opt) )
        | None -> ());
        if terminal job.state then job.finished_at <- Some job.submitted_at;
        insert_restored t job;
        (* snapshots written under a larger [retain] still load bounded *)
        if terminal job.state then begin
          Mutex.lock t.mu;
          prune_terminal t job.tenant;
          Mutex.unlock t.mu
        end)
      jobs

(* Settle everything recovery left non-terminal. Queued jobs re-run
   (they were acknowledged but never started — exactly-once is still
   achievable); a job that was running when the process died may have
   had partial effects observed, so it faults as [job.orphaned] rather
   than risk a double execution the client didn't ask for. *)
let resume t =
  let pending =
    List.filter (fun job -> not (terminal job.state)) (list t)
  in
  List.iter
    (fun job ->
      match job.state with
      | Running ->
        Mutex.lock t.mu;
        job.state <- Queued;  (* so [finish]'s guard sees non-terminal *)
        Mutex.unlock t.mu;
        finish t job Orphaned
          ~error:
            ( "job.orphaned",
              "the server restarted while this job was running; verify and \
               resubmit" )
          ()
      | Queued ->
        Mutex.lock t.mu;
        job.replayed <- true;
        t.replayed <- t.replayed + 1;
        Mutex.unlock t.mu;
        if not (enqueue t job) then
          finish t job Failed
            ~error:("jobs.queue_full", "no worker slot at recovery")
            ()
      | _ -> ())
    pending

let register t =
  match t.persist with
  | None -> ()
  | Some p ->
    Persist.register p ~section:"jobs" ~prefix:"job." ~dump:(fun () -> dump t)
      ~restore:(restore t) ~apply:(apply t)

(* ---- accessors ----------------------------------------------------------- *)

let job_id job = job.id

(* ---- lifecycle / accounting ---------------------------------------------- *)

let stop t =
  let p =
    Mutex.lock t.mu;
    let p = t.pool in
    t.pool <- None;
    Mutex.unlock t.mu;
    p
  in
  match p with None -> () | Some p -> Task_pool.stop p

(* Aggregates only, like the dataset series — never labelled per job id
   or tenant (both are client-chosen). *)
let metrics t =
  let module M = Vadasa_telemetry.Telemetry.Metric in
  let rejected gate key n =
    M.counter ~labels:[ ("gate", gate) ] ~family:"vadasa_jobs_rejected_total"
      ~help:"Submissions rejected before admission, by gate" key n
  in
  Mutex.lock t.mu;
  let queued, running =
    Hashtbl.fold
      (fun _ j (q, r) ->
        match j.state with
        | Queued -> (q + 1, r)
        | Running -> (q, r + 1)
        | _ -> (q, r))
      t.table (0, 0)
  in
  let entries =
    [
      M.counter ~family:"vadasa_jobs_submitted_total"
        ~help:"Jobs admitted and journaled" "submitted" t.submitted;
      M.counter ~family:"vadasa_jobs_completed_total"
        ~help:"Jobs finished successfully" "completed" t.completed;
      M.counter ~family:"vadasa_jobs_failed_total"
        ~help:"Jobs that exhausted their retries or hit a non-retryable error"
        "failed" t.failed;
      M.counter ~family:"vadasa_jobs_cancelled_total"
        ~help:"Jobs cancelled by DELETE" "cancelled" t.cancelled;
      M.counter ~family:"vadasa_jobs_orphaned_total"
        ~help:"Jobs found mid-flight during crash recovery (faulted, not re-run)"
        "orphaned" t.orphaned;
      M.counter ~family:"vadasa_jobs_replayed_total"
        ~help:"Queued jobs re-run after crash recovery" "replayed" t.replayed;
      rejected "quota" "rejected_quota" t.rejected_quota;
      rejected "rate" "rejected_rate" t.rejected_rate;
      rejected "queue" "rejected_queue" t.rejected_queue;
      M.counter ~family:"vadasa_jobs_pruned_total"
        ~help:"Terminal jobs dropped by the per-tenant retention cap" "pruned"
        t.pruned;
      M.gauge ~family:"vadasa_jobs_queued" ~help:"Jobs awaiting a worker"
        "queued" queued;
      M.gauge ~family:"vadasa_jobs_running" ~help:"Jobs currently executing"
        "running" running;
      M.json "quota" (Json.Int t.quota);
      M.json "retain" (Json.Int t.retain);
      M.json "rate" (Json.Float t.rate);
      M.json "burst" (Json.Float t.burst);
    ]
  in
  Mutex.unlock t.mu;
  entries
