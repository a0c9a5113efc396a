(* Tests for the incremental SDC subsystem: delta-maintained risk
   scoring ([Risk.Incremental] vs. a full [Risk.estimate],
   byte-identical reports), the dataset registry's lifecycle and
   consistency contract (conflicts, LRU eviction, mid-append fault
   injection, no reasoning engine on PUT or append), and the
   /v1/datasets HTTP surface end-to-end — including the snapshot
   cache's invalidation on append. *)

module Srv = Vadasa_server
module Http = Srv.Http
module Json = Vadasa_base.Json
module E = Vadasa_base.Error
module Faultpoint = Vadasa_resilience.Faultpoint
module R = Vadasa_relational
module S = Vadasa_sdc

open E2e

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else String.sub haystack i nl = needle || go (i + 1)
  in
  nl = 0 || go 0

(* --- shared microdata fixtures -------------------------------------------- *)

(* base ~2/3, then two deltas *)
let slice3 csv =
  let n = csv_rows csv in
  let n1 = 2 * n / 3 and n2 = 5 * n / 6 in
  (csv_slice csv 0 n1, csv_slice csv n1 n2, csv_slice csv n2 n)

let render md report = Srv.Codec.risk_report_string ~threshold:0.5 md report

(* --- risk: incremental re-scoring equals a full estimate ------------------ *)

let test_risk_incremental_equals_full () =
  let csv = Lazy.force figure6_csv in
  let base, d1, d2 = slice3 csv in
  let cases =
    [
      ("re-identification", S.Risk.Re_identification, None);
      ("k-anonymity", S.Risk.K_anonymity { k = 2 }, None);
      ("individual naive", S.Risk.Individual S.Risk.Naive, None);
      ( "individual benedetti-franconi",
        S.Risk.Individual S.Risk.Benedetti_franconi,
        None );
      (* draws keyed by (seed, f, ŵ): patched group-locally like the
         closed forms *)
      ( "individual monte-carlo",
        S.Risk.Individual (S.Risk.Monte_carlo { samples = 40; seed = 7 }),
        None );
      (* minimal sample uniques are a whole-dataset property: the scorer
         must fall back to a full re-estimate, and still match *)
      ( "suda",
        S.Risk.Suda { max_msu_size = 3; threshold_size = 3 },
        Some S.Risk.Incremental.Measure_order );
    ]
  in
  List.iter
    (fun (label, measure, expected_fallback) ->
      let md = md_of_csv base in
      let scorer = S.Risk.Incremental.create measure md in
      let append_delta delta =
        let dmd = md_of_csv delta in
        R.Relation.iter
          (R.Relation.add (S.Microdata.relation md))
          (S.Microdata.relation dmd);
        S.Risk.Incremental.append scorer
      in
      let o1 = append_delta d1 in
      let o2 = append_delta d2 in
      Alcotest.(check int)
        (label ^ ": delta sizes") (csv_rows d1 + csv_rows d2)
        (o1.S.Risk.Incremental.rows_added + o2.S.Risk.Incremental.rows_added);
      (match expected_fallback with
      | Some fb ->
        Alcotest.(check (option string))
          (label ^ ": fallback fired")
          (Some (S.Risk.Incremental.fallback_to_string fb))
          (Option.map S.Risk.Incremental.fallback_to_string
             o2.S.Risk.Incremental.fallback)
      | None ->
        Alcotest.(check bool)
          (label ^ ": no fallback") true
          (o2.S.Risk.Incremental.fallback = None));
      let md_union = md_of_csv csv in
      Alcotest.(check string)
        (label ^ ": report byte-identical to full estimate")
        (render md_union (S.Risk.estimate measure md_union))
        (render md (S.Risk.Incremental.report scorer)))
    cases

(* --- dataset registry ------------------------------------------------------ *)

let default_measure () =
  match Srv.Codec.measure_of_options Srv.Codec.default_options with
  | Ok m -> m
  | Error e -> Alcotest.failf "measure: %s" (E.to_string e)

let put_csv reg id csv =
  Srv.Registry.put reg ~id ~digest:csv ~bytes:(String.length csv)
    ~options:Srv.Codec.default_options ~measure:(default_measure ())
    ~semantics:R.Null_semantics.Maybe_match (md_of_csv csv)

let check_typed_error what code f =
  match f () with
  | _ -> Alcotest.failf "%s: expected error %s" what code
  | exception E.Error e -> Alcotest.(check string) what code e.E.code

let test_registry_lifecycle () =
  let reg = Srv.Registry.create ~capacity:16 () in
  let base, d1, _ = slice3 (Lazy.force figure6_csv) in
  let outcome = put_csv reg "fig" base in
  Alcotest.(check bool) "created" true outcome.Srv.Registry.created;
  Alcotest.(check (list string)) "listed" [ "fig" ] (Srv.Registry.ids reg);
  let again = put_csv reg "fig" base in
  Alcotest.(check bool) "idempotent re-PUT" false again.Srv.Registry.created;
  check_typed_error "clashing content" "dataset.conflict" (fun () ->
      put_csv reg "fig" d1);
  check_typed_error "bad id" "dataset.bad_id" (fun () ->
      put_csv reg "bad/id" base);
  Alcotest.(check bool) "delete" true (Srv.Registry.delete reg "fig");
  Alcotest.(check bool) "gone" true (Srv.Registry.find reg "fig" = None);
  Alcotest.(check bool) "double delete" false (Srv.Registry.delete reg "fig");
  check_typed_error "get after delete" "dataset.not_found" (fun () ->
      Srv.Registry.get reg "fig")

let test_registry_lru_eviction () =
  let reg = Srv.Registry.create ~capacity:2 () in
  let base, _, _ = slice3 (Lazy.force figure6_csv) in
  ignore (put_csv reg "a" base);
  ignore (put_csv reg "b" base);
  (* touch "a" so "b" is the least recently used *)
  ignore (Srv.Registry.find reg "a");
  ignore (put_csv reg "c" base);
  let metrics = Srv.Registry.metrics reg in
  Alcotest.(check int) "bounded" 2 (Metric_value.int metrics "registered");
  Alcotest.(check int) "one eviction" 1 (Metric_value.int metrics "evictions");
  Alcotest.(check bool) "b evicted" true (Srv.Registry.find reg "b" = None);
  Alcotest.(check bool) "a kept" true (Srv.Registry.find reg "a" <> None)

let test_registry_append_consistency () =
  let audit_lines = ref [] in
  let reg =
    Srv.Registry.create ~capacity:4
      ~audit:(fun line -> audit_lines := line :: !audit_lines)
      ()
  in
  let csv = Lazy.force figure6_csv in
  let base, d1, _ = slice3 csv in
  let entry = (put_csv reg "fig" base).Srv.Registry.entry in
  let rows () =
    S.Microdata.cardinal (Srv.Registry.entry_md_snapshot entry)
  in
  let n_base = rows () in
  (* invalid deltas are rejected before any state changes *)
  check_typed_error "schema mismatch" "dataset.conflict" (fun () ->
      Srv.Registry.append reg entry ~csv:"a,b\n1,2\n");
  let header = List.hd (String.split_on_char '\n' base) in
  check_typed_error "ragged delta" "dataset.bad_delta" (fun () ->
      Srv.Registry.append reg entry ~csv:(header ^ "\n1\n"));
  Alcotest.(check int) "rows untouched by rejects" n_base (rows ());
  (* a fault injected mid-append leaves the last consistent fixpoint *)
  let before =
    render (Srv.Registry.entry_md_snapshot entry)
      (Srv.Registry.entry_report entry)
  in
  Fun.protect ~finally:Faultpoint.reset (fun () ->
      Faultpoint.reset ();
      (match Faultpoint.arm "dataset.append" Faultpoint.Fail with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
      check_typed_error "injected fault" "fault.dataset.append" (fun () ->
          Srv.Registry.append reg entry ~csv:d1);
      Faultpoint.reset ();
      Alcotest.(check int) "rows untouched by fault" n_base (rows ());
      Alcotest.(check string) "report untouched by fault" before
        (render
           (Srv.Registry.entry_md_snapshot entry)
           (Srv.Registry.entry_report entry)));
  (* the same delta then applies cleanly *)
  let outcome = Srv.Registry.append reg entry ~csv:d1 in
  Alcotest.(check int) "rows added" (csv_rows d1)
    outcome.Srv.Registry.rows_added;
  Alcotest.(check int) "rows total" (n_base + csv_rows d1) (rows ());
  (* the maintained report equals a from-scratch estimate on the union *)
  let snap_md = Srv.Registry.entry_md_snapshot entry in
  Alcotest.(check string) "maintained report = full estimate"
    (render snap_md (S.Risk.estimate (default_measure ()) snap_md))
    (render snap_md (Srv.Registry.entry_report entry));
  ignore (Srv.Registry.delete reg "fig");
  let events =
    List.filter_map
      (fun line ->
        match Json.of_string line with
        | Ok json -> Option.bind (Json.member "event" json) Json.to_string_opt
        | Error _ -> None)
      (List.rev !audit_lines)
  in
  Alcotest.(check (list string))
    "audit trail: one line per decision"
    [ "register"; "append"; "delete" ]
    events

(* The registry maintains reports with [Risk.Incremental] alone: a PUT
   and two appends through the handlers, under the default measure
   (k-anonymity, which the reasoning engine could express), record no
   [engine.*] span, and the maintained report still equals a fresh
   estimate on the union. *)
let test_registry_append_runs_no_engine () =
  let module T = Vadasa_telemetry.Telemetry in
  let csv = Lazy.force figure6_csv in
  let base, d1, d2 = slice3 csv in
  let handlers = Srv.Handlers.create () in
  let router = Srv.Handlers.router handlers in
  let call meth path body =
    let resp =
      Srv.Router.dispatch router
        {
          Http.meth;
          target = path;
          path;
          query = [];
          version = "HTTP/1.1";
          headers = [ ("content-type", "text/csv") ];
          body;
          deadline = None;
        }
    in
    if resp.Http.status >= 300 then
      Alcotest.failf "%s: %d %s" path resp.Http.status resp.Http.resp_body;
    resp.Http.status
  in
  let was = T.enabled () in
  T.set_enabled true;
  let statuses, spans =
    Fun.protect
      ~finally:(fun () ->
        T.set_enabled was;
        Srv.Handlers.shutdown handlers)
      (fun () ->
        T.with_local_trace (fun () ->
            let put = call Http.PUT "/v1/datasets/fig" base in
            let a1 = call Http.POST "/v1/datasets/fig/facts" d1 in
            let a2 = call Http.POST "/v1/datasets/fig/facts" d2 in
            [ put; a1; a2 ]))
  in
  Alcotest.(check (list int)) "PUT and two appends" [ 201; 200; 200 ] statuses;
  Alcotest.(check bool) "the requests were traced" true
    (List.exists (fun s -> s.T.Span.sp_name = "registry.append") spans);
  Alcotest.(check (list string)) "no engine span" []
    (List.filter_map
       (fun s ->
         let name = s.T.Span.sp_name in
         if String.starts_with ~prefix:"engine." name then Some name else None)
       spans);
  let entry = Srv.Registry.get (Srv.Handlers.registry handlers) "fig" in
  let md_union = md_of_csv csv in
  Alcotest.(check string) "maintained report = estimate on the union"
    (render md_union
       (S.Risk.estimate
          ~semantics:(Srv.Registry.entry_semantics entry)
          (Srv.Registry.entry_measure entry)
          md_union))
    (render (Srv.Registry.entry_md_snapshot entry) (Srv.Registry.entry_report entry))

let test_cache_remove () =
  let c = Srv.Cache.create ~capacity:4 "t" in
  ignore (Srv.Cache.find_or_build c "k" (fun _ -> 1));
  Srv.Cache.remove c "k";
  Alcotest.(check (option int)) "removed" None (Srv.Cache.find_opt c "k");
  (* removing an absent key is a no-op *)
  Srv.Cache.remove c "k"

(* --- end-to-end over HTTP -------------------------------------------------- *)

let test_e2e_registry_flow () =
  let csv = Lazy.force figure6_csv in
  let base, d1, d2 = slice3 csv in
  let csv_headers = [ ("content-type", "text/csv") ] in
  with_server (fun _server port ->
      let call = http_call ~port in
      (* register *)
      let status, body =
        call ~meth:"PUT" ~target:"/v1/datasets/fig?threshold=0.5"
          ~headers:csv_headers ~body:base ()
      in
      Alcotest.(check int) "PUT 201" 201 status;
      Alcotest.(check (option bool))
        "created" (Some true)
        (Option.bind (Json.member "created" (json_of body)) Json.to_bool_opt);
      (* idempotent re-PUT *)
      let status, _ =
        call ~meth:"PUT" ~target:"/v1/datasets/fig?threshold=0.5"
          ~headers:csv_headers ~body:base ()
      in
      Alcotest.(check int) "re-PUT 200" 200 status;
      (* clashing content *)
      let status, body =
        call ~meth:"PUT" ~target:"/v1/datasets/fig" ~headers:csv_headers
          ~body:d1 ()
      in
      Alcotest.(check int) "conflict 409" 409 status;
      Alcotest.(check (option string))
        "conflict code" (Some "dataset.conflict") (error_code body);
      (* an unknown semantics is refused, as on /v1/anonymize *)
      let status, body =
        call ~meth:"PUT" ~target:"/v1/datasets/bogus?semantics=bogus"
          ~headers:csv_headers ~body:base ()
      in
      Alcotest.(check int) "bad semantics 422" 422 status;
      Alcotest.(check (option string))
        "semantics code" (Some "semantics.unknown") (error_code body);
      (* list *)
      let status, body = call ~meth:"GET" ~target:"/v1/datasets" () in
      Alcotest.(check int) "list 200" 200 status;
      Alcotest.(check (option int))
        "one dataset" (Some 1)
        (Option.bind (Json.member "count" (json_of body)) Json.to_int_opt);
      (* first append *)
      let status, body =
        call ~meth:"POST" ~target:"/v1/datasets/fig/facts"
          ~headers:csv_headers ~body:d1 ()
      in
      Alcotest.(check int) "append 200" 200 status;
      Alcotest.(check (option int))
        "rows_total after d1"
        (Some (csv_rows base + csv_rows d1))
        (Option.bind (Json.member "rows_total" (json_of body)) Json.to_int_opt);
      (* populate the full-mode snapshot cache, then invalidate it *)
      let _, full_before_d2 =
        call ~meth:"GET" ~target:"/v1/datasets/fig/risk?mode=full" ()
      in
      (* second append *)
      let status, _ =
        call ~meth:"POST" ~target:"/v1/datasets/fig/facts"
          ~headers:csv_headers ~body:d2 ()
      in
      Alcotest.(check int) "append d2 200" 200 status;
      (* incremental report = from-scratch full mode, byte-identical *)
      let status, incremental =
        call ~meth:"GET" ~target:"/v1/datasets/fig/risk" ()
      in
      Alcotest.(check int) "risk 200" 200 status;
      let status, full =
        call ~meth:"GET" ~target:"/v1/datasets/fig/risk?mode=full" ()
      in
      Alcotest.(check int) "full 200" 200 status;
      Alcotest.(check string) "incremental = full, byte-identical"
        incremental full;
      (* the cached pre-append snapshot must not leak through *)
      Alcotest.(check bool) "append invalidated the snapshot cache" false
        (String.equal full full_before_d2);
      (* = the stateless endpoint on the union CSV *)
      let status, shown =
        call ~meth:"GET" ~target:"/v1/datasets/fig?include=csv" ()
      in
      Alcotest.(check int) "show 200" 200 status;
      let union_csv =
        match
          Option.bind (Json.member "csv" (json_of shown)) Json.to_string_opt
        with
        | Some s -> s
        | None -> Alcotest.fail "include=csv returns the document"
      in
      Alcotest.(check int) "union rows" (csv_rows csv) (csv_rows union_csv);
      let status, stateless =
        call ~meth:"POST" ~target:"/v1/risk?threshold=0.5"
          ~headers:csv_headers ~body:union_csv ()
      in
      Alcotest.(check int) "stateless 200" 200 status;
      Alcotest.(check string) "registry = POST /v1/risk on the union"
        stateless incremental;
      (* registry series on the Prometheus exposition *)
      let status, prom =
        call ~meth:"GET" ~target:"/metrics"
          ~headers:[ ("accept", "text/plain; version=0.0.4") ]
          ()
      in
      Alcotest.(check int) "metrics 200" 200 status;
      List.iter
        (fun series ->
          Alcotest.(check bool) ("exposes " ^ series) true
            (contains prom series))
        [
          "vadasa_datasets_registered 1";
          "vadasa_datasets_appends_total 2";
          "vadasa_datasets_bytes";
          "vadasa_datasets_rows";
        ];
      (* typed errors with mapped statuses *)
      let status, body =
        call ~meth:"GET" ~target:"/v1/datasets/nope/risk" ()
      in
      Alcotest.(check int) "unknown id 404" 404 status;
      Alcotest.(check (option string))
        "not_found code" (Some "dataset.not_found") (error_code body);
      let status, body =
        call ~meth:"POST" ~target:"/v1/datasets/fig/facts"
          ~headers:csv_headers ~body:"a,b\n1,2\n" ()
      in
      Alcotest.(check int) "schema mismatch 409" 409 status;
      Alcotest.(check (option string))
        "mismatch code" (Some "dataset.conflict") (error_code body);
      (* delete, then the id resolves no more *)
      let status, _ = call ~meth:"DELETE" ~target:"/v1/datasets/fig" () in
      Alcotest.(check int) "delete 200" 200 status;
      let status, _ = call ~meth:"GET" ~target:"/v1/datasets/fig" () in
      Alcotest.(check int) "deleted 404" 404 status)

(* --- maintained-report rendering ------------------------------------------- *)

let csv_headers = [ ("content-type", "text/csv") ]

(* Each maintained GET, through the entry's per-row text columns,
   equals both a cold render of a copy of the same state and the
   ?mode=full body — after every append, under registered and
   overridden thresholds. Every other append is a single row. The GET
   after an append that re-scored [r] rows formats at most [2r + 2]
   floats (the re-scored rows' risk and weight_sum, plus threshold and
   global risk), and a repeated GET formats only those last two: a
   writer that reprinted every float would format [2n + 2]. *)
let test_e2e_memoized_render () =
  let csv = Lazy.force figure6_csv in
  let n = csv_rows csv in
  let base_rows = n / 3 in
  let deltas = 24 in
  let step = (n - base_rows) / deltas in
  let handlers = Srv.Handlers.create () in
  with_server ~handlers (fun _server port ->
      let call = http_call ~port in
      let status, _ =
        call ~meth:"PUT" ~target:"/v1/datasets/memo?measure=individual"
          ~headers:csv_headers ~body:(csv_slice csv 0 base_rows) ()
      in
      Alcotest.(check int) "PUT 201" 201 status;
      let entry = Srv.Registry.get (Srv.Handlers.registry handlers) "memo" in
      let measure = Srv.Registry.entry_measure entry in
      let semantics = Srv.Registry.entry_semantics entry in
      (* the first render prints every float; the bound holds from here *)
      let status, _ = call ~meth:"GET" ~target:"/v1/datasets/memo/risk" () in
      Alcotest.(check int) "first GET 200" 200 status;
      let partial_rescores = ref 0 in
      for d = 0 to deltas - 1 do
        let lo = base_rows + (d * step) in
        let hi =
          if d = deltas - 1 then n else if d mod 2 = 1 then lo + 1 else lo + step
        in
        let status, body =
          call ~meth:"POST" ~target:"/v1/datasets/memo/facts"
            ~headers:csv_headers ~body:(csv_slice csv lo hi) ()
        in
        Alcotest.(check int) "append 200" 200 status;
        let rescored =
          match Option.bind (Json.member "rows_rescored" (json_of body)) Json.to_int_opt with
          | Some r -> r
          | None -> Alcotest.failf "append response without rows_rescored: %s" body
        in
        let threshold, query =
          match d mod 3 with
          | 0 -> (0.5, "")
          | 1 -> (0.1, "?threshold=0.1")
          | _ -> (0.75, "?threshold=0.75")
        in
        let label = Printf.sprintf "append %d%s" (d + 1) query in
        let status, maintained =
          call ~meth:"GET" ~target:("/v1/datasets/memo/risk" ^ query) ()
        in
        Alcotest.(check int) (label ^ ": GET 200") 200 status;
        let formatted = Srv.Registry.formatted_floats entry in
        if formatted > (2 * rescored) + 2 then
          Alcotest.failf "%s: formatted %d floats after %d rows were re-scored"
            label formatted rescored;
        let copy = Srv.Registry.entry_md_snapshot entry in
        let rows = S.Microdata.cardinal copy in
        if rescored < rows then incr partial_rescores;
        Alcotest.(check string) (label ^ ": = cold render of a copy")
          (Srv.Codec.risk_report_string ~threshold copy
             (S.Risk.estimate ~semantics measure copy))
          maintained;
        let sep = if query = "" then "?" else "&" in
        let status, full =
          call ~meth:"GET"
            ~target:("/v1/datasets/memo/risk" ^ query ^ sep ^ "mode=full")
            ()
        in
        Alcotest.(check int) (label ^ ": full 200") 200 status;
        Alcotest.(check string) (label ^ ": = ?mode=full") full maintained;
        let status, again =
          call ~meth:"GET" ~target:("/v1/datasets/memo/risk" ^ query) ()
        in
        Alcotest.(check int) (label ^ ": repeated GET 200") 200 status;
        Alcotest.(check string) (label ^ ": repeated GET") maintained again;
        Alcotest.(check int) (label ^ ": a repeated GET formats threshold and global risk only")
          2 (Srv.Registry.formatted_floats entry)
      done;
      if !partial_rescores = 0 then
        Alcotest.fail "every append re-scored the whole dataset: the bound tested nothing")

(* An append committing while a GET renders must not tear the body: the
   dataset's row count and its per-row arrays come from one state. *)
let test_e2e_concurrent_read_not_torn () =
  let csv = Lazy.force figure6_csv in
  let n = csv_rows csv in
  let base_rows = n / 2 in
  with_server (fun _server port ->
      let call = http_call ~port in
      let status, _ =
        call ~meth:"PUT" ~target:"/v1/datasets/race" ~headers:csv_headers
          ~body:(csv_slice csv 0 base_rows) ()
      in
      Alcotest.(check int) "PUT 201" 201 status;
      let finished = Atomic.make false in
      let appender =
        Domain.spawn (fun () ->
            let failures = ref 0 in
            for lo = base_rows to n - 1 do
              let status, _ =
                call ~meth:"POST" ~target:"/v1/datasets/race/facts"
                  ~headers:csv_headers ~body:(csv_slice csv lo (lo + 1)) ()
              in
              if status <> 200 then incr failures
            done;
            Atomic.set finished true;
            !failures)
      in
      let reads = ref 0 in
      let torn = ref [] in
      let length field json =
        match Option.bind (Json.member field json) Json.to_list_opt with
        | Some l -> List.length l
        | None -> -1
      in
      let check_body body =
        incr reads;
        let json = json_of body in
        let tuples =
          Option.value ~default:(-1)
            (Option.bind (Json.member "tuples" json) Json.to_int_opt)
        in
        let lengths = List.map (fun f -> length f json) [ "risk"; "freq"; "weight_sum" ] in
        if List.exists (fun l -> l <> tuples) lengths then
          torn := (tuples, lengths) :: !torn
      in
      while not (Atomic.get finished) do
        let status, body = call ~meth:"GET" ~target:"/v1/datasets/race/risk" () in
        Alcotest.(check int) "GET 200" 200 status;
        check_body body
      done;
      Alcotest.(check int) "appends answered 200" 0 (Domain.join appender);
      match !torn with
      | [] -> ()
      | (tuples, lengths) :: _ ->
        Alcotest.failf "%d of %d bodies torn, e.g. tuples %d vs arrays %s"
          (List.length !torn) !reads tuples
          (String.concat "/" (List.map string_of_int lengths)))

let () =
  Alcotest.run "incremental"
    [
      ( "risk",
        [
          Alcotest.test_case "incremental = full estimate, all measures"
            `Quick test_risk_incremental_equals_full;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lifecycle" `Quick test_registry_lifecycle;
          Alcotest.test_case "LRU eviction" `Quick test_registry_lru_eviction;
          Alcotest.test_case "append consistency + fault injection" `Quick
            test_registry_append_consistency;
          Alcotest.test_case "append runs no engine" `Quick
            test_registry_append_runs_no_engine;
          Alcotest.test_case "cache remove" `Quick test_cache_remove;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "upload/append/re-risk/delete" `Quick
            test_e2e_registry_flow;
          Alcotest.test_case "memoized render = cold render" `Quick
            test_e2e_memoized_render;
          Alcotest.test_case "concurrent append and GET not torn" `Quick
            test_e2e_concurrent_read_not_torn;
        ] );
    ]
