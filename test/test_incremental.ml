(* Tests for the incremental SDC subsystem: reuse-the-fixpoint chase
   continuation ([Engine.run_incremental] + [Canonical] byte-equality
   against a from-scratch chase, at 1/2/4 domains), delta-maintained
   risk scoring ([Risk.Incremental] vs. a full [Risk.estimate],
   byte-identical reports), the dataset registry's lifecycle and
   consistency contract (conflicts, LRU eviction, mid-append fault
   injection), and the /v1/datasets HTTP surface end-to-end —
   including the snapshot cache's invalidation on append. *)

module Srv = Vadasa_server
module Http = Srv.Http
module Json = Vadasa_base.Json
module E = Vadasa_base.Error
module Value = Vadasa_base.Value
module Faultpoint = Vadasa_resilience.Faultpoint
module R = Vadasa_relational
module S = Vadasa_sdc
module V = Vadasa_vadalog

open E2e

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else String.sub haystack i nl = needle || go (i + 1)
  in
  nl = 0 || go 0

(* --- engine: incremental continuation equals from-scratch ----------------- *)

(* Monotone program with a join, recursion and an existential head (the
   chase invents nulls, so equality must hold modulo null renaming —
   exactly what [Canonical.of_engine] renders). *)
let monotone_src =
  {|
    near(X, Y) :- item(X, A), item(Y, A), X < Y.
    hub(X, H) :- near(X, Y).
    reach(X, Y) :- near(X, Y).
    reach(X, Z) :- reach(X, Y), near(Y, Z).
  |}

let item i = ("item", [| Value.Int i; Value.Int (i mod 7) |])

let items lo hi = List.init (hi - lo) (fun k -> item (lo + k))

let canonical_scratch ?strat src facts =
  let program =
    V.Program.union (V.Parser.parse src) (V.Program.make ~facts [])
  in
  let engine = V.Engine.create ?strat program in
  V.Engine.run engine;
  let c = V.Canonical.of_engine engine in
  V.Engine.shutdown engine;
  c

(* Run base, snapshot, then absorb each delta with [run_incremental]. *)
let canonical_incremental ~domains src base deltas =
  let program =
    V.Program.union (V.Parser.parse src) (V.Program.make ~facts:base [])
  in
  let engine = V.Engine.create ~domains program in
  V.Engine.run engine;
  let snap = ref (V.Engine.snapshot engine) in
  List.iter
    (fun delta ->
      List.iter (fun (p, args) -> V.Engine.add_fact_array engine p args) delta;
      snap := V.Engine.run_incremental ~snapshot:!snap engine)
    deltas;
  let c = V.Canonical.of_engine engine in
  V.Engine.shutdown engine;
  c

let test_incremental_equals_scratch () =
  let expected = canonical_scratch monotone_src (items 0 30) in
  Alcotest.(check bool) "chase derived something" true
    (String.length expected > 0);
  List.iter
    (fun domains ->
      let got =
        canonical_incremental ~domains monotone_src (items 0 20)
          [ items 20 25; items 25 30 ]
      in
      Alcotest.(check string)
        (Printf.sprintf "append(d1); append(d2) = scratch at %d domains"
           domains)
        expected got)
    [ 1; 2; 4 ]

let negation_src =
  {|
    blocked(Y) :- edge(X, Y).
    root(X) :- node(X), not blocked(X).
  |}

let node i = ("node", [| Value.Int i |])
let edge a b = ("edge", [| Value.Int a; Value.Int b |])

let test_incremental_negation_safe_delta () =
  (* A delta that leaves every negated input untouched continues fine. *)
  let base = [ node 1; node 2; node 3; edge 1 2 ] in
  let delta = [ node 4; node 5 ] in
  let expected = canonical_scratch negation_src (base @ delta) in
  Alcotest.(check string) "nodes-only delta continues through negation"
    expected
    (canonical_incremental ~domains:1 negation_src base [ delta ])

let test_incremental_negation_invalidates () =
  let base = [ node 1; node 2; node 3; edge 1 2 ] in
  let program =
    V.Program.union (V.Parser.parse negation_src) (V.Program.make ~facts:base [])
  in
  let engine = V.Engine.create program in
  V.Engine.run engine;
  let snap = V.Engine.snapshot engine in
  (* edge growth feeds [blocked], the negated input of [root]: the
     previous fixpoint no longer holds and the continuation must be
     abandoned, not silently wrong. *)
  List.iter
    (fun (p, args) -> V.Engine.add_fact_array engine p args)
    [ edge 2 3 ];
  (match V.Engine.run_incremental ~snapshot:snap engine with
  | _ -> Alcotest.fail "expected Invalidated"
  | exception V.Engine.Invalidated _ -> ());
  V.Engine.shutdown engine;
  (* recovery: a fresh from-scratch engine over the union is the
     documented fallback, and trivially correct *)
  let expected = canonical_scratch negation_src (base @ [ edge 2 3 ]) in
  Alcotest.(check bool) "rebuild recovers" true (String.length expected > 0)

let score g i w = ("score", [| Value.Str g; Value.Int i; Value.Float w |])

let test_incremental_agg_binding_invalidates () =
  let src = "total(G, S) :- score(G, I, W), S = msum(W, <I>)." in
  let base = [ score "a" 1 0.5; score "a" 2 1.5; score "b" 1 2.0 ] in
  let program =
    V.Program.union (V.Parser.parse src) (V.Program.make ~facts:base [])
  in
  let engine = V.Engine.create program in
  V.Engine.run engine;
  let snap = V.Engine.snapshot engine in
  List.iter
    (fun (p, args) -> V.Engine.add_fact_array engine p args)
    [ score "a" 3 1.0 ];
  (match V.Engine.run_incremental ~snapshot:snap engine with
  | _ -> Alcotest.fail "expected Invalidated (aggregate binding grew)"
  | exception V.Engine.Invalidated _ -> ());
  V.Engine.shutdown engine

let test_incremental_agg_test_continues () =
  (* Aggregate *tests* keep their contributor tables inside the engine,
     so a continuation stays exact even when the delta pushes a group
     over the threshold. *)
  let src = "big(G) :- score(G, I, W), msum(W, <I>) > 2.0." in
  let base = [ score "a" 1 0.5; score "a" 2 1.0; score "b" 1 2.5 ] in
  let delta = [ score "a" 3 1.0 ] in
  let expected = canonical_scratch src (base @ delta) in
  Alcotest.(check bool) "delta tips group a over" true
    (contains expected "big(string:a)");
  Alcotest.(check string) "aggregate test continues" expected
    (canonical_incremental ~domains:1 src base [ delta ]);
  (* Company control (Section 4.4) recurses through the test. Along a
     ladder, a(i) controls b(i) directly and a(i+1) jointly: its own 40%
     plus b(i)'s 20%. The facts come in triples, and the base/delta cuts
     split triples, so a delta both tips groups over the threshold and
     extends the chain that control propagates along. *)
  let control_src =
    {|
      rel(X, X) :- own(X, Y, W).
      rel(X, Y) :- own(X, Y, W), W > 0.5.
      rel(X, Y) :- rel(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.
    |}
  in
  let own x y w = ("own", [| Value.Str x; Value.Str y; Value.Float w |]) in
  let a i = Printf.sprintf "a%d" i and b i = Printf.sprintf "b%d" i in
  let ladder =
    List.concat
      (List.init 10 (fun i ->
           [ own (a i) (b i) 0.6; own (a i) (a (i + 1)) 0.4; own (b i) (a (i + 1)) 0.2 ]))
  in
  let slice lo hi = List.filteri (fun i _ -> lo <= i && i < hi) ladder in
  let expected = canonical_scratch control_src ladder in
  Alcotest.(check bool) "control reaches the end of the ladder" true
    (contains expected "rel(string:a0,string:a10)");
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "company control continues at %d domains" domains)
        expected
        (canonical_incremental ~domains control_src (slice 0 20)
           [ slice 20 25; slice 25 30 ]))
    [ 1; 2; 4 ]

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

let put_csv ?compiled reg id csv =
  Srv.Registry.put reg ~id ~digest:csv ~bytes:(String.length csv)
    ~options:Srv.Codec.default_options ~measure:(default_measure ())
    ~semantics:R.Null_semantics.Maybe_match
    ~compiled:(Option.value ~default:None (Option.map Option.some compiled))
    (md_of_csv csv)

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

let test_registry_chase_incremental () =
  (* A monotone program over the bridge's [val] facts: the continuation
     path actually runs (no rebuild), and the registry's saturated
     database must be byte-identical — via [Canonical] — to a
     from-scratch chase over the unioned dataset. *)
  let src = "pair(I, J) :- val(D, I, A, X), val(D, J, A, X), I < J." in
  let program = V.Parser.parse src in
  let strat = V.Stratify.compute program in
  let reg = Srv.Registry.create ~capacity:4 () in
  let csv = Lazy.force figure6_csv in
  let base, d1, d2 = slice3 csv in
  let entry =
    (put_csv ~compiled:(program, strat) reg "fig" base).Srv.Registry.entry
  in
  let o1 = Srv.Registry.append reg entry ~csv:d1 in
  Alcotest.(check string) "first delta continues" "incremental"
    o1.Srv.Registry.chase_mode;
  let o2 = Srv.Registry.append reg entry ~csv:d2 in
  Alcotest.(check string) "second delta continues" "incremental"
    o2.Srv.Registry.chase_mode;
  let engine =
    match Srv.Registry.entry_engine entry with
    | Some e -> e
    | None -> Alcotest.fail "chase is materialized"
  in
  let scratch =
    let md_union = md_of_csv csv in
    canonical_scratch ~strat src (S.Vadalog_bridge.microdata_facts md_union)
  in
  Alcotest.(check string) "registry chase byte-identical to scratch" scratch
    (V.Canonical.of_engine engine)

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

(* Each maintained GET, through the registry's memoized float printer,
   equals both a cold render of a copy of the same state and the
   ?mode=full body — after every append, under registered and
   overridden thresholds — and the memo stays bounded by the rows. *)
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
      for d = 0 to deltas - 1 do
        let lo = base_rows + (d * step) in
        let hi = if d = deltas - 1 then n else lo + step in
        let status, _ =
          call ~meth:"POST" ~target:"/v1/datasets/memo/facts"
            ~headers:csv_headers ~body:(csv_slice csv lo hi) ()
        in
        Alcotest.(check int) "append 200" 200 status;
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
        let copy = Srv.Registry.entry_md_snapshot entry in
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
        let rows = S.Microdata.cardinal copy in
        let memo = Srv.Registry.rendered_floats entry in
        if memo > 2 * rows then
          Alcotest.failf "%s: memo holds %d floats for %d rows" label memo rows
      done)

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
      ( "engine",
        [
          Alcotest.test_case "append = scratch at 1/2/4 domains" `Quick
            test_incremental_equals_scratch;
          Alcotest.test_case "negation: safe delta continues" `Quick
            test_incremental_negation_safe_delta;
          Alcotest.test_case "negation: unsafe delta invalidates" `Quick
            test_incremental_negation_invalidates;
          Alcotest.test_case "aggregate binding invalidates" `Quick
            test_incremental_agg_binding_invalidates;
          Alcotest.test_case "aggregate test continues" `Quick
            test_incremental_agg_test_continues;
        ] );
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
          Alcotest.test_case "chase continuation = scratch" `Quick
            test_registry_chase_incremental;
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
