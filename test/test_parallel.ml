(* Parallel chase tests: the [Task_pool] scheduler, the byte-identity
   guarantee of multi-domain evaluation (domains 1/2/4 must produce the
   same database, the same insertion order, the same profiler counters),
   the reasoned risk path across domain counts, and fault injection into
   parallel chunk tasks (typed errors, never crashes, and a database
   untouched by the failed batch). *)

module Task_pool = Vadasa_base.Task_pool
module Value = Vadasa_base.Value
module E = Vadasa_base.Error
module Budget = Vadasa_base.Budget
module Faultpoint = Vadasa_resilience.Faultpoint
module S = Vadasa_sdc
module D = Vadasa_datagen
module V = Vadasa_vadalog

(* --- task pool ------------------------------------------------------------ *)

let test_pool_create_invalid () =
  (match Task_pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains < 1 accepted"
  | exception Invalid_argument _ -> ());
  match Task_pool.create ~capacity:0 ~domains:2 () with
  | _ -> Alcotest.fail "capacity < 1 accepted"
  | exception Invalid_argument _ -> ()

let test_pool_ordered_results () =
  let pool = Task_pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Task_pool.stop pool)
    (fun () ->
      Alcotest.(check int) "domains" 4 (Task_pool.domains pool);
      let tasks = Array.init 100 (fun i () -> i * i) in
      let results = Task_pool.run_all pool tasks in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "slot order" (i * i) v
          | Error _ -> Alcotest.fail "unexpected task failure")
        results)

let test_pool_exception_capture () =
  let pool = Task_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Task_pool.stop pool)
    (fun () ->
      let tasks =
        Array.init 20 (fun i () ->
            if i = 7 || i = 13 then failwith (string_of_int i) else i)
      in
      let results = Task_pool.run_all pool tasks in
      Array.iteri
        (fun i r ->
          match (i, r) with
          | (7 | 13), Error (Failure m) ->
            Alcotest.(check string) "failure slot" (string_of_int i) m
          | (7 | 13), _ -> Alcotest.fail "expected captured exception"
          | _, Ok v -> Alcotest.(check int) "ok slot" i v
          | _, Error _ -> Alcotest.fail "unexpected failure slot")
        results)

let test_pool_concurrent_submitters () =
  (* One shared pool, several domains submitting batches at once — the
     server's composition shape ([serve --engine-domains]). *)
  let pool = Task_pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Task_pool.stop pool)
    (fun () ->
      let submit seed () =
        let tasks = Array.init 50 (fun i () -> seed + i) in
        Task_pool.run_all pool tasks
      in
      let d1 = Domain.spawn (submit 1_000) in
      let d2 = Domain.spawn (submit 2_000) in
      let local = submit 3_000 () in
      let check seed results =
        Array.iteri
          (fun i r ->
            match r with
            | Ok v -> Alcotest.(check int) "value" (seed + i) v
            | Error _ -> Alcotest.fail "submitter batch failed")
          results
      in
      check 1_000 (Domain.join d1);
      check 2_000 (Domain.join d2);
      check 3_000 local)

let test_pool_stop_idempotent () =
  let pool = Task_pool.create ~domains:2 () in
  Alcotest.(check bool) "running" false (Task_pool.stopped pool);
  Task_pool.stop pool;
  Task_pool.stop pool;
  Alcotest.(check bool) "stopped" true (Task_pool.stopped pool);
  (* A stopped pool still runs batches — sequentially, on the caller. *)
  let results = Task_pool.run_all pool (Array.init 5 (fun i () -> i + 1)) in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "sequential fallback" (i + 1) v
      | Error _ -> Alcotest.fail "sequential fallback failed")
    results

(* --- byte-identity across domain counts ----------------------------------- *)

(* Everything observable about a finished chase: every predicate's facts
   in insertion order, rendered losslessly. Two runs are considered
   byte-identical iff these strings are equal. *)
let dump_database = Fact_dump.database

(* The deterministic slice of the profiler: every integer counter, per
   rule in registration order (times are wall-clock and excluded). *)
let dump_profile engine =
  let open V.Profile in
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%s s%d evals=%d scanned=%d matched=%d bindings=%d \
                         derived=%d dup=%d nulls=%d groups=%d"
           r.r_label r.r_stratum r.r_evals r.r_scanned r.r_matched
           r.r_bindings r.r_derived r.r_duplicates r.r_nulls r.r_groups)
       (rules (V.Engine.profile engine)))

(* [Pooled_engine] everywhere in this file: engines must exercise the
   parallel machinery at the requested domain count even on hosts (CI
   containers, pinned cgroups) with fewer cores — the domain cap would
   silently turn these into sequential runs. *)
let run_program ?domains source =
  Pooled_engine.with_engine ?domains (V.Parser.parse source) (fun engine ->
      V.Engine.run engine;
      (dump_database (V.Engine.database engine), dump_profile engine))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Tests run from [_build/default/test]; walk up to the workspace root
   to find the checked-in example programs. *)
let example_programs () =
  let rec find base depth =
    let candidate = Filename.concat base "examples/programs" in
    if Sys.file_exists candidate && Sys.is_directory candidate then candidate
    else if depth = 0 then Alcotest.fail "examples/programs not found"
    else find (Filename.concat base Filename.parent_dir_name) (depth - 1)
  in
  let dir = find (Sys.getcwd ()) 6 in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".vada")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

(* A synthetic workload big enough to actually exercise the parallel
   path: 600 edge facts put the first iteration's estimated join work
   above the engine's sequential-fallback threshold, so a multi-domain
   engine runs real chunked batches (verified below via the
   [engine.chunk] hit counter). *)
let synthetic_tc =
  let buf = Buffer.create 8192 in
  for c = 0 to 5 do
    for i = 0 to 99 do
      Buffer.add_string buf
        (Printf.sprintf "edge(%d, %d).\n" ((c * 1000) + i) ((c * 1000) + i + 1))
    done
  done;
  Buffer.add_string buf "path(X, Y) :- edge(X, Y).\n";
  Buffer.add_string buf "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  Buffer.add_string buf "@output(\"path\").\n";
  Buffer.contents buf

let synthetic_band =
  let buf = Buffer.create 8192 in
  for i = 0 to 599 do
    Buffer.add_string buf (Printf.sprintf "item(%d, %d).\n" i (i mod 97))
  done;
  Buffer.add_string buf
    "near(X, Y) :- item(X, A), item(Y, B), X < Y, A <= B + 1, B <= A + 1.\n";
  Buffer.add_string buf "@output(\"near\").\n";
  Buffer.contents buf

(* A deliberately skewed workload: one predicate whose self-join
   dominates the batch next to many tiny predicates whose rules ride in
   the same snapshot-safe batch. Adaptive chunking must cut the huge
   job fine and the tiny jobs coarse (or not at all) without disturbing
   replay order. *)
let synthetic_skewed =
  let buf = Buffer.create 16384 in
  for i = 0 to 1199 do
    Buffer.add_string buf (Printf.sprintf "big(%d, %d).\n" i (i mod 37))
  done;
  for k = 0 to 9 do
    for j = 0 to 4 do
      Buffer.add_string buf (Printf.sprintf "tiny%d(%d).\n" k j)
    done
  done;
  Buffer.add_string buf "pair(X, Y) :- big(X, A), big(Y, A), X < Y.\n";
  for k = 0 to 9 do
    Buffer.add_string buf (Printf.sprintf "small%d(X) :- tiny%d(X).\n" k k)
  done;
  Buffer.add_string buf "@output(\"pair\").\n";
  Buffer.contents buf

(* Two rules deriving the same head predicate from disjoint inputs with
   identical payloads: every fact the second job emits is an in-batch
   duplicate of the first job's, and [out]/[out2] share argument keys
   so dedup shards see the same key under different predicates. This
   hammers the sharded phase-2 classification's (pred, key) handling
   and the cross-job duplicate accounting. *)
let synthetic_collisions =
  let buf = Buffer.create 16384 in
  for i = 0 to 399 do
    Buffer.add_string buf (Printf.sprintf "a(%d).\n" i);
    Buffer.add_string buf (Printf.sprintf "b(%d).\n" i)
  done;
  Buffer.add_string buf "out(X) :- a(X).\n";
  Buffer.add_string buf "out(X) :- b(X).\n";
  Buffer.add_string buf "out2(X) :- a(X).\n";
  Buffer.add_string buf "out2(X) :- b(X).\n";
  Buffer.add_string buf "@output(\"out\").\n@output(\"out2\").\n";
  Buffer.contents buf

(* The head shapes no other workload has: an existential (one null per
   distinct frontier value, so most bindings hit the Skolem memo across
   chunk boundaries) and a constant head argument. Both rules replay
   their captured bindings through the sequential emitter at merge
   time. 800 [acct] facts put the first iteration above the
   sequential-fallback threshold. *)
let synthetic_heads =
  let buf = Buffer.create 16384 in
  for i = 0 to 799 do
    Buffer.add_string buf (Printf.sprintf "acct(%d, %d).\n" i (i mod 53))
  done;
  Buffer.add_string buf "holder(B, H) :- acct(X, B).\n";
  Buffer.add_string buf "flag(X, \"high\", B) :- acct(X, B), B > 26.\n";
  Buffer.add_string buf "@output(\"holder\").\n@output(\"flag\").\n";
  Buffer.contents buf

let test_examples_byte_identical () =
  let programs = example_programs () in
  Alcotest.(check bool) "found example programs" true (programs <> []);
  List.iter
    (fun (name, source) ->
      let seq_db, seq_prof = run_program ~domains:1 source in
      List.iter
        (fun d ->
          let par_db, par_prof = run_program ~domains:d source in
          Alcotest.(check string)
            (Printf.sprintf "%s: database identical at %d domains" name d)
            seq_db par_db;
          Alcotest.(check string)
            (Printf.sprintf "%s: profile counters identical at %d domains" name
               d)
            seq_prof par_prof)
        [ 2; 4 ])
    programs

let test_synthetic_byte_identical () =
  List.iter
    (fun (name, source) ->
      let seq_db, seq_prof = run_program ~domains:1 source in
      List.iter
        (fun d ->
          let par_db, par_prof = run_program ~domains:d source in
          Alcotest.(check string)
            (Printf.sprintf "%s: database identical at %d domains" name d)
            seq_db par_db;
          Alcotest.(check string)
            (Printf.sprintf "%s: profile counters identical at %d domains" name
               d)
            seq_prof par_prof)
        [ 2; 4 ])
    [
      ("tc", synthetic_tc);
      ("band", synthetic_band);
      ("skewed", synthetic_skewed);
      ("collisions", synthetic_collisions);
      ("heads", synthetic_heads);
    ]

let test_collision_duplicates_accounted () =
  (* The collision workload's duplicate count must not depend on the
     domain count: every [b]-derived fact is a duplicate wherever the
     dedup verdict came from (frozen store, in-batch classification, or
     the merge's own probe). *)
  let stats_of domains =
    Pooled_engine.with_engine ~domains (V.Parser.parse synthetic_collisions)
      (fun engine ->
        V.Engine.run engine;
        V.Engine.stats engine)
  in
  let seq = stats_of 1 in
  Alcotest.(check bool)
    "workload actually produces duplicates" true
    (seq.V.Engine.duplicates_suppressed >= 800);
  List.iter
    (fun d ->
      let par = stats_of d in
      Alcotest.(check int)
        (Printf.sprintf "facts derived at %d domains" d)
        seq.V.Engine.facts_derived par.V.Engine.facts_derived;
      Alcotest.(check int)
        (Printf.sprintf "duplicates suppressed at %d domains" d)
        seq.V.Engine.duplicates_suppressed par.V.Engine.duplicates_suppressed)
    [ 2; 4 ]

let test_parallel_path_actually_runs () =
  (* Arm [engine.chunk] with a zero delay: harmless, but the hit counter
     proves multi-domain runs execute chunked parallel batches. *)
  Faultpoint.reset ();
  (match Faultpoint.arm_spec "engine.chunk:delay=0ms" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (E.to_string e));
  Fun.protect ~finally:Faultpoint.reset (fun () ->
      let programs = [ ("tc", synthetic_tc); ("heads", synthetic_heads) ] in
      List.iter (fun (_, source) -> ignore (run_program ~domains:1 source)) programs;
      Alcotest.(check int)
        "sequential run never chunks" 0
        (Faultpoint.hit_count "engine.chunk");
      List.iter
        (fun (name, source) ->
          let before = Faultpoint.hit_count "engine.chunk" in
          ignore (run_program ~domains:4 source);
          Alcotest.(check bool)
            (name ^ ": parallel run executes chunk tasks")
            true
            (Faultpoint.hit_count "engine.chunk" > before))
        programs)

let test_adaptive_gating_skips_tiny_workloads () =
  (* The cost model must refuse to parallelize work that cannot pay for
     the fork-join machinery: a 200-fact copy stays entirely on the
     calling domain even at [~domains:4], while the 600-item band joins
     cross the work threshold and chunk. *)
  let tiny_copy =
    let buf = Buffer.create 2048 in
    for i = 0 to 199 do
      Buffer.add_string buf (Printf.sprintf "item(%d, %d).\n" i (i mod 7))
    done;
    Buffer.add_string buf "copy(X, Y) :- item(X, Y).\n";
    Buffer.add_string buf "@output(\"copy\").\n";
    Buffer.contents buf
  in
  Faultpoint.reset ();
  (match Faultpoint.arm_spec "engine.chunk:delay=0ms" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (E.to_string e));
  Fun.protect ~finally:Faultpoint.reset (fun () ->
      ignore (run_program ~domains:4 tiny_copy);
      Alcotest.(check int)
        "tiny workload never chunks at 4 domains" 0
        (Faultpoint.hit_count "engine.chunk");
      ignore (run_program ~domains:4 synthetic_band);
      Alcotest.(check bool)
        "big workload still chunks" true
        (Faultpoint.hit_count "engine.chunk" > 0))

let test_domain_cap_respects_host () =
  (* [Engine.create] clamps [~domains] to the host's useful parallelism;
     an explicit pool is the caller's own choice and is never clamped. *)
  let program = V.Parser.parse synthetic_band in
  let capped = V.Engine.create ~domains:64 program in
  Fun.protect
    ~finally:(fun () -> V.Engine.shutdown capped)
    (fun () ->
      Alcotest.(check bool)
        "capped engine never exceeds recommended domains" true
        (V.Engine.parallelism capped <= Task_pool.recommended ()));
  let pool = Task_pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Task_pool.stop pool)
    (fun () ->
      let borrowed = V.Engine.create ~pool program in
      Fun.protect
        ~finally:(fun () -> V.Engine.shutdown borrowed)
        (fun () ->
          Alcotest.(check int) "explicit pool is never clamped" 4
            (V.Engine.parallelism borrowed)))

let test_budget_interrupt_mid_run_is_batch_prefix () =
  (* An interrupted parallel run may stop between batches, but it must
     never expose a torn batch: every predicate's fact list has to be a
     prefix of the same predicate's list in the completed sequential
     run, and the interrupt payload must agree with [stats]. *)
  let facts_keys db pred =
    V.Database.facts db pred |> List.map Fact_dump.args
  in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
    | _ :: _, [] -> false
  in
  let program = V.Parser.parse synthetic_tc in
  let full = V.Engine.create program in
  Fun.protect
    ~finally:(fun () -> V.Engine.shutdown full)
    (fun () ->
      V.Engine.run full;
      let full_db = V.Engine.database full in
      Pooled_engine.with_engine ~domains:4 program (fun interrupted ->
          let budget = Budget.create ~max_facts:800 () in
          (match V.Engine.run ~budget interrupted with
          | () -> Alcotest.fail "fact budget did not interrupt"
          | exception V.Engine.Interrupted i ->
            Alcotest.(check int)
              "interrupt payload consistent with stats"
              (V.Engine.stats interrupted).V.Engine.facts_derived
              i.V.Engine.facts_derived);
          let part_db = V.Engine.database interrupted in
          List.iter
            (fun pred ->
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s facts are a prefix of the sequential run's" pred)
                true
                (is_prefix (facts_keys part_db pred) (facts_keys full_db pred)))
            (V.Database.predicates part_db)))

let test_pool_reuse_across_engines () =
  (* The server shape: one borrowed pool, several engines, shutdown is a
     no-op on the borrowed pool. *)
  let pool = Task_pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Task_pool.stop pool)
    (fun () ->
      let run () =
        let program = V.Parser.parse synthetic_band in
        let engine = V.Engine.create ~pool program in
        Fun.protect
          ~finally:(fun () -> V.Engine.shutdown engine)
          (fun () ->
            V.Engine.run engine;
            dump_database (V.Engine.database engine))
      in
      let first = run () in
      let second = run () in
      Alcotest.(check string) "pool reusable across engines" first second;
      Alcotest.(check bool)
        "engine shutdown leaves borrowed pool running" false
        (Task_pool.stopped pool))

(* --- reasoned risk across domain counts ----------------------------------- *)

let test_risk_via_engine_identical () =
  let md = D.Ig_survey.figure1 () in
  let measure = S.Risk.K_anonymity { k = 2 } in
  let seq = S.Vadalog_bridge.risk_via_engine ~domains:1 measure md in
  List.iter
    (fun d ->
      (* An explicit pool is never clamped to host cores, so the
         bridge's engine runs the parallel path even on small hosts. *)
      let pool = Task_pool.create ~domains:d () in
      Fun.protect
        ~finally:(fun () -> Task_pool.stop pool)
        (fun () ->
          let par = S.Vadalog_bridge.risk_via_engine ~pool measure md in
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "risks identical at %d domains" d)
            seq par))
    [ 2; 4 ]

(* --- derivation trees across domain counts --------------------------------- *)

(* Every fact's derivation tree rendered as text, for every predicate
   in the finished database. Parallel evaluation merges worker
   derivations in sequential order, so the provenance store — and with
   it every tree [vadasa explain] prints — must be byte-identical
   however many domains evaluated the chase. The depth bound keeps the
   dump linear in the database size on recursive programs and also
   pins the [Unknown] cut to the same facts at every domain count. *)
let provenance_dump ?domains source =
  Pooled_engine.with_engine ?domains (V.Parser.parse source) (fun engine ->
      V.Engine.run engine;
      let db = V.Engine.database engine in
      let buf = Buffer.create 8192 in
      List.iter
        (fun pred ->
          V.Database.iter_pred db pred (fun args ->
              match V.Engine.explain ~max_depth:6 engine pred args with
              | Some tree ->
                Buffer.add_string buf (V.Provenance.to_string tree);
                Buffer.add_char buf '\n'
              | None -> Alcotest.failf "no provenance for a %s fact" pred))
        (V.Database.predicates db);
      Buffer.contents buf)

let test_provenance_byte_identical () =
  let programs =
    example_programs () @ [ ("tc", synthetic_tc); ("band", synthetic_band) ]
  in
  List.iter
    (fun (name, source) ->
      let seq = provenance_dump ~domains:1 source in
      List.iter
        (fun d ->
          let par = provenance_dump ~domains:d source in
          Alcotest.(check string)
            (Printf.sprintf "%s: derivation trees identical at %d domains"
               name d)
            seq par)
        [ 2; 4 ])
    programs

(* --- fault injection into the parallel path ------------------------------- *)

let test_chunk_fault_typed_error () =
  Faultpoint.reset ();
  (match Faultpoint.arm_spec "engine.chunk:fail@2" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (E.to_string e));
  Fun.protect ~finally:Faultpoint.reset (fun () ->
      Pooled_engine.with_engine ~domains:4 (V.Parser.parse synthetic_tc)
        (fun engine ->
          match V.Engine.run engine with
          | () -> Alcotest.fail "armed chunk fault did not fire"
          | exception E.Error err ->
            Alcotest.(check string) "typed code" "fault.engine.chunk"
              err.E.code))

let test_stratum_fault_typed_error () =
  Faultpoint.reset ();
  (match Faultpoint.arm_spec "engine.stratum:fail" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (E.to_string e));
  Fun.protect ~finally:Faultpoint.reset (fun () ->
      Pooled_engine.with_engine ~domains:4 (V.Parser.parse synthetic_tc)
        (fun engine ->
          match V.Engine.run engine with
          | () -> Alcotest.fail "armed stratum fault did not fire"
          | exception E.Error err ->
            Alcotest.(check string) "typed code" "fault.engine.stratum"
              err.E.code))

let test_budget_interrupt_parallel () =
  (* A zero-fact budget must interrupt a multi-domain chase with the
     same structured payload the sequential engine raises. *)
  Pooled_engine.with_engine ~domains:4 (V.Parser.parse synthetic_tc)
    (fun engine ->
      let budget = Budget.create ~max_facts:10 () in
      match V.Engine.run ~budget engine with
      | () -> Alcotest.fail "fact ceiling did not interrupt"
      | exception V.Engine.Interrupted i ->
        Alcotest.(check bool)
          "fact ceiling reason" true
          (i.V.Engine.reason = Budget.Fact_ceiling))

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create validates domains" `Quick
            test_pool_create_invalid;
          Alcotest.test_case "ordered results" `Quick test_pool_ordered_results;
          Alcotest.test_case "exception capture" `Quick
            test_pool_exception_capture;
          Alcotest.test_case "concurrent submitters" `Quick
            test_pool_concurrent_submitters;
          Alcotest.test_case "stop idempotent + sequential fallback" `Quick
            test_pool_stop_idempotent;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "example programs, domains 1/2/4" `Slow
            test_examples_byte_identical;
          Alcotest.test_case "synthetic workloads, domains 1/2/4" `Slow
            test_synthetic_byte_identical;
          Alcotest.test_case "cross-job duplicates accounted" `Quick
            test_collision_duplicates_accounted;
          Alcotest.test_case "parallel path actually chunks" `Quick
            test_parallel_path_actually_runs;
          Alcotest.test_case "adaptive gating skips tiny workloads" `Quick
            test_adaptive_gating_skips_tiny_workloads;
          Alcotest.test_case "domain cap respects the host" `Quick
            test_domain_cap_respects_host;
          Alcotest.test_case "shared pool across engines" `Quick
            test_pool_reuse_across_engines;
          Alcotest.test_case "reasoned risks, domains 1/2/4" `Slow
            test_risk_via_engine_identical;
          Alcotest.test_case "derivation trees, domains 1/2/4" `Slow
            test_provenance_byte_identical;
        ] );
      ( "faults",
        [
          Alcotest.test_case "chunk fault is typed" `Quick
            test_chunk_fault_typed_error;
          Alcotest.test_case "stratum fault is typed" `Quick
            test_stratum_fault_typed_error;
          Alcotest.test_case "budget interrupts parallel run" `Quick
            test_budget_interrupt_parallel;
          Alcotest.test_case "interrupted run is a batch prefix" `Quick
            test_budget_interrupt_mid_run_is_batch_prefix;
        ] );
    ]
