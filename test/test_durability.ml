(* Tests for the durability layer behind [serve --data-dir] and the
   async jobs API: the CRC-framed journal (group commit, torn-tail
   tolerance, fault rollback), the write-ahead persist store (snapshot
   + replay, commits aborted by journal faults leave no state), the
   crash-safe dataset registry (recovered risk reports byte-identical,
   4-domain concurrent appends lose nothing), the /v1/jobs surface
   (admission gates, retry, cancel, restart resume) and the retry
   policy's exact schedule. *)

module Srv = Vadasa_server
module Journal = Srv.Journal
module Persist = Srv.Persist
module Registry = Srv.Registry
module Jobs = Srv.Jobs
module Codec = Srv.Codec
module E = Vadasa_base.Error
module Json = Vadasa_base.Json
module F = Vadasa_resilience.Faultpoint
module Retry = Vadasa_resilience.Retry
module R = Vadasa_relational

open E2e

(* --- fixtures and small helpers ------------------------------------------- *)

let tmp_dir () =
  let base = Filename.temp_file "vadasa-durability" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size

let jstr json name =
  match Option.bind (Json.member name json) Json.to_string_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing string field %s" name

let jint json name =
  match Option.bind (Json.member name json) Json.to_int_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing int field %s" name

let jbool json name =
  match Option.bind (Json.member name json) Json.to_bool_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing bool field %s" name

(* --- the journal ----------------------------------------------------------- *)

let test_journal_roundtrip () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j" in
  let j = Journal.open_ ~path () in
  let big = String.make 5000 'x' in
  Alcotest.(check int) "seq 1" 1 (Journal.append j "alpha");
  Alcotest.(check int) "seq 2" 2 (Journal.append j "beta");
  Alcotest.(check int) "seq 3" 3 (Journal.append j big);
  Alcotest.(check int) "last_seq" 3 (Journal.last_seq j);
  Journal.close j;
  Journal.close j (* idempotent *);
  let scan = Journal.scan ~path in
  Alcotest.(check (list (pair int string)))
    "records"
    [ (1, "alpha"); (2, "beta"); (3, big) ]
    scan.Journal.records;
  Alcotest.(check int) "no torn tail" 0 scan.Journal.truncated_bytes;
  Alcotest.(check int) "next_seq" 4 scan.Journal.next_seq;
  (* reopening continues the sequence *)
  let j2 = Journal.open_ ~path () in
  Alcotest.(check int) "continues" 4 (Journal.append j2 "gamma");
  Journal.close j2;
  let scan = Journal.scan ~path in
  Alcotest.(check int) "4 records" 4 (List.length scan.Journal.records);
  (* a missing file is an empty journal, not an error *)
  let scan = Journal.scan ~path:(Filename.concat dir "absent") in
  Alcotest.(check int) "absent file" 0 (List.length scan.Journal.records);
  (* the frame checksum is the IEEE CRC-32 *)
  Alcotest.(check int) "crc of empty" 0 (Journal.crc32 "");
  Alcotest.(check bool)
    "crc discriminates" true
    (Journal.crc32 "alpha" <> Journal.crc32 "beta")

(* The torn-tail property: cut the journal file at EVERY byte boundary
   and the scan must yield exactly the records whose frames fit before
   the cut — a consistent prefix, never a crash, with the leftover
   counted as discarded. *)
let test_journal_torn_tail_every_byte () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j" in
  let payloads = [ "one"; "two"; String.make 40 'z' ] in
  let j = Journal.open_ ~path () in
  List.iter (fun p -> ignore (Journal.append j p)) payloads;
  Journal.close j;
  let raw = read_file path in
  let full = (Journal.scan ~path).Journal.records in
  Alcotest.(check int) "all three committed" 3 (List.length full);
  (* cumulative end offset of each frame: header (20 bytes) + payload *)
  let ends =
    List.rev
      (List.fold_left
         (fun acc p ->
           let prev = match acc with e :: _ -> e | [] -> 0 in
           (prev + 20 + String.length p) :: acc)
         [] payloads)
  in
  Alcotest.(check int) "frames cover the file" (String.length raw)
    (List.nth ends 2);
  let cut_path = Filename.concat dir "cut" in
  for cut = 0 to String.length raw do
    write_file cut_path (String.sub raw 0 cut);
    let scan = Journal.scan ~path:cut_path in
    let intact = List.length (List.filter (fun e -> e <= cut) ends) in
    let consumed = if intact = 0 then 0 else List.nth ends (intact - 1) in
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "prefix at cut %d" cut)
      (List.filteri (fun i _ -> i < intact) full)
      scan.Journal.records;
    Alcotest.(check int)
      (Printf.sprintf "discarded at cut %d" cut)
      (cut - consumed) scan.Journal.truncated_bytes
  done

let check_fault_code what expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected %s" what expected
  | exception E.Error e -> Alcotest.(check string) what expected e.E.code

(* A failed batch — injected write or fsync fault — rolls the file back
   to the pre-batch offset: the journal stays usable and the failed
   record leaves no bytes behind. *)
let test_journal_fault_rollback () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j" in
  F.reset ();
  Fun.protect ~finally:F.reset (fun () ->
      let j = Journal.open_ ~path () in
      ignore (Journal.append j "keep");
      let size0 = file_size path in
      (match F.arm "journal.write" F.Fail with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
      check_fault_code "write fault surfaces" "fault.journal.write" (fun () ->
          Journal.append j "lost");
      Alcotest.(check int) "write fault left no bytes" size0 (file_size path);
      F.reset ();
      (match F.arm "journal.fsync" F.Fail with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
      check_fault_code "fsync fault surfaces" "fault.journal.fsync" (fun () ->
          Journal.append j "lost2");
      Alcotest.(check int) "fsync fault left no bytes" size0 (file_size path);
      F.reset ();
      ignore (Journal.append j "second");
      Alcotest.(check bool)
        "failed batches counted" true
        (Metric_value.int (Journal.metrics j) "errors" >= 2);
      Journal.close j;
      let scan = Journal.scan ~path in
      Alcotest.(check (list string))
        "only the committed records" [ "keep"; "second" ]
        (List.map snd scan.Journal.records))

(* 4 domains hammer one journal: every append must come back committed
   exactly once, with distinct sequence numbers, and group commit means
   strictly fewer fsync batches than records when writers collide. *)
let test_journal_concurrent_appends () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j" in
  let j = Journal.open_ ~path () in
  let per_domain = 25 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.init per_domain (fun i ->
                Journal.append j (Printf.sprintf "d%d-%03d" d i))))
  in
  let seqs = List.concat_map Domain.join domains in
  let c = Metric_value.int (Journal.metrics j) in
  Journal.close j;
  Alcotest.(check int) "all committed" (4 * per_domain) (List.length seqs);
  Alcotest.(check int)
    "distinct seqs" (4 * per_domain)
    (List.length (List.sort_uniq compare seqs));
  Alcotest.(check int) "append counter" (4 * per_domain) (c "appends");
  Alcotest.(check bool) "batched" true (c "batches" <= c "appends");
  let scan = Journal.scan ~path in
  let expected =
    List.sort compare
      (List.concat_map
         (fun d ->
           List.init per_domain (fun i -> Printf.sprintf "d%d-%03d" d i))
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check (list string))
    "every record durable" expected
    (List.sort compare (List.map snd scan.Journal.records))

(* A torn tail is physically cut off the file at reopen, so records
   appended after a torn-tail restart land contiguously and survive the
   NEXT recovery too (appending after the corrupt bytes would strand
   them behind the CRC-scan stop). *)
let test_journal_torn_tail_truncated_on_reopen () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "j" in
  let j = Journal.open_ ~path () in
  ignore (Journal.append j "alpha");
  ignore (Journal.append j "beta");
  Journal.close j;
  let intact = file_size path in
  (* crash mid-write: part of a frame lands after the committed records *)
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc "VJL1\x99\x99torn";
  close_out oc;
  Alcotest.(check bool) "scan discards the tail" true
    ((Journal.scan ~path).Journal.truncated_bytes > 0);
  let j2 = Journal.open_ ~path () in
  Alcotest.(check int) "file physically truncated" intact (file_size path);
  Alcotest.(check int) "sequence continues" 3 (Journal.append j2 "gamma");
  Journal.close j2;
  let scan = Journal.scan ~path in
  Alcotest.(check (list string))
    "post-restart record readable by the next recovery"
    [ "alpha"; "beta"; "gamma" ]
    (List.map snd scan.Journal.records);
  Alcotest.(check int) "no leftover garbage" 0 scan.Journal.truncated_bytes

(* --- the persist store ----------------------------------------------------- *)

(* A toy durable subsystem shaped like the real ones: the public
   mutator journals ahead via [commit], [apply] replays by re-running
   the mutator (a no-op commit during replay), [dump]/[restore] carry
   the full state through snapshots. *)
let toy_store dir =
  let state = ref [] in
  let p = Persist.open_ ~snapshot_every:1000 ~dir () in
  let add n =
    Persist.commit p
      ~record:(Json.Obj [ ("kind", Json.Str "toy.add"); ("n", Json.Int n) ])
      (fun commit_now ->
        commit_now ();
        state := n :: !state)
  in
  Persist.register p ~section:"toy" ~prefix:"toy."
    ~dump:(fun buf ->
      Json.to_buffer buf (Json.List (List.rev_map (fun n -> Json.Int n) !state)))
    ~restore:(fun json ->
      state :=
        (match Option.bind (Json.to_list_opt json) (fun l -> Some l) with
        | Some l ->
          List.rev_map (fun v -> Option.value ~default:0 (Json.to_int_opt v)) l
        | None -> []))
    ~apply:(fun record ->
      match Option.bind (Json.member "n" record) Json.to_int_opt with
      | Some n -> add n
      | None -> ());
  (p, state, add)

let test_persist_commit_replay_snapshot () =
  let dir = tmp_dir () in
  F.reset ();
  Fun.protect ~finally:F.reset (fun () ->
      (* generation 1: three commits, then crash (no close, no snapshot) *)
      let _p1, s1, add1 = toy_store dir in
      add1 1;
      add1 2;
      add1 3;
      Alcotest.(check (list int)) "live state" [ 3; 2; 1 ] !s1;
      (* a journal fault aborts the commit with no state applied *)
      (match F.arm "journal.write" F.Fail with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
      check_fault_code "aborted commit" "fault.journal.write" (fun () -> add1 9);
      F.reset ();
      Alcotest.(check (list int)) "aborted commit left no state" [ 3; 2; 1 ] !s1;
      (* generation 2: replay the journal tail (no snapshot exists yet) *)
      let p2, s2, add2 = toy_store dir in
      Persist.recover p2;
      Alcotest.(check (list int)) "journal replay" [ 3; 2; 1 ] !s2;
      let r = Metric_value.int (Persist.metrics p2) in
      Alcotest.(check int) "replayed records" 3 (r "replayed_records");
      Alcotest.(check int) "none skipped" 0 (r "skipped_records");
      (* snapshot captures the records; the journal is truncated *)
      Persist.snapshot p2;
      Alcotest.(check int) "journal truncated" 0
        (file_size (Filename.concat dir "registry.journal"));
      add2 4;
      Persist.close p2;
      (* generation 3: snapshot restore + (empty) tail *)
      let p3, s3, _ = toy_store dir in
      Persist.recover p3;
      Alcotest.(check (list int)) "snapshot restore" [ 4; 3; 2; 1 ] !s3;
      Persist.close p3)

(* Sequence numbers must never restart below the snapshot's last_seq:
   commits made by a process that booted from a snapshot (so with an
   empty journal) would otherwise be numbered from 1 again, and the
   NEXT recovery's [seq > snapshot.last_seq] guard would silently drop
   them — acknowledged, fsynced records lost. *)
let test_persist_seq_continues_after_snapshot () =
  let dir = tmp_dir () in
  (* generation 1: three commits, captured by a snapshot (last_seq 3,
     journal truncated), clean close *)
  let p1, _, add1 = toy_store dir in
  add1 1;
  add1 2;
  add1 3;
  Persist.close p1;
  Alcotest.(check int) "journal empty after snapshot" 0
    (file_size (Filename.concat dir "registry.journal"));
  (* generation 2: boots from the snapshot, commits two more, crashes *)
  let p2, s2, add2 = toy_store dir in
  Persist.recover p2;
  Alcotest.(check (list int)) "snapshot restore" [ 3; 2; 1 ] !s2;
  add2 4;
  add2 5;
  Alcotest.(check bool) "sequences continue past the snapshot" true
    (Journal.last_seq (Persist.journal p2) > 3);
  (* crash: close the journal directly — no shutdown snapshot *)
  Journal.close (Persist.journal p2);
  (* generation 3: both post-snapshot commits must replay *)
  let p3, s3, _ = toy_store dir in
  Persist.recover p3;
  Alcotest.(check (list int))
    "post-snapshot commits recovered" [ 5; 4; 3; 2; 1 ] !s3;
  Alcotest.(check int) "both replayed" 2 (Metric_value.int (Persist.metrics p3) "replayed_records");
  Persist.close p3

(* --- the crash-safe registry ---------------------------------------------- *)

let default_measure () =
  match Codec.measure_of_options Codec.default_options with
  | Ok m -> m
  | Error e -> Alcotest.failf "measure: %s" (E.to_string e)

let put_base registry csv =
  let outcome =
    Registry.put registry ~id:"d"
      ~digest:(Digest.to_hex (Digest.string csv))
      ~bytes:(String.length csv) ~options:Codec.default_options
      ~measure:(default_measure ()) ~semantics:R.Null_semantics.Maybe_match
      ~compiled:None (md_of_csv csv)
  in
  outcome.Registry.entry

let risk_string entry =
  Codec.risk_report_string ~threshold:Codec.default_options.Codec.threshold
    (Registry.entry_md_snapshot entry)
    (Registry.entry_report entry)

(* Data dirs written before registration checked the semantics may
   journal an unknown one, which was scored as maybe-match: journal
   replay and snapshot restore read it the same way instead of failing
   recovery. *)
let test_registry_replays_unknown_semantics () =
  let csv = Lazy.force figure6_csv in
  let dir = tmp_dir () in
  let p1 = Persist.open_ ~snapshot_every:100000 ~dir () in
  let reg1 = Registry.create ~persist:p1 () in
  let e1 =
    (Registry.put reg1 ~id:"d" ~digest:"base" ~bytes:(String.length csv)
       ~options:{ Codec.default_options with Codec.semantics = "bogus" }
       ~measure:(default_measure ()) ~semantics:R.Null_semantics.Maybe_match
       ~compiled:None (md_of_csv csv))
      .Registry.entry
  in
  let risk1 = risk_string e1 in
  let recover () =
    let p = Persist.open_ ~dir () in
    let reg = Registry.create ~persist:p () in
    Persist.recover p;
    (p, Registry.get reg "d")
  in
  let check what (p, e) =
    Alcotest.(check bool) (what ^ ": maybe-match") true
      (Registry.entry_semantics e = R.Null_semantics.Maybe_match);
    Alcotest.(check string) (what ^ ": report byte-identical") risk1
      (risk_string e);
    p
  in
  (* crash: only the journal survives; a clean close then snapshots *)
  Persist.close (check "journal replay" (recover ()));
  Persist.close (check "snapshot restore" (recover ()))

(* put + two appends, crash (journal only), recover: the union CSV and
   the maintained risk report come back byte-identical — and again
   after a clean close writes a snapshot. *)
let test_registry_crash_recover_identical () =
  let csv = Lazy.force figure6_csv in
  let n = csv_rows csv in
  let base = csv_slice csv 0 (2 * n / 3) in
  let d1 = csv_slice csv (2 * n / 3) (5 * n / 6) in
  let d2 = csv_slice csv (5 * n / 6) n in
  let dir = tmp_dir () in
  let p1 = Persist.open_ ~snapshot_every:100000 ~dir () in
  let reg1 = Registry.create ~persist:p1 () in
  let e1 = put_base reg1 base in
  ignore (Registry.append reg1 e1 ~csv:d1);
  ignore (Registry.append reg1 e1 ~csv:d2);
  let csv1 = Registry.entry_csv e1 in
  let risk1 = risk_string e1 in
  Alcotest.(check int) "all rows live" n (csv_rows csv1);
  (* crash: p1 is dropped without close — only the journal survives *)
  let p2 = Persist.open_ ~dir () in
  let reg2 = Registry.create ~persist:p2 () in
  Persist.recover p2;
  let e2 = Registry.get reg2 "d" in
  Alcotest.(check string) "union CSV recovered byte-identical" csv1
    (Registry.entry_csv e2);
  Alcotest.(check string) "risk report recovered byte-identical" risk1
    (risk_string e2);
  (* a recovered registry keeps absorbing deltas incrementally *)
  ignore (Registry.append reg2 e2 ~csv:d1);
  Alcotest.(check int) "post-recovery append" (n + csv_rows d1)
    (csv_rows (Registry.entry_csv e2));
  (* clean close writes a snapshot; recovery then restores from it *)
  Persist.close p2;
  let p3 = Persist.open_ ~dir () in
  let reg3 = Registry.create ~persist:p3 () in
  Persist.recover p3;
  Alcotest.(check int) "snapshot carried everything" 0
    (Metric_value.int (Persist.metrics p3) "replayed_records");
  let e3 = Registry.get reg3 "d" in
  Alcotest.(check string) "snapshot restore byte-identical"
    (Registry.entry_csv e2) (Registry.entry_csv e3);
  Persist.close p3

(* 4 domains append disjoint deltas to one durable dataset: no delta
   may be lost, the maintained report must equal the from-scratch
   estimate a recovery performs, and the journal must replay to the
   exact same union. *)
let test_registry_concurrent_append_hammer () =
  let csv = Lazy.force figure6_csv in
  let n = csv_rows csv in
  let base_rows = n / 3 in
  let base = csv_slice csv 0 base_rows in
  let deltas =
    (* 8 disjoint slices covering rows [base_rows, n) *)
    let step = (n - base_rows + 7) / 8 in
    List.init 8 (fun i ->
        let lo = base_rows + (i * step) in
        let hi = min n (lo + step) in
        csv_slice csv lo hi)
    |> List.filter (fun d -> csv_rows d > 0)
  in
  let dir = tmp_dir () in
  let p1 = Persist.open_ ~snapshot_every:100000 ~dir () in
  let reg1 = Registry.create ~persist:p1 () in
  let entry = put_base reg1 base in
  let chunks =
    (* partition the deltas among 4 domains *)
    List.init 4 (fun d ->
        List.filteri (fun i _ -> i mod 4 = d) deltas)
  in
  let domains =
    List.map
      (fun mine ->
        Domain.spawn (fun () ->
            List.iter (fun csv -> ignore (Registry.append reg1 entry ~csv)) mine))
      chunks
  in
  List.iter Domain.join domains;
  let csv1 = Registry.entry_csv entry in
  Alcotest.(check int) "no delta lost" n (csv_rows csv1);
  (* recovery rebuilds the scorer from scratch over the union — equal
     bytes means the concurrent incremental maintenance was exact *)
  let p2 = Persist.open_ ~dir () in
  let reg2 = Registry.create ~persist:p2 () in
  Persist.recover p2;
  let e2 = Registry.get reg2 "d" in
  Alcotest.(check string) "union replayed byte-identical" csv1
    (Registry.entry_csv e2);
  Alcotest.(check string) "incremental report equals from-scratch"
    (risk_string entry) (risk_string e2);
  Persist.close p2

(* --- the kept CSV text and the streamed snapshot ------------------------- *)

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Rows of a small dataset whose region and notes fields often need
   CSV quoting (commas, doubled quotes, empty strings). *)
let quoting_header = "id,region,age,notes,weight"

let quoting_notes = [| "plain"; "a, b"; {|say "hi"|}; ""; {|"quoted", twice|} |]

let quoting_csv rows =
  let row i =
    R.Csv.render_line
      [
        string_of_int i;
        (if i mod 3 = 0 then "south, east" else "north");
        string_of_int (20 + (i mod 4));
        quoting_notes.(i mod Array.length quoting_notes);
        string_of_int (1 + (i mod 3));
      ]
  in
  String.concat "\n" (quoting_header :: List.map row rows) ^ "\n"

let put_quoting registry ~id rows =
  let csv = quoting_csv rows in
  (Registry.put registry ~id ~digest:("digest-" ^ id)
     ~bytes:(String.length csv) ~options:Codec.default_options
     ~measure:(default_measure ()) ~semantics:R.Null_semantics.Maybe_match
     ~compiled:None (md_of_csv csv))
    .Registry.entry

let rendered entry =
  R.Csv.write_string
    (Vadasa_sdc.Microdata.relation (Registry.entry_md_snapshot entry))

type kept_op =
  | Put of int
  | Append of int * int  (* dataset, rows *)
  | Snapshot
  | Restart  (* clean close (final snapshot), reopen, restore *)
  | Crash  (* journal closed without a snapshot, reopen, replay *)

let kept_op_to_string = function
  | Put d -> Printf.sprintf "put d%d" d
  | Append (d, n) -> Printf.sprintf "append %d to d%d" n d
  | Snapshot -> "snapshot"
  | Restart -> "restart"
  | Crash -> "crash"

(* Whatever the mix of puts, appends, snapshots, snapshot restores and
   journal-only replays, every entry's kept text is the render of its
   relation, and a recovery brings back the exact text it had. *)
let prop_kept_csv_matches_render =
  let open QCheck2.Gen in
  let dataset = int_bound 2 in
  let op =
    frequency
      [
        (2, map (fun d -> Put d) dataset);
        (6, map2 (fun d n -> Append (d, n)) dataset (int_range 1 3));
        (1, pure Snapshot);
        (1, pure Restart);
        (1, pure Crash);
      ]
  in
  QCheck2.Test.make ~name:"kept CSV text = render of the relation" ~count:25
    ~print:QCheck2.Print.(list kept_op_to_string)
    (list_size (int_range 1 14) op)
    (fun ops ->
      let dir = tmp_dir () in
      let open_store () =
        let p = Persist.open_ ~snapshot_every:5 ~dir () in
        let reg = Registry.create ~persist:p () in
        Persist.recover p;
        (p, reg)
      in
      let store = ref (open_store ()) in
      let next_row = ref 0 in
      let rows n =
        let lo = !next_row in
        next_row := lo + n;
        List.init n (fun i -> lo + i)
      in
      let texts () =
        let reg = snd !store in
        List.map
          (fun id -> (id, Registry.entry_csv (Registry.get reg id)))
          (Registry.ids reg)
      in
      let reopen close =
        let before = texts () in
        close (fst !store);
        store := open_store ();
        if texts () <> before then QCheck2.Test.fail_report "recovered text differs"
      in
      Fun.protect
        ~finally:(fun () ->
          Persist.close (fst !store);
          rm_rf dir)
        (fun () ->
          List.for_all
            (fun op ->
              let p, reg = !store in
              let id d = "d" ^ string_of_int d in
              (match op with
              | Put d ->
                if Registry.find reg (id d) = None then
                  ignore (put_quoting reg ~id:(id d) (rows 3))
              | Append (d, n) -> (
                match Registry.find reg (id d) with
                | Some e -> ignore (Registry.append reg e ~csv:(quoting_csv (rows n)))
                | None -> ())
              | Snapshot -> Persist.snapshot p
              | Restart -> reopen Persist.close
              | Crash -> reopen (fun p -> Journal.close (Persist.journal p)));
              let reg = snd !store in
              List.for_all
                (fun id ->
                  let e = Registry.get reg id in
                  Registry.entry_csv e = rendered e)
                (Registry.ids reg))
            ops))

(* The snapshot document as the registrants built it before it was
   streamed: a [Json.t] tree per section, encoded with [Json.to_string].
   [ids] lists the datasets oldest-used first, [job_options] the
   options every job was submitted with. *)
let tree_snapshot ~last_seq ~registry ~ids ~jobs ~job_options =
  let m = Metric_value.int (Registry.metrics registry) in
  let entry_tree id =
    let e = Registry.get registry id in
    let meta = Registry.entry_json e in
    let field key = Option.get (Json.member key meta) in
    Json.Obj
      [
        ("id", Json.Str id);
        ("digest", Json.Str ("digest-" ^ id));
        ("bytes", field "bytes");
        ("appends", field "appends");
        ("chase_incremental", field "chase_incremental");
        ("chase_rebuilds", field "chase_rebuilds");
        ("created_at", field "created_at");
        ("updated_at", field "updated_at");
        ("csv", Json.Str (rendered e));
        ("options", Codec.options_to_json (Registry.entry_options e));
      ]
  in
  let job_tree job =
    let meta = Jobs.job_json job in
    let field key = Option.get (Json.member key meta) in
    Json.Obj
      ([
         ("job", field "id");
         ("tenant", field "tenant");
         ("op", field "op");
         ("dataset", field "dataset");
         ("options", Codec.options_to_json job_options);
         ("submitted_at", field "submitted_at");
         ("state", field "state");
         ("attempts", field "attempts");
         ("replayed", field "replayed");
       ]
      @ (match Json.member "result" meta with
        | Some result -> [ ("result", result) ]
        | None -> [])
      @
      match Json.member "error" meta with
      | Some e ->
        let member key = Option.get (Json.member key e) in
        [ ("code", member "code"); ("message", member "message") ]
      | None -> [])
  in
  let listed = Jobs.list jobs in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("last_seq", Json.Int last_seq);
      ( "sections",
        Json.Obj
          [
            ( "datasets",
              Json.Obj
                [
                  ("lifetime_appends", Json.Int (m "appends"));
                  ("lifetime_rebuilds", Json.Int (m "chase_rebuilds"));
                  ("evictions", Json.Int (m "evictions"));
                  ("entries", Json.List (List.map entry_tree ids));
                ] );
            ( "jobs",
              Json.Obj
                [
                  ("next_id", Json.Int (List.length listed + 1));
                  ("jobs", Json.List (List.map job_tree listed));
                ] );
          ] );
    ]

(* Several datasets (quoted fields included) and a finished risk job,
   whose result body is JSON that must be escaped inside the document. *)
let test_snapshot_bytes_match_tree () =
  let dir = tmp_dir () in
  let p = Persist.open_ ~snapshot_every:100000 ~dir () in
  let registry = Registry.create ~persist:p () in
  let jobs = Jobs.create ~domains:1 ~persist:p registry in
  Jobs.register jobs;
  Persist.recover p;
  Fun.protect
    ~finally:(fun () ->
      Jobs.stop jobs;
      Persist.close p;
      rm_rf dir)
    (fun () ->
      let a = put_quoting registry ~id:"a" (List.init 6 Fun.id) in
      let b = put_quoting registry ~id:"b" (List.init 5 (fun i -> 10 + i)) in
      ignore (put_quoting registry ~id:"c" (List.init 4 (fun i -> 20 + i)));
      ignore (Registry.append registry a ~csv:(quoting_csv [ 30; 31 ]));
      ignore (Registry.append registry b ~csv:(quoting_csv [ 32 ]));
      ignore (Registry.append registry b ~csv:(quoting_csv [ 33; 34; 35 ]));
      let job =
        Jobs.submit jobs ~tenant:"t" ~dataset:"b" ~op:"risk"
          ~options:Codec.default_options
      in
      let rec settle n =
        let state = jstr (Jobs.job_json job) "state" in
        if state = "done" then ()
        else if n = 0 then Alcotest.failf "job still %s" state
        else (
          Unix.sleepf 0.02;
          settle (n - 1))
      in
      settle 500;
      let result = jstr (Jobs.job_json job) "result" in
      Alcotest.(check bool) "result body needs escaping" true
        (String.contains result '"');
      (* fix the LRU order the dump writes: c, a, b *)
      List.iter (fun id -> ignore (Registry.get registry id)) [ "c"; "a"; "b" ];
      let last_seq = Journal.last_seq (Persist.journal p) in
      Persist.snapshot p;
      let expected =
        Json.to_string
          (tree_snapshot ~last_seq ~registry ~ids:[ "c"; "a"; "b" ] ~jobs
             ~job_options:Codec.default_options)
      in
      Alcotest.(check string) "streamed snapshot = tree encoding" expected
        (read_file (Filename.concat dir "registry.snapshot")))

(* A snapshot copies the kept text: it renders no CSV, so the
   [csv.write.rows] counter stands still, and it is traced as one
   [persist.snapshot] span. *)
let test_snapshot_renders_no_csv () =
  let module T = Vadasa_telemetry.Telemetry in
  let was = T.enabled () in
  T.set_enabled true;
  let dir = tmp_dir () in
  let p = Persist.open_ ~snapshot_every:100000 ~dir () in
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled was;
      Persist.close p;
      rm_rf dir)
    (fun () ->
      let registry = Registry.create ~persist:p () in
      let rows () = T.Counter.value (T.Counter.v "csv.write.rows") in
      let at_start = rows () in
      let e = put_quoting registry ~id:"a" (List.init 8 Fun.id) in
      ignore (put_quoting registry ~id:"b" (List.init 8 (fun i -> 10 + i)));
      ignore (Registry.append registry e ~csv:(quoting_csv [ 20; 21 ]));
      Alcotest.(check int) "each PUT renders its rows" 16 (rows () - at_start);
      let before = rows () in
      let (), spans = T.with_local_trace (fun () -> Persist.snapshot p) in
      Alcotest.(check int) "snapshot renders no rows" before (rows ());
      Alcotest.(check (list string)) "traced as persist.snapshot"
        [ "persist.snapshot" ]
        (List.map (fun s -> s.T.Span.sp_path) spans))

(* --- the /v1/jobs surface over HTTP ---------------------------------------- *)

let start_server ?persist ?job_domains () =
  let handlers = Srv.Handlers.create ?persist ?job_domains () in
  let server = Srv.Server.create ~config handlers in
  Srv.Server.start server;
  (handlers, server, Srv.Server.port server)

let put_dataset ~port ~id csv =
  let status, _ =
    http_call ~port ~meth:"PUT" ~target:("/v1/datasets/" ^ id) ~body:csv ()
  in
  Alcotest.(check int) ("PUT " ^ id) 201 status

let submit_job ?(headers = []) ~port ~dataset ~op () =
  http_call ~port ~meth:"POST" ~target:"/v1/jobs" ~headers
    ~body:(Printf.sprintf "{\"dataset\": %S, \"op\": %S}" dataset op)
    ()

(* poll GET /v1/jobs/{id} until it reaches a terminal state *)
let wait_job ~port id =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let status, body =
      http_call ~port ~meth:"GET" ~target:("/v1/jobs/" ^ id) ()
    in
    Alcotest.(check int) ("GET " ^ id) 200 status;
    let json = json_of body in
    match jstr json "state" with
    | "queued" | "running" when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      go ()
    | "queued" | "running" -> Alcotest.failf "%s never settled" id
    | _ -> json
  in
  go ()

let test_jobs_e2e_http () =
  let csv = Lazy.force figure6_csv in
  with_server (fun _server port ->
      put_dataset ~port ~id:"fig6" csv;
      let status, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
      Alcotest.(check int) "202 accepted" 202 status;
      let id = jstr (json_of body) "id" in
      let json = wait_job ~port id in
      Alcotest.(check string) "done" "done" (jstr json "state");
      Alcotest.(check int) "one attempt" 1 (jint json "attempts");
      (* the job's result is the exact GET /v1/datasets/{id}/risk body *)
      let status, risk =
        http_call ~port ~meth:"GET" ~target:"/v1/datasets/fig6/risk" ()
      in
      Alcotest.(check int) "risk 200" 200 status;
      Alcotest.(check string) "result byte-identical to the risk route" risk
        (jstr json "result");
      (* anonymize jobs settle too *)
      let status, body = submit_job ~port ~dataset:"fig6" ~op:"anonymize" () in
      Alcotest.(check int) "anonymize accepted" 202 status;
      let json = wait_job ~port (jstr (json_of body) "id") in
      Alcotest.(check string) "anonymize done" "done" (jstr json "state");
      (* the listing shows both, submission order *)
      let status, body = http_call ~port ~meth:"GET" ~target:"/v1/jobs" () in
      Alcotest.(check int) "list 200" 200 status;
      Alcotest.(check bool) "listing mentions the job" true
        (Astring_contains.contains body id);
      (* typed errors: bad op, unknown job, unknown dataset *)
      let status, body = submit_job ~port ~dataset:"fig6" ~op:"nope" () in
      Alcotest.(check int) "bad op 400" 400 status;
      Alcotest.(check (option string)) "bad op code" (Some "job.bad_op")
        (error_code body);
      let status, body =
        http_call ~port ~meth:"GET" ~target:"/v1/jobs/job-999999" ()
      in
      Alcotest.(check int) "unknown job 404" 404 status;
      Alcotest.(check (option string)) "unknown job code" (Some "job.not_found")
        (error_code body);
      let status, body = submit_job ~port ~dataset:"ghost" ~op:"risk" () in
      Alcotest.(check int) "unknown dataset 404" 404 status;
      Alcotest.(check (option string))
        "unknown dataset code" (Some "dataset.not_found") (error_code body))

(* a job whose first step faults (injected job.step) re-executes under
   the retry policy; a queued job cancels immediately with its worker
   slot released *)
let test_jobs_retry_and_cancel () =
  let csv = Lazy.force figure6_csv in
  F.reset ();
  Fun.protect ~finally:F.reset (fun () ->
      with_server ~handlers:(Srv.Handlers.create ~job_domains:1 ())
        (fun _server port ->
          put_dataset ~port ~id:"fig6" csv;
          (* first step attempt faults; the retry succeeds *)
          (match F.arm ~at:1 "job.step" F.Fail with
          | Ok () -> ()
          | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
          let status, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
          Alcotest.(check int) "accepted" 202 status;
          let json = wait_job ~port (jstr (json_of body) "id") in
          Alcotest.(check string) "retried to done" "done" (jstr json "state");
          Alcotest.(check int) "two attempts" 2 (jint json "attempts");
          F.reset ();
          (* hold the single worker busy, cancel the job queued behind it *)
          (match F.arm ~at:1 "job.step" (F.Delay 1.0) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
          let _, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
          let slow = jstr (json_of body) "id" in
          let _, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
          let queued = jstr (json_of body) "id" in
          let status, body =
            http_call ~port ~meth:"DELETE" ~target:("/v1/jobs/" ^ queued) ()
          in
          Alcotest.(check int) "cancel 200" 200 status;
          let json = json_of body in
          Alcotest.(check string) "cancelled" "cancelled" (jstr json "state");
          (match Json.member "error" json with
          | Some e ->
            Alcotest.(check string) "job.cancelled" "job.cancelled"
              (jstr e "code")
          | None -> Alcotest.fail "cancelled job carries its error");
          (* cancel is idempotent *)
          let status, _ =
            http_call ~port ~meth:"DELETE" ~target:("/v1/jobs/" ^ queued) ()
          in
          Alcotest.(check int) "cancel again 200" 200 status;
          let json = wait_job ~port slow in
          Alcotest.(check string) "the slow one still finishes" "done"
            (jstr json "state")))

(* the admission gates answer typed 429s with a Retry-After header *)
let test_jobs_admission_gates () =
  let csv = Lazy.force figure6_csv in
  F.reset ();
  Fun.protect ~finally:F.reset (fun () ->
      (* rate: a one-token bucket that refills absurdly slowly *)
      with_server
        ~handlers:(Srv.Handlers.create ~tenant_rate:0.0001 ~tenant_burst:1.0 ())
        (fun _server port ->
          put_dataset ~port ~id:"fig6" csv;
          let status, _ = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
          Alcotest.(check int) "first admitted" 202 status;
          let { Http.status; resp_headers; resp_body = body } =
            http_call_full ~port ~meth:"POST" ~target:"/v1/jobs"
              ~body:"{\"dataset\": \"fig6\", \"op\": \"risk\"}" ()
          in
          Alcotest.(check int) "rate limited" 429 status;
          Alcotest.(check (option string)) "typed code"
            (Some "tenant.rate_limited") (error_code body);
          Alcotest.(check bool) "Retry-After advertised" true
            (List.mem_assoc "retry-after" resp_headers);
          (* another tenant has its own bucket *)
          let status, _ =
            submit_job
              ~headers:[ ("x-vadasa-tenant", "other") ]
              ~port ~dataset:"fig6" ~op:"risk" ()
          in
          Alcotest.(check int) "tenants are isolated" 202 status);
      (* quota: one active job per tenant *)
      with_server
        ~handlers:(Srv.Handlers.create ~job_domains:1 ~tenant_quota:1 ())
        (fun _server port ->
          put_dataset ~port ~id:"fig6" csv;
          (match F.arm ~at:1 "job.step" (F.Delay 1.0) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
          let status, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
          Alcotest.(check int) "first admitted" 202 status;
          let slow = jstr (json_of body) "id" in
          let status, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
          Alcotest.(check int) "quota exceeded" 429 status;
          Alcotest.(check (option string)) "typed code"
            (Some "tenant.quota_exceeded") (error_code body);
          ignore (wait_job ~port slow)))

(* Terminal jobs are pruned past the per-tenant retention cap, oldest
   first, so the table — and with it GET /v1/jobs and every snapshot
   dump — stays bounded over the server's lifetime. *)
let test_jobs_terminal_retention () =
  let csv = Lazy.force figure6_csv in
  let registry = Registry.create () in
  ignore (put_base registry (csv_slice csv 0 20));
  let jobs = Jobs.create ~domains:1 ~retain:2 registry in
  Fun.protect
    ~finally:(fun () -> Jobs.stop jobs)
    (fun () ->
      let ids =
        List.init 5 (fun _ ->
            Jobs.job_id
              (Jobs.submit jobs ~tenant:"t" ~dataset:"d" ~op:"risk"
                 ~options:Codec.default_options))
      in
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec settle () =
        let c = Metric_value.int (Jobs.metrics jobs) in
        if c "completed" + c "failed" + c "cancelled" < 5 then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "jobs never settled"
          else begin
            Unix.sleepf 0.02;
            settle ()
          end
      in
      settle ();
      let kept = List.map Jobs.job_id (Jobs.list jobs) in
      Alcotest.(check int) "only [retain] jobs kept" 2 (List.length kept);
      Alcotest.(check (list string))
        "the newest survive"
        (List.filteri (fun i _ -> i >= 3) ids)
        kept;
      Alcotest.(check int) "prunes counted" 3 (Metric_value.int (Jobs.metrics jobs) "pruned"))

(* Minting fresh tenant names must not launder an existing tenant's
   rate-limit debt: once the bucket table trips its bound, only buckets
   already refilled to full burst are forgotten. *)
let test_jobs_rate_limit_survives_tenant_churn () =
  let csv = Lazy.force figure6_csv in
  let registry = Registry.create () in
  ignore (put_base registry (csv_slice csv 0 20));
  let jobs =
    Jobs.create ~domains:1 ~queue:2048 ~rate:0.0001 ~burst:1.0 registry
  in
  Fun.protect
    ~finally:(fun () -> Jobs.stop jobs)
    (fun () ->
      let submit tenant =
        Jobs.submit jobs ~tenant ~dataset:"d" ~op:"risk"
          ~options:Codec.default_options
      in
      ignore (submit "debtor");
      let limited tenant =
        match submit tenant with
        | _ -> false
        | exception E.Error e -> e.E.code = "tenant.rate_limited"
      in
      Alcotest.(check bool) "debtor is rate limited" true (limited "debtor");
      (* churn enough fresh tenants to trip the bucket-table bound *)
      for i = 1 to 1100 do
        ignore (submit (Printf.sprintf "guest-%04d" i))
      done;
      Alcotest.(check bool) "debt survives the churn" true (limited "debtor"))

(* restart: terminal jobs survive byte-identically, queued jobs re-run
   (marked replayed), mid-flight jobs fault as orphaned *)
let test_jobs_crash_resume () =
  let csv = Lazy.force figure6_csv in
  let dir = tmp_dir () in
  F.reset ();
  Fun.protect ~finally:F.reset (fun () ->
      let persist = Persist.open_ ~snapshot_every:100000 ~dir () in
      let handlers_a, server_a, port =
        start_server ~persist ~job_domains:1 ()
      in
      ignore handlers_a;
      put_dataset ~port ~id:"fig6" csv;
      let _, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
      let done_id = jstr (json_of body) "id" in
      let done_json = wait_job ~port done_id in
      Alcotest.(check string) "settled before crash" "done"
        (jstr done_json "state");
      let done_result = jstr done_json "result" in
      (* park one job mid-step on the single worker, queue one behind it *)
      (match F.arm ~at:1 "job.step" (F.Delay 30.0) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "arm: %s" (E.to_string e));
      let _, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
      let running_id = jstr (json_of body) "id" in
      let _, body = submit_job ~port ~dataset:"fig6" ~op:"risk" () in
      let queued_id = jstr (json_of body) "id" in
      Unix.sleepf 0.4 (* let the worker pick up and journal job.start *);
      (* crash: only the accept loop is torn down; the handlers (and
         the persist store, mid-flight worker included) are abandoned *)
      Srv.Server.shutdown server_a;
      F.reset ();
      (* restart over the same data dir *)
      let persist_b = Persist.open_ ~snapshot_every:100000 ~dir () in
      let handlers_b, server_b, port =
        start_server ~persist:persist_b ~job_domains:1 ()
      in
      Fun.protect
        ~finally:(fun () ->
          Srv.Server.shutdown server_b;
          Srv.Handlers.shutdown handlers_b)
        (fun () ->
          (* the finished job survived, result bytes included *)
          let status, body =
            http_call ~port ~meth:"GET" ~target:("/v1/jobs/" ^ done_id) ()
          in
          Alcotest.(check int) "terminal job survives" 200 status;
          let json = json_of body in
          Alcotest.(check string) "still done" "done" (jstr json "state");
          Alcotest.(check string) "result byte-identical across restart"
            done_result (jstr json "result");
          (* the mid-flight job faulted terminally *)
          let _, body =
            http_call ~port ~meth:"GET" ~target:("/v1/jobs/" ^ running_id) ()
          in
          let json = json_of body in
          Alcotest.(check string) "orphaned" "orphaned" (jstr json "state");
          (match Json.member "error" json with
          | Some e ->
            Alcotest.(check string) "job.orphaned" "job.orphaned"
              (jstr e "code")
          | None -> Alcotest.fail "orphaned job carries its error");
          (* the queued job re-ran, marked replayed, and its result
             matches the live route on the recovered registry *)
          let json = wait_job ~port queued_id in
          Alcotest.(check string) "replayed job settles" "done"
            (jstr json "state");
          Alcotest.(check bool) "marked replayed" true (jbool json "replayed");
          Alcotest.(check string) "replayed result matches the live route"
            done_result (jstr json "result");
          (* the dataset itself recovered byte-identically *)
          let _, risk =
            http_call ~port ~meth:"GET" ~target:"/v1/datasets/fig6/risk" ()
          in
          Alcotest.(check string) "registry recovered byte-identical"
            done_result risk;
          (* the durability counters are on the Prometheus surface *)
          let { Http.status; resp_body = prom; _ } =
            http_call_full ~port ~meth:"GET" ~target:"/metrics"
              ~headers:[ ("accept", "text/plain; version=0.0.4") ]
              ()
          in
          Alcotest.(check int) "prometheus 200" 200 status;
          List.iter
            (fun family ->
              Alcotest.(check bool) (family ^ " exposed") true
                (Astring_contains.contains prom family))
            [
              "vadasa_jobs_submitted_total";
              "vadasa_jobs_orphaned_total";
              "vadasa_jobs_replayed_total";
              "vadasa_journal_appends_total";
              "vadasa_journal_fsyncs_total";
            ]))

(* --- the retry policy ------------------------------------------------------ *)

let flat_policy =
  {
    Retry.max_attempts = 4;
    base_delay = 0.1;
    max_delay = 10.0;
    multiplier = 2.0;
    jitter = 0.0;
    budget = 100.0;
  }

let transient = E.make ~code:"net.flaky" E.Io "transient"

let test_retry_schedule () =
  (* the schedule is a pure function of (policy, attempt, draw) *)
  Alcotest.(check (float 1e-9)) "first retry" 0.1
    (Retry.delay flat_policy ~attempt:1 ~retry_after:None ~u:0.5);
  Alcotest.(check (float 1e-9)) "doubles" 0.2
    (Retry.delay flat_policy ~attempt:2 ~retry_after:None ~u:0.5);
  Alcotest.(check (float 1e-9)) "Retry-After replaces the schedule" 3.0
    (Retry.delay flat_policy ~attempt:1 ~retry_after:(Some 3.0) ~u:0.5);
  Alcotest.(check (float 1e-9)) "Retry-After still capped" 10.0
    (Retry.delay flat_policy ~attempt:1 ~retry_after:(Some 3600.0) ~u:0.5);
  let jittery = { flat_policy with Retry.jitter = 0.25 } in
  Alcotest.(check (float 1e-9)) "jitter widens" 0.125
    (Retry.delay jittery ~attempt:1 ~retry_after:None ~u:1.0);
  Alcotest.(check (float 1e-9)) "jitter narrows" 0.075
    (Retry.delay jittery ~attempt:1 ~retry_after:None ~u:0.0)

let test_retry_run () =
  let sleeps = ref [] in
  let sleep d = sleeps := d :: !sleeps in
  let rand () = 0.5 in
  (* two transient failures, then success: two exact backoff sleeps *)
  let calls = ref 0 in
  let v =
    Retry.run ~policy:flat_policy ~sleep ~rand
      ~should_retry:(fun ~attempt:_ _ -> Some None)
      (fun () ->
        incr calls;
        if !calls < 3 then raise (E.Error transient) else "ok")
  in
  Alcotest.(check string) "succeeds" "ok" v;
  Alcotest.(check (list (float 1e-9))) "exact schedule" [ 0.1; 0.2 ]
    (List.rev !sleeps);
  (* a server-directed Retry-After replaces the computed wait *)
  sleeps := [];
  calls := 0;
  ignore
    (Retry.run ~policy:flat_policy ~sleep ~rand
       ~should_retry:(fun ~attempt:_ _ -> Some (Some 0.7))
       (fun () ->
         incr calls;
         if !calls < 2 then raise (E.Error transient) else ()));
  Alcotest.(check (list (float 1e-9))) "honors Retry-After" [ 0.7 ]
    (List.rev !sleeps);
  (* non-retryable: exactly one call, the error unchanged *)
  calls := 0;
  (match
     Retry.run ~policy:flat_policy ~sleep ~rand
       ~should_retry:(fun ~attempt:_ _ -> None)
       (fun () ->
         incr calls;
         raise (E.Error transient))
   with
  | () -> Alcotest.fail "expected the error"
  | exception E.Error e ->
    Alcotest.(check string) "not retried" "net.flaky" e.E.code;
    Alcotest.(check (option string)) "no retry context" None
      (E.context_value e "retry_attempts"));
  Alcotest.(check int) "one call" 1 !calls

let test_retry_exhaustion () =
  let sleep _ = () in
  let rand () = 0.5 in
  (* attempts run out: the last error gains the retry context *)
  let calls = ref 0 in
  (match
     Retry.run
       ~policy:{ flat_policy with Retry.max_attempts = 3 }
       ~sleep ~rand
       ~should_retry:(fun ~attempt:_ _ -> Some None)
       (fun () ->
         incr calls;
         raise (E.Error transient))
   with
  | () -> Alcotest.fail "expected exhaustion"
  | exception E.Error e ->
    Alcotest.(check int) "three attempts" 3 !calls;
    Alcotest.(check (option string)) "attempts in context" (Some "3")
      (E.context_value e "retry_attempts");
    Alcotest.(check (option string)) "reason in context" (Some "max_attempts")
      (E.context_value e "retry_exhausted"));
  (* the sleep budget runs out before the attempts do *)
  let calls = ref 0 in
  match
    Retry.run
      ~policy:
        {
          flat_policy with
          Retry.max_attempts = 100;
          multiplier = 1.0;
          base_delay = 0.2;
          budget = 0.3;
        }
      ~sleep ~rand
      ~should_retry:(fun ~attempt:_ _ -> Some None)
      (fun () ->
        incr calls;
        raise (E.Error transient))
  with
  | () -> Alcotest.fail "expected exhaustion"
  | exception E.Error e ->
    Alcotest.(check int) "budget stops at two calls" 2 !calls;
    Alcotest.(check (option string)) "reason is budget" (Some "budget")
      (E.context_value e "retry_exhausted")

(* --- suite ----------------------------------------------------------------- *)

let () =
  Alcotest.run "durability"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail at every byte" `Quick
            test_journal_torn_tail_every_byte;
          Alcotest.test_case "fault rollback" `Quick
            test_journal_fault_rollback;
          Alcotest.test_case "4-domain group commit" `Quick
            test_journal_concurrent_appends;
          Alcotest.test_case "torn tail truncated on reopen" `Quick
            test_journal_torn_tail_truncated_on_reopen;
        ] );
      ( "persist",
        [
          Alcotest.test_case "commit / replay / snapshot" `Quick
            test_persist_commit_replay_snapshot;
          Alcotest.test_case "seq continues after snapshot" `Quick
            test_persist_seq_continues_after_snapshot;
        ] );
      ( "registry",
        [
          Alcotest.test_case "crash recover byte-identical" `Quick
            test_registry_crash_recover_identical;
          Alcotest.test_case "unknown semantics replays leniently" `Quick
            test_registry_replays_unknown_semantics;
          Alcotest.test_case "4-domain append hammer" `Quick
            test_registry_concurrent_append_hammer;
          Alcotest.test_case "snapshot bytes = tree encoding" `Quick
            test_snapshot_bytes_match_tree;
          Alcotest.test_case "snapshot renders no CSV" `Quick
            test_snapshot_renders_no_csv;
          QCheck_alcotest.to_alcotest prop_kept_csv_matches_render;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "e2e over HTTP" `Quick test_jobs_e2e_http;
          Alcotest.test_case "retry and cancel" `Quick
            test_jobs_retry_and_cancel;
          Alcotest.test_case "admission gates" `Quick
            test_jobs_admission_gates;
          Alcotest.test_case "terminal retention" `Quick
            test_jobs_terminal_retention;
          Alcotest.test_case "rate limit survives tenant churn" `Quick
            test_jobs_rate_limit_survives_tenant_churn;
          Alcotest.test_case "crash resume" `Quick test_jobs_crash_resume;
        ] );
      ( "retry",
        [
          Alcotest.test_case "schedule" `Quick test_retry_schedule;
          Alcotest.test_case "run" `Quick test_retry_run;
          Alcotest.test_case "exhaustion" `Quick test_retry_exhaustion;
        ] );
    ]
