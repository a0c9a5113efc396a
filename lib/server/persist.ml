(* The crash-safety layer under `vadasa serve --data-dir`: one journal
   plus one snapshot file shared by every durable subsystem (the
   dataset registry, the jobs table).

   Write path (write-ahead): a mutator calls [commit ~record f]; [f]
   receives a [commit_now] thunk it calls after its own validation and
   fault points, at the exact moment the mutation becomes inevitable —
   [commit_now] blocks until the record is durable (group-committed
   with whatever else is in flight), so an acknowledged mutation is
   always recoverable and a failed journal write aborts before any
   state changed.

   Snapshot path: every [snapshot_every] committed records the full
   state (each registrant's [dump]) is serialized to a temp file,
   fsynced, atomically renamed over the previous snapshot, and the
   journal is truncated. Crash windows are covered by sequence
   numbers: the snapshot stores the last sequence it contains, and
   replay skips journal records at or below it — a crash between
   rename and truncate replays nothing twice.

   The commit/snapshot race is settled by a readers-writer lock:
   commits (journal append + in-memory mutation, both inside [f]) hold
   it shared, a snapshot holds it exclusive — so a snapshot never
   observes a mutation whose record it doesn't own, and never misses
   one it claims. Lock order is persist-shared -> registry/entry
   mutexes; the snapshot's [dump] callbacks may take those mutexes
   because no commit holds them while waiting for the exclusive
   lock. *)

module E = Vadasa_base.Error
module Json = Vadasa_base.Json

type registrant = {
  section : string;  (* snapshot key *)
  prefix : string;  (* journal record "kind" prefix, e.g. "dataset." *)
  dump : unit -> Json.t;
  restore : Json.t -> unit;
  apply : Json.t -> unit;
}

type t = {
  dir : string;
  journal : Journal.t;
  snapshot_every : int;
  mutable registrants : registrant list;
  (* readers-writer lock for commit (shared) vs snapshot (exclusive) *)
  lk : Mutex.t;
  lk_cond : Condition.t;
  mutable readers : int;
  mutable writer : bool;
  mutable writer_waiting : int;
  (* accounting, guarded by [lk] *)
  mutable since_snapshot : int;
  mutable snapshots : int;
  mutable replaying : bool;
  mutable replayed_records : int;
  mutable skipped_records : int;
  mutable truncated_bytes : int;
  mutable snapshot_seq : int;  (* last_seq the boot snapshot covered *)
}

let journal_path dir = Filename.concat dir "registry.journal"

let snapshot_path dir = Filename.concat dir "registry.snapshot"

(* Best-effort read of the snapshot's last_seq, for seeding the
   journal's counter at open time: after a snapshot truncates the
   journal, the file alone says "start at 1", but seq <= last_seq is
   the replay skip rule — fresh records numbered below it would be
   silently dropped by the next recovery. Corrupt or missing snapshots
   answer 0 here and fail properly in [recover]. *)
let snapshot_last_seq dir =
  match open_in_bin (snapshot_path dir) with
  | exception Sys_error _ -> 0
  | ic -> (
    let raw =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string raw with
    | Error _ -> 0
    | Ok json -> (
      match Option.bind (Json.member "last_seq" json) Json.to_int_opt with
      | Some n -> n
      | None -> 0))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(snapshot_every = 64) ~dir () =
  if snapshot_every < 1 then
    invalid_arg "Persist.open_: snapshot_every must be >= 1";
  mkdir_p dir;
  {
    dir;
    journal =
      Journal.open_
        ~min_next_seq:(snapshot_last_seq dir + 1)
        ~path:(journal_path dir) ();
    snapshot_every;
    registrants = [];
    lk = Mutex.create ();
    lk_cond = Condition.create ();
    readers = 0;
    writer = false;
    writer_waiting = 0;
    since_snapshot = 0;
    snapshots = 0;
    replaying = false;
    replayed_records = 0;
    skipped_records = 0;
    truncated_bytes = 0;
    snapshot_seq = 0;
  }

let dir t = t.dir

let register t ~section ~prefix ~dump ~restore ~apply =
  t.registrants <-
    t.registrants @ [ { section; prefix; dump; restore; apply } ]

let replaying t = t.replaying

(* ---- readers-writer lock ------------------------------------------------- *)

let shared_acquire t =
  Mutex.lock t.lk;
  while t.writer || t.writer_waiting > 0 do
    Condition.wait t.lk_cond t.lk
  done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.lk

let shared_release t =
  Mutex.lock t.lk;
  t.readers <- t.readers - 1;
  if t.readers = 0 then Condition.broadcast t.lk_cond;
  Mutex.unlock t.lk

let exclusive_acquire t =
  Mutex.lock t.lk;
  t.writer_waiting <- t.writer_waiting + 1;
  while t.writer || t.readers > 0 do
    Condition.wait t.lk_cond t.lk
  done;
  t.writer_waiting <- t.writer_waiting - 1;
  t.writer <- true;
  Mutex.unlock t.lk

let exclusive_release t =
  Mutex.lock t.lk;
  t.writer <- false;
  Condition.broadcast t.lk_cond;
  Mutex.unlock t.lk

(* ---- snapshot ------------------------------------------------------------ *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* caller holds the exclusive lock *)
let write_snapshot t =
  let state =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("last_seq", Json.Int (Journal.last_seq t.journal));
        ( "sections",
          Json.Obj
            (List.map (fun r -> (r.section, r.dump ())) t.registrants) );
      ]
  in
  let tmp = snapshot_path t.dir ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let raw = Bytes.of_string (Json.to_string state) in
      let off = ref 0 in
      while !off < Bytes.length raw do
        off := !off + Unix.write fd raw !off (Bytes.length raw - !off)
      done;
      Unix.fsync fd);
  Unix.rename tmp (snapshot_path t.dir);
  fsync_dir t.dir;
  Journal.truncate t.journal;
  Mutex.lock t.lk;
  t.since_snapshot <- 0;
  t.snapshots <- t.snapshots + 1;
  Mutex.unlock t.lk

let snapshot t =
  exclusive_acquire t;
  Fun.protect
    ~finally:(fun () -> exclusive_release t)
    (fun () -> write_snapshot t)

let maybe_snapshot t =
  let due =
    Mutex.lock t.lk;
    let d = t.since_snapshot >= t.snapshot_every in
    Mutex.unlock t.lk;
    d
  in
  if due then
    (* Best-effort: a failed snapshot leaves the journal authoritative
       (it still holds every record), so durability is unaffected. *)
    try snapshot t with E.Error _ | Unix.Unix_error _ | Sys_error _ -> ()

(* ---- commit -------------------------------------------------------------- *)

let commit t ~record f =
  if t.replaying then f (fun () -> ())
  else begin
    shared_acquire t;
    let committed = ref false in
    let result =
      Fun.protect
        ~finally:(fun () -> shared_release t)
        (fun () ->
          f (fun () ->
              ignore (Journal.append t.journal (Json.to_string record));
              committed := true))
    in
    if !committed then begin
      Mutex.lock t.lk;
      t.since_snapshot <- t.since_snapshot + 1;
      Mutex.unlock t.lk;
      maybe_snapshot t
    end;
    result
  end

(* ---- boot-time recovery -------------------------------------------------- *)

let corrupt detail =
  E.Error
    (E.make ~code:"persist.corrupt_snapshot" E.Io
       ("cannot load snapshot: " ^ detail))

let recover t =
  let snap_last_seq =
    match open_in_bin (snapshot_path t.dir) with
    | exception Sys_error _ -> 0
    | ic ->
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let json =
        match Json.of_string raw with
        | Ok json -> json
        | Error msg -> raise (corrupt msg)
      in
      let last_seq =
        match Option.bind (Json.member "last_seq" json) Json.to_int_opt with
        | Some n -> n
        | None -> raise (corrupt "missing last_seq")
      in
      (match Json.member "sections" json with
      | Some (Json.Obj sections) ->
        List.iter
          (fun r ->
            match List.assoc_opt r.section sections with
            | Some section_json -> r.restore section_json
            | None -> ())
          t.registrants
      | _ -> ());
      last_seq
  in
  t.snapshot_seq <- snap_last_seq;
  let { Journal.records; truncated_bytes; _ } =
    Journal.scan ~path:(journal_path t.dir)
  in
  t.truncated_bytes <- truncated_bytes;
  t.replaying <- true;
  Fun.protect
    ~finally:(fun () -> t.replaying <- false)
    (fun () ->
      List.iter
        (fun (seq, payload) ->
          if seq > snap_last_seq then
            match Json.of_string payload with
            | Error _ -> t.skipped_records <- t.skipped_records + 1
            | Ok json -> (
              let kind =
                match Json.member "kind" json with
                | Some (Json.Str k) -> k
                | _ -> ""
              in
              match
                List.find_opt
                  (fun r -> String.starts_with ~prefix:r.prefix kind)
                  t.registrants
              with
              | None -> t.skipped_records <- t.skipped_records + 1
              | Some r -> (
                (* A record that fails to re-apply (e.g. it referenced
                   state a later record deleted in a way replay can't
                   reorder) is counted and skipped: replay always
                   terminates with a consistent prefix state. *)
                match r.apply json with
                | () -> t.replayed_records <- t.replayed_records + 1
                | exception E.Error _ ->
                  t.skipped_records <- t.skipped_records + 1)))
        records)

let close t =
  (try snapshot t with E.Error _ | Unix.Unix_error _ | Sys_error _ -> ());
  Journal.close t.journal

let journal t = t.journal

let metrics t =
  let module M = Vadasa_telemetry.Telemetry.Metric in
  let journal = M.nest "journal" (Journal.metrics t.journal) in
  Mutex.lock t.lk;
  let entries =
    (M.json "dir" (Json.Str t.dir) :: journal)
    @ [
        M.counter ~family:"vadasa_journal_snapshots_total"
          ~help:"Snapshots written (journal truncations)" "snapshots"
          t.snapshots;
        M.json "since_snapshot" (Json.Int t.since_snapshot);
        M.json "snapshot_every" (Json.Int t.snapshot_every);
        M.counter ~family:"vadasa_journal_replayed_records_total"
          ~help:"Journal records re-applied during boot recovery"
          "replayed_records" t.replayed_records;
        M.counter ~family:"vadasa_journal_skipped_records_total"
          ~help:
            "Journal records skipped during boot recovery (stale or undecodable)"
          "skipped_records" t.skipped_records;
        M.gauge ~family:"vadasa_journal_truncated_bytes"
          ~help:"Torn-tail bytes discarded by the boot-time CRC scan"
          "truncated_bytes" t.truncated_bytes;
      ]
  in
  Mutex.unlock t.lk;
  entries
