(* Append-only record journal with CRC-framed records and group commit.

   Frame layout (little-endian):

     magic "VJL1" (4) | seq (8) | len (4) | crc32(payload) (4) | payload

   Appenders enqueue payloads and block; a single writer domain drains
   everything pending into one [write] + one [fsync] (group commit), so
   N concurrent commits pay one durable round-trip between them. A
   batch that fails mid-flight — an injected ["journal.write"] /
   ["journal.fsync"] fault or a real I/O error — is rolled back with
   [ftruncate] to the pre-batch offset and every waiter in it gets the
   error: a failed append leaves no bytes behind, so commit-after-ack
   is exact. Torn tails from a crash mid-write are the reader's
   problem: [scan] stops at the first frame whose header, bounds or
   CRC doesn't check out and reports the discarded byte count. *)

module E = Vadasa_base.Error
module Json = Vadasa_base.Json
module Faultpoint = Vadasa_resilience.Faultpoint

let magic = "VJL1"

let header_bytes = 20

(* ---- CRC-32 (IEEE 802.3, reflected) ------------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* ---- framing ------------------------------------------------------------- *)

let frame ~seq payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int64_le b 4 (Int64.of_int seq);
  Bytes.set_int32_le b 12 (Int32.of_int len);
  Bytes.set_int32_le b 16 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b header_bytes len;
  b

type scan_result = {
  records : (int * string) list;  (* (seq, payload), file order *)
  truncated_bytes : int;  (* torn tail discarded by the CRC check *)
  next_seq : int;  (* 1 + the highest sequence number seen *)
}

let scan ~path =
  let raw =
    match open_in_bin path with
    | exception Sys_error _ -> ""
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
  in
  let total = String.length raw in
  let b = Bytes.unsafe_of_string raw in
  let rec go pos acc next_seq =
    if pos + header_bytes > total then (List.rev acc, total - pos, next_seq)
    else if not (String.equal (String.sub raw pos 4) magic) then
      (List.rev acc, total - pos, next_seq)
    else
      let seq = Int64.to_int (Bytes.get_int64_le b (pos + 4)) in
      let len = Int32.to_int (Bytes.get_int32_le b (pos + 12)) in
      let crc = Int32.to_int (Bytes.get_int32_le b (pos + 16)) land 0xFFFFFFFF in
      if len < 0 || pos + header_bytes + len > total then
        (List.rev acc, total - pos, next_seq)
      else
        let payload = String.sub raw (pos + header_bytes) len in
        if crc32 payload <> crc then (List.rev acc, total - pos, next_seq)
        else
          go
            (pos + header_bytes + len)
            ((seq, payload) :: acc)
            (max next_seq (seq + 1))
  in
  let records, truncated_bytes, next_seq = go 0 [] 1 in
  { records; truncated_bytes; next_seq }

(* ---- the append side ----------------------------------------------------- *)

type pending = {
  payload : string;
  mutable outcome : [ `Waiting | `Done of int | `Failed of exn ];
}

type t = {
  path : string;
  fd : Unix.file_descr;
  mu : Mutex.t;
  cond : Condition.t;  (* wakes both the writer and finished appenders *)
  queue : pending Queue.t;
  mutable next_seq : int;
  mutable stopping : bool;
  mutable writer : unit Domain.t option;
  (* counters, read under [mu] *)
  mutable appends : int;
  mutable bytes : int;
  mutable fsyncs : int;
  mutable batches : int;
  mutable errors : int;
}

let journal_error ~path fn err =
  E.Error
    (E.make ~code:"journal.io" E.Io
       (Printf.sprintf "%s: %s" fn (Unix.error_message err))
       ~context:[ ("journal", path) ])

(* One drained batch: frame everything, one write, one fsync. On any
   failure roll the file back to [start] so no half-durable record
   survives, then hand the error to every waiter. *)
let commit_batch t batch =
  let start = Unix.lseek t.fd 0 Unix.SEEK_END in
  let buf = Buffer.create 1024 in
  let seq0 = t.next_seq in
  List.iteri
    (fun i p -> Buffer.add_bytes buf (frame ~seq:(seq0 + i) p.payload))
    batch;
  match
    Faultpoint.hit "journal.write";
    let raw = Buffer.to_bytes buf in
    let off = ref 0 in
    while !off < Bytes.length raw do
      match Unix.write t.fd raw !off (Bytes.length raw - !off) with
      | n -> off := !off + n
      | exception Unix.Unix_error (err, fn, _) ->
        raise (journal_error ~path:t.path fn err)
    done;
    Faultpoint.hit "journal.fsync";
    (match Unix.fsync t.fd with
    | () -> ()
    | exception Unix.Unix_error (err, fn, _) ->
      raise (journal_error ~path:t.path fn err))
  with
  | () ->
    Mutex.lock t.mu;
    List.iteri (fun i p -> p.outcome <- `Done (seq0 + i)) batch;
    t.next_seq <- seq0 + List.length batch;
    t.appends <- t.appends + List.length batch;
    t.bytes <- t.bytes + Buffer.length buf;
    t.fsyncs <- t.fsyncs + 1;
    t.batches <- t.batches + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu
  | exception e ->
    (* Roll back whatever the failed batch left behind; if even that
       fails the torn frames stay and the CRC scan discards them. *)
    (try Unix.ftruncate t.fd start with Unix.Unix_error _ -> ());
    (try ignore (Unix.lseek t.fd 0 Unix.SEEK_END) with Unix.Unix_error _ -> ());
    Mutex.lock t.mu;
    List.iter (fun p -> p.outcome <- `Failed e) batch;
    t.errors <- t.errors + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu

let writer_loop t =
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.cond t.mu
    done;
    let batch = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    let stop = t.stopping && batch = [] in
    Mutex.unlock t.mu;
    if batch <> [] then commit_batch t batch;
    if not stop then loop ()
  in
  loop ()

let open_ ?(min_next_seq = 1) ~path () =
  let ({ next_seq; truncated_bytes; _ } : scan_result) = scan ~path in
  let fd =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
    | fd -> fd
    | exception Unix.Unix_error (err, fn, _) ->
      raise (journal_error ~path fn err)
  in
  let size = Unix.lseek fd 0 Unix.SEEK_END in
  (* Cut the torn tail off the file, not just the scan: appending after
     the corrupt bytes would strand every later record behind the
     CRC-scan stop on the next recovery. *)
  if truncated_bytes > 0 then begin
    (match
       Unix.ftruncate fd (size - truncated_bytes);
       Unix.fsync fd
     with
    | () -> ()
    | exception Unix.Unix_error (err, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise (journal_error ~path fn err));
    ignore (Unix.lseek fd 0 Unix.SEEK_END)
  end;
  let next_seq = max next_seq min_next_seq in
  let t =
    {
      path;
      fd;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      next_seq;
      stopping = false;
      writer = None;
      appends = 0;
      bytes = 0;
      fsyncs = 0;
      batches = 0;
      errors = 0;
    }
  in
  t.writer <- Some (Domain.spawn (fun () -> writer_loop t));
  t

let append t payload =
  let p = { payload; outcome = `Waiting } in
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    raise
      (E.Error
         (E.make ~code:"journal.closed" E.Io "journal is closed"
            ~context:[ ("journal", t.path) ]))
  end;
  Queue.add p t.queue;
  Condition.broadcast t.cond;
  while p.outcome = `Waiting do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu;
  match p.outcome with
  | `Done seq -> seq
  | `Failed e -> raise e
  | `Waiting -> assert false

let last_seq t =
  Mutex.lock t.mu;
  let n = t.next_seq - 1 in
  Mutex.unlock t.mu;
  n

(* Drop every durable record (the snapshot now owns them); sequence
   numbers keep counting so "seq <= snapshot.last_seq" stays the replay
   skip rule even for a crash between snapshot rename and truncate. *)
let truncate t =
  (match Unix.ftruncate t.fd 0 with
  | () -> ()
  | exception Unix.Unix_error (err, fn, _) ->
    raise (journal_error ~path:t.path fn err));
  ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
  match Unix.fsync t.fd with
  | () -> ()
  | exception Unix.Unix_error (err, fn, _) ->
    raise (journal_error ~path:t.path fn err)

let close t =
  let join =
    Mutex.lock t.mu;
    if t.stopping then begin
      Mutex.unlock t.mu;
      None
    end
    else begin
      t.stopping <- true;
      Condition.broadcast t.cond;
      let w = t.writer in
      t.writer <- None;
      Mutex.unlock t.mu;
      w
    end
  in
  match join with
  | None -> ()
  | Some d ->
    Domain.join d;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())

let metrics t =
  let module M = Vadasa_telemetry.Telemetry.Metric in
  Mutex.lock t.mu;
  let entries =
    [
      M.counter ~family:"vadasa_journal_appends_total"
        ~help:"Records durably appended to the journal" "appends" t.appends;
      M.counter ~family:"vadasa_journal_bytes_total"
        ~help:"Framed bytes written to the journal" "bytes" t.bytes;
      M.counter ~family:"vadasa_journal_fsyncs_total"
        ~help:"Journal fsync calls (one per group-committed batch)" "fsyncs"
        t.fsyncs;
      M.counter ~family:"vadasa_journal_batches_total"
        ~help:"Group-committed journal batches" "batches" t.batches;
      M.counter ~family:"vadasa_journal_errors_total"
        ~help:"Journal batches that failed and were rolled back" "errors"
        t.errors;
      M.json "last_seq" (Json.Int (t.next_seq - 1));
    ]
  in
  Mutex.unlock t.mu;
  entries
