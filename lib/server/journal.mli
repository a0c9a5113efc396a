(** Append-only on-disk record journal: CRC-framed records, a single
    writer domain with group commit, torn-write-tolerant scanning.

    {!append} blocks until the record is durable (written {e and}
    fsynced): concurrent appenders are drained into one batch paying a
    single [write]+[fsync], so the journal is also the registry's way
    off the serializing per-entry lock — commits to different datasets
    ride the same batch. A batch that fails (injected
    ["journal.write"] / ["journal.fsync"] fault, or a real I/O error)
    is rolled back to the pre-batch file offset and every append in it
    raises: an append that returned committed, an append that raised
    left nothing behind.

    Record framing is [magic "VJL1" | seq:64LE | len:32LE |
    crc32:32LE | payload]. {!scan} replays a journal file without
    opening it for writing and stops at the first frame that fails the
    magic/bounds/CRC checks — a crash mid-write costs at most the
    uncommitted tail, never an earlier record. *)

type t

val open_ : ?min_next_seq:int -> path:string -> unit -> t
(** Open (or create) the journal for appending and start its writer
    domain. A torn tail left by a crash mid-write is physically cut off
    the file, so new records append contiguously after the last valid
    one. Sequence numbering continues from the highest committed record
    already in the file, or from [min_next_seq] if that is higher —
    callers whose snapshot owns sequences the journal no longer holds
    (it was truncated) pass [snapshot.last_seq + 1] so fresh records
    never collide with ones a recovery would skip. Raises [journal.io]
    on open or truncation failure. *)

val append : t -> string -> int
(** Durably append one record; returns its sequence number. Blocks for
    (at most) one group-commit round. Raises the batch failure —
    [fault.journal.write], [fault.journal.fsync] or [journal.io] — with
    the record rolled back, and [journal.closed] after {!close}. *)

val truncate : t -> unit
(** Empty the journal file (after its records were captured by a
    snapshot). Sequence numbers keep counting. *)

val last_seq : t -> int
(** Highest sequence number committed so far; 0 when none. *)

val close : t -> unit
(** Flush pending appends, join the writer domain, close the file.
    Idempotent. *)

type scan_result = {
  records : (int * string) list;  (** [(seq, payload)] in file order *)
  truncated_bytes : int;  (** torn-tail bytes discarded by the CRC check *)
  next_seq : int;  (** 1 + the highest sequence number seen *)
}

val scan : path:string -> scan_result
(** Read every intact record; a missing file is an empty journal. Never
    raises on corrupt input — the first bad frame ends the scan. *)

val crc32 : string -> int
(** The frame checksum (IEEE CRC-32), exposed for tests. *)

val metrics : t -> Vadasa_telemetry.Telemetry.Metric.t list
(** Committed [appends] (records), [bytes] (framed, of committed
    batches), [fsyncs], [batches] (group commits; [appends / batches]
    is the batch size) and [errors] (failed, rolled-back batches), plus
    [last_seq] (JSON only); one read under the journal's lock. *)
