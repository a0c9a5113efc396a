(** Crash-safety for the server's durable state (`--data-dir`): one
    {!Journal} plus one atomically-renamed snapshot file, shared by
    every registered subsystem (the dataset registry, the jobs table).

    Durability contract:
    - a mutation acknowledged to a client was journaled (write-ahead,
      fsynced via group commit) {e before} it was applied;
    - a journal append that fails — injected ["journal.write"] /
      ["journal.fsync"] faults included — aborts the mutation with
      nothing applied and nothing left in the file;
    - {!recover} restores the last snapshot, then replays only journal
      records past the snapshot's sequence number (so the
      snapshot-then-truncate crash window never double-applies), and
      tolerates a torn journal tail (consistent prefix, never a
      crash).

    See docs/JOBS.md for the full recovery semantics. *)

type t

val open_ : ?snapshot_every:int -> dir:string -> unit -> t
(** Create/open the data directory (made recursively). A snapshot is
    taken every [snapshot_every] committed records (default 64) and on
    {!close}. *)

val register :
  t ->
  section:string ->
  prefix:string ->
  dump:(Buffer.t -> unit) ->
  restore:(Vadasa_base.Json.t -> unit) ->
  apply:(Vadasa_base.Json.t -> unit) ->
  unit
(** Attach a durable subsystem: [dump] appends its full state, one
    compact JSON value, to the snapshot being written as its
    [section]; [restore] reads that value back; [apply] re-applies one
    journal record whose ["kind"] field starts with [prefix]. Register
    every subsystem before {!recover}. *)

val recover : t -> unit
(** Load the snapshot (if any) through each registrant's [restore],
    then replay the journal tail through [apply]. Raises
    [persist.corrupt_snapshot] only when the snapshot file itself is
    unreadable — journal damage is tolerated, not fatal. *)

val commit : t -> record:Vadasa_base.Json.t -> ((unit -> unit) -> 'a) -> 'a
(** [commit t ~record f] runs [f commit_now] under the shared side of
    the commit/snapshot lock. [f] calls [commit_now ()] once its own
    validation passed and the mutation is inevitable: the call blocks
    until [record] is durable and raises (aborting [f]) if the journal
    rejects it. If [f] never calls [commit_now], nothing is journaled.
    During replay, [commit_now] is a no-op (records are not
    re-journaled). May take a snapshot after the commit completes. *)

val replaying : t -> bool

val snapshot : t -> unit
(** Force a snapshot now: dump all registrants (under the exclusive
    lock), write + fsync a temp file, atomically rename it over the
    previous snapshot, truncate the journal. Recorded as the
    [persist.snapshot] telemetry span. *)

val close : t -> unit
(** Final snapshot (best-effort), then close the journal. *)

val dir : t -> string

val journal : t -> Journal.t

val metrics : t -> Vadasa_telemetry.Telemetry.Metric.t list
(** The store's [dir], its journal's {!Journal.metrics} under
    ["journal"], and the snapshot and boot-recovery accounting
    ([snapshots], [since_snapshot], [snapshot_every],
    [replayed_records], [skipped_records], [truncated_bytes]), read
    under the store's lock. *)
