(** The reasoning engine: chase-based saturation of a Vadalog program.

    Evaluation strategy:
    - rules are {!Stratify}ed; strata run bottom-up;
    - within a stratum, aggregate-{e binding} rules run first, once (their
      bodies are saturated by construction); each emits its groups in
      creation order, the order in which each group's first binding was
      found. Then the remaining rules, plain rules and aggregate tests
      alike, reach a fixpoint by semi-naive evaluation (per-atom deltas
      over the fact store's insertion order). A rule whose body
      predicates the stratum does not derive reads, in its delta plan
      for atom [k], every earlier atom only below its watermark, so each
      body binding is enumerated once; rules whose bodies the stratum
      derives read inner atoms in full, seeing facts emitted during the
      iteration;
    - rules are compiled once, at {!create}: every variable gets a slot in
      a per-evaluation register file, every body atom a sequence of
      check-constant / check-slot / bind-slot operations fixed by its
      plan's schedule, every expression slot-resolved code. An atom with
      several bound positions probes the smallest of their index buckets.
      Facts, Skolem frontiers, aggregation groups and contributors are
      identified by value ({!Vadasa_base.Value.equal_array}), never by a
      printed rendering;
    - existential head variables are satisfied by the Skolem chase: one
      fresh labelled null per (rule, existential variable, frontier
      binding), memoized so the chase terminates on warded programs;
    - monotone aggregate {e tests} are semi-naive too: each delta plan
      feeds only new bindings into the rule's groups, whose contributor
      tables persist across iterations, so recursion through
      [msum(...) > t] converges (Section 4.4's company control). A
      group's test is checked whenever a binding contributes to it — a
      threshold reading a non-group variable reads that binding's value
      — and the group emits its heads the first time it passes; its heads depend on the group's values
      alone, so later passes would only repeat them;
    - every derived fact can record its rule and parent facts for
      {!Provenance} explanations.

    {b Parallel evaluation.} With [~domains:N] (or a shared [~pool]),
    {!run} evaluates each stratum's plain rules across OCaml 5 domains:
    batches of snapshot-safe (rule, delta-plan) jobs run a read-only
    join phase in parallel over contiguous delta chunks, then a
    single-threaded merge replays the buffered bindings in sequential
    emission order. Chunks are sized adaptively by a per-rule cost
    model (estimated scanned facts) and batches below a work threshold
    run sequentially. Workers capture only each binding's slots and
    parent facts; the merge replays every binding through the same
    head emitter the sequential path uses. The sequential and the
    parallel evaluator run the same set of (rule, plan) evaluations,
    so their profiler counters agree too. Results
    — fact insertion order, labelled-null names, provenance, dedup and
    aggregate-contributor semantics — are byte-identical to
    [~domains:1]. Rules whose plans read their own head predicates,
    aggregate rules and zero-atom rules fall back to sequential
    evaluation. Design and correctness argument: [docs/PARALLELISM.md];
    measured behavior: [docs/PERFORMANCE.md].

    {b Thread-safety contract.} An engine is {e single-writer}: at most
    one domain at a time may call {!create}, {!add_fact},
    {!add_fact_array} or {!run}, with no concurrent readers while it
    does. (Parallel evaluation does not relax this: the engine's own
    workers only ever read the database concurrently — every write
    happens on the domain that called {!run}.) Once {!run} has returned
    and no further mutation happens, the engine is {e quiescent} and
    any number of domains may concurrently call the read side —
    {!facts}, {!explain}, {!stats}, {!profile_report},
    {!Database.lookup} on {!database}, … — including the lazily-built
    positional indexes, whose publication is made read-after-publish safe
    in {!Database} (fully-built tables swapped in atomically). Global
    telemetry ({!Vadasa_telemetry}) is {e not} domain-safe: concurrent
    engine runs must keep the gated global registry disabled and rely on
    the always-on per-engine {!profile} instead, which touches only
    engine-local state (under parallel evaluation, per-rule telemetry
    spans are skipped inside batches for the same reason — only the
    coordinator emits spans). *)

type config = {
  max_iterations : int;  (** per-stratum fixpoint guard, default 100_000 *)
  max_facts : int;  (** global derivation guard, default 10_000_000 *)
}

val default_config : config

exception Limit of string
(** Raised when an iteration or fact guard trips — the symptom of a
    non-warded program whose chase diverges. The message carries the
    current stratum, the fixpoint iteration, and the top-3
    fact-producing predicates, so a diverging program can be located
    without re-running under a debugger. *)

type interrupt = {
  reason : Vadasa_base.Budget.reason;
  stratum : int;  (** stratum being evaluated when the budget ran out *)
  iteration : int;  (** fixpoint iteration within that stratum *)
  facts_derived : int;
      (** facts derived so far — consistent with {!stats}: equals
          [(stats t).facts_derived] observed after the raise *)
}

exception Interrupted of interrupt
(** Raised by {!run} when the supplied {!Vadasa_base.Budget} is
    exhausted. Unlike {!Limit} (a program pathology), an interrupt is
    an orderly stop at an iteration boundary: the database holds every
    fact derived so far and the engine can be inspected — or even
    resumed with a fresh budget, since {!run} is idempotent. *)

type t

val create :
  ?config:config -> ?first_null_label:int -> ?strat:Stratify.t ->
  ?domains:int -> ?pool:Vadasa_base.Task_pool.t ->
  Program.t -> t
(** Loads the program's inline facts; raises [Invalid_argument] on programs
    that fail {!Program.validate} and {!Stratify.Not_stratifiable} on
    non-stratifiable ones. [first_null_label] seeds the chase's labelled-null
    counter, so successive engine runs over evolving data can keep their
    invented nulls distinct. [strat] supplies a precomputed stratification
    — it must be {!Stratify.compute} of a program with exactly the same
    rules (unchecked); callers that cache program analysis across runs
    (the server's compiled-program cache) use it to skip re-stratifying,
    since {!Program.union} with a facts-only program keeps rule ids
    stable.

    [domains] (default [1], must be ≥ 1) enables parallel evaluation:
    the engine creates — and owns — a {!Vadasa_base.Task_pool} of that
    many domains, released by {!shutdown}. The request is clamped to
    {!Vadasa_base.Task_pool.recommended} — the host's useful
    parallelism under cgroup/affinity limits — because oversubscribing
    OCaml 5 domains costs real time (every minor collection
    synchronizes all running domains): [~domains:4] on a one-core
    container evaluates sequentially. [pool] instead {e borrows} an
    existing pool (it wins over [domains] when both are given, is
    never stopped by {!shutdown}, and is never clamped — the caller
    already chose its size, which is how tests exercise the parallel
    machinery on small hosts); a server with its own request workers
    shares one engine pool across requests this way, keeping the
    process-wide domain count fixed. With an effective [domains = 1] and no [pool],
    evaluation is exactly the sequential engine. *)

val add_fact : t -> string -> Vadasa_base.Value.t list -> unit

val add_fact_array : t -> string -> Vadasa_base.Value.t array -> unit

val run : ?budget:Vadasa_base.Budget.t -> t -> unit
(** Saturate. Idempotent: calling [run] again after adding facts resumes
    from the current state (all strata re-run). [budget] enables
    cooperative cancellation: it is polled at every stratum entry and
    fixpoint-iteration boundary — and, under parallel evaluation,
    {e per worker} every 4096 scanned facts — raising {!Interrupted}
    when exhausted (partial results stay in the database, telemetry is
    still published; an interrupt raised inside a parallel batch
    discards that batch's not-yet-merged bindings, so the database
    holds only whole-batch prefixes). Without [budget] the only guards
    are the {!config} limits. *)

val parallelism : t -> int
(** Domains evaluation may use: the pool's size, or [1] when the engine
    is sequential. *)

val shutdown : t -> unit
(** Stop the worker pool created by [create ~domains:N]. No-op for
    sequential engines and for engines borrowing a caller-supplied
    [~pool] (the caller owns that pool's lifecycle). The engine remains
    usable afterwards — evaluation just runs on the calling domain. *)

val facts : t -> string -> Vadasa_base.Value.t array list
(** Facts of a predicate, insertion order. *)

val database : t -> Database.t

val explain :
  ?max_depth:int -> t -> string -> Vadasa_base.Value.t array ->
  Provenance.t option

val nulls_created : t -> int
(** Labelled nulls invented by the chase so far. *)

type null_origin = {
  origin_rule : int;  (** id of the rule that introduced the null *)
  origin_var : string;  (** the existential variable it satisfies *)
  origin_frontier : (string * Vadasa_base.Value.t) list;
      (** the frontier binding the Skolem chase keyed the null on;
          values may themselves be labelled nulls (nested terms) *)
}

val null_origin : t -> int -> null_origin option
(** The Skolem term a labelled null stands for — [sk(rule, var,
    frontier)] — or [None] for labels the chase did not invent (nulls
    already present in the input data). Two runs that derive the same
    facts under different label assignments (say, two builds whose
    derivation order differs) map equal facts to equal Skolem terms;
    {!Canonical} renders databases modulo this renaming. *)

(** {2 Chase statistics}

    Always-on lightweight counters (plain integer bumps on the
    derivation path). When telemetry is enabled ({!Vadasa_telemetry}),
    {!run} additionally records [engine.*] spans and mirrors these
    totals into the global registry — see [docs/OBSERVABILITY.md]. *)

type stats = {
  strata_run : int;  (** stratum evaluations, cumulative over {!run}s *)
  iterations : int;  (** fixpoint iterations, cumulative *)
  facts_derived : int;  (** new facts added by rule heads *)
  duplicates_suppressed : int;  (** head emissions already in the store *)
  agg_groups_created : int;  (** aggregation groups materialized *)
  nulls_created : int;  (** labelled nulls invented by the chase *)
}

val stats : t -> stats

val rule_derivations : t -> (string * int) list
(** New facts per rule label, most productive first. *)

val pred_derivations : t -> (string * int) list
(** New facts per head predicate, most productive first. *)

val publish_rule_counters : t -> unit
(** Set [engine.rule.<label>.derived]/[.duplicates] and
    [engine.pred.<p>.derived] on the global telemetry registry (when
    enabled). {!run} publishes only the engine's fixed-name counters
    ([engine.facts.*], [engine.iterations], ...): these names come from
    the program text, so a one-shot run (the CLI's [--metrics]) calls
    this after its run, and a long-running server does not. *)

(** {2 Profiling}

    Every engine carries an always-on {!Profile.t}: per-rule self time,
    evaluation counts, join selectivity (tuples scanned vs. matched),
    derivations vs. duplicate hits, nulls invented and aggregate-group
    churn, plus per-stratum wall time. The overhead is two clock reads
    per rule evaluation and plain integer bumps on the match path. *)

val profile : t -> Profile.t
(** The live accumulators (they keep counting across {!run}s). *)

val profile_report : t -> Profile.report
(** Snapshot of {!profile} as a ranked hotspot report; see
    {!Profile.to_text} and {!Profile.to_json}. *)
