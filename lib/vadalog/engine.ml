module Value = Vadasa_base.Value
module Ids = Vadasa_base.Ids
module Keyed = Vadasa_base.Keyed
module Budget = Vadasa_base.Budget
module Task_pool = Vadasa_base.Task_pool
module Telemetry = Vadasa_telemetry.Telemetry
module Faultpoint = Vadasa_resilience.Faultpoint

let log_src = Logs.Src.create "vadasa.engine" ~doc:"chase evaluation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  max_iterations : int;
  max_facts : int;
}

let default_config =
  { max_iterations = 100_000; max_facts = 10_000_000 }

exception Limit of string

(* ---- parallel-evaluation tuning constants ----------------------------- *)

(* Chunks are sized by estimated join work (scanned facts), not fact
   counts: a delta fact of a band self-join costs a full inner scan
   while a delta fact of an indexed closure step costs a handful of
   probes, and fixed-count chunks made the latter pay fork-join
   overhead for microseconds of work. The estimate is a per-rule EWMA
   of scanned-facts-per-delta-fact ([c_spd]) fed back from completed
   evaluations. *)
let target_chunk_scans = 16_384
(* Estimated scans per chunk a worker should receive: big enough to
   amortize task dispatch and chunk set-up, small enough to keep
   [domains * 4] chunks available for load balancing. *)

let min_parallel_scans = 2 * target_chunk_scans
(* A batch whose total estimated work is below this evaluates
   sequentially — the fork-join + merge machinery costs more than the
   join itself (the old fixed-count policy made tiny strata slower at
   4 domains than at 1). *)

let min_chunk_facts = 64
(* Floor on chunk granularity in facts, so the capture/replay overhead
   per fact stays bounded even when [c_spd] estimates huge per-fact
   cost. *)

let spd_init = 64.0
(* Scanned-per-delta-fact estimate for a rule that has never been
   measured: assume moderately expensive, so first iterations of big
   deltas parallelize and the measured rate takes over from there. *)

type interrupt = {
  reason : Budget.reason;
  stratum : int;  (* stratum being evaluated when the budget ran out *)
  iteration : int;  (* fixpoint iteration within that stratum *)
  facts_derived : int;  (* facts derived so far, = [stats.facts_derived] *)
}

exception Interrupted of interrupt

(* ---- compiled rules ---------------------------------------------------- *)

(* Every variable of a rule owns an integer slot in a per-evaluation
   register file ([Value.t array]). Steps are compiled against their
   plan's schedule, which fixes, for every step, the set of variables
   already written: an atom argument either compares with a constant,
   compares with a slot an earlier step (or an earlier position of the
   same atom) wrote, or writes its slot. A slot is therefore always
   written before it is read on every path through the plan, and a
   failed match needs no undo — the next candidate overwrites what the
   failed one wrote. *)
type arg =
  | A_const of Value.t
  | A_check of int
  | A_bind of int

type atom_step = {
  a_pred : string;
  a_rel : Database.relation;
  a_src : int;  (* index of the atom among the rule's positive atoms *)
  a_args : arg array;
  a_probe : int array;
      (* positions bound before the step; the candidates are the
         smallest of their index buckets *)
}

type step =
  | S_atom of atom_step
  | S_neg of Database.relation * arg array
  | S_guard of Expr.code
  | S_bind of int * Expr.code  (* assignment to a variable not yet bound *)
  | S_check of int * Expr.code  (* assignment to a bound variable: a test *)

type head = {
  h_pred : string;
  h_rel : Database.relation;
  h_args : Expr.code array;
}

type group = {
  state : Aggregate.state;
  mutable emitted : bool;
      (* Test rules: the group has passed and emitted its heads. They
         depend on the group's values alone, so every later emission
         would only be a duplicate. *)
}

(* An aggregate rule's aggregation, compiled. *)
type agg_code = {
  g_op : Aggregate.op;
  g_slots : int array;
      (* head variables bound during the join phase — the group key *)
  g_contributors : Expr.code array;
  g_arg : Expr.code;
  g_result : int;
      (* Bind: the result variable's slot; Test: the slot [g_test]
         reads the current value from *)
  g_test : Expr.code option;  (* Test: [current op threshold] *)
  g_post : step array;
      (* assignments/guards that depend on the aggregate's bound result,
         evaluated per group after aggregation *)
  g_keys : Keyed.t;  (* values of the group variables, one key per group *)
  mutable g_groups : group array;  (* parallel to [g_keys]' indexes *)
}

type compiled_rule = {
  rule : Rule.t;
  atom_preds : string array;  (* positive body atoms' predicates, source order *)
  agg : agg_code option;
  nslots : int;  (* register file size *)
  (* plans.(k) = literal schedule with positive atom [k] first (the delta
     atom); plans.(n) = schedule for "no delta restriction". *)
  plans : step array array;
  unbounded : int array;  (* read bounds of an unrestricted plan *)
  emit : head array;  (* head atoms, source order *)
  frontier : int array;  (* slots of the frontier variables, in order *)
  frontier_names : string array;
  existentials : (string * int) array;  (* existential variable, slot *)
  skolem : Keyed.t;  (* frontier values, one key per binding *)
  mutable skolem_nulls : Value.t array array;
      (* parallel to [skolem]'s indexes: the nulls invented for the
         binding, in [existentials] order *)
  c_prof : Profile.rule;  (* hot-path cost accumulator (see Profile) *)
  c_span : string;  (* "engine.rule.<label>" *)
  c_preds : string list;  (* distinct positive body predicates *)
  c_heads : string list;  (* distinct head predicates *)
  c_plan_reads : string list array;
      (* c_plan_reads.(k) = predicates plan k reads outside its delta atom
         (inner positive atoms + negated atoms). A (rule, plan) pair whose
         heads intersect these reads is not snapshot-safe: its inner scans
         must see its own emissions live, so it evaluates sequentially. *)
  c_capture : int array;
      (* slots a parallel worker must capture per body binding to replay
         head emission later: frontier ∪ head-argument variables, minus
         existentials (those are invented at merge time) *)
  c_spd : float array;
      (* c_spd.(k): EWMA of scanned facts per delta fact of plan k —
         the cost model behind adaptive chunk sizing. Per plan, not per
         rule: the delta-on-path plan of a closure rule costs a few
         probes per delta fact while its delta-on-edge plan replays
         whole join subtrees, and one shared estimate would let the
         expensive plan poison the cheap one's. Coordinator-only
         state: updated after each completed evaluation, read when
         planning the next batch. It steers granularity, never
         results, so byte-identity is unaffected by its value. *)
}

type stats = {
  strata_run : int;
  iterations : int;
  facts_derived : int;
  duplicates_suppressed : int;
  agg_groups_created : int;
  nulls_created : int;
}

(* Where a labelled null came from: the Skolem term sk(rule, var,
   frontier binding) it stands for. Recorded for every null the chase
   invents, so two runs that invent "the same" null under different
   labels (say, two builds whose derivation order differs) can be
   compared modulo label renaming — see [Canonical]. *)
type null_origin = {
  origin_rule : int;  (* rule id that introduced the null *)
  origin_var : string;  (* the existential variable *)
  origin_frontier : (string * Value.t) list;
      (* frontier variable bindings, in frontier order; values may
         themselves be labelled nulls (nested Skolem terms) *)
}

type binding_ctx = {
  regs : Value.t array;
  mutable parents : (string * Value.t array) list;
}

let unset = Value.Int 0

let new_ctx cr = { regs = Array.make cr.nslots unset; parents = [] }

(* ---- parallel-evaluation worker output ------------------------------ *)

(* One body binding a worker found, captured for replay at merge time. *)
type emission = {
  e_vals : Value.t array;  (* values of [c_capture], same order *)
  e_parents : (string * Value.t array) list;
      (* as ctx.parents: reverse match order *)
}

(* Worker-local profiler counters: summed into the rule's shared
   accumulator at merge time, keeping the shared record single-writer. *)
let chunk_prof () =
  {
    Profile.r_label = "";
    r_stratum = 0;
    r_evals = 0;
    r_time = 0.0;
    r_scanned = 0;
    r_matched = 0;
    r_bindings = 0;
    r_derived = 0;
    r_duplicates = 0;
    r_nulls = 0;
    r_groups = 0;
  }

type t = {
  program : Program.t;
  config : config;
  db : Database.t;
  strat : Stratify.t;
  ids : Ids.t;
  null_origins : (int, null_origin) Hashtbl.t;  (* null label -> Skolem term *)
  compiled : (int, compiled_rule) Hashtbl.t;
  (* Always-on chase statistics: cheap enough to keep unconditionally,
     they make Limit errors diagnosable and feed the telemetry report. *)
  pred_derived : (string, int ref) Hashtbl.t;
  prof : Profile.t;
  pool : Task_pool.t option;  (* None = fully sequential evaluation *)
  pool_owned : bool;  (* created by us (shutdown stops it) vs borrowed *)
  mutable s_stratum : int;  (* stratum currently evaluating *)
  mutable s_iteration : int;  (* fixpoint iteration within it *)
  mutable s_strata_run : int;
  mutable s_iterations : int;
  mutable s_derived : int;
  mutable s_duplicates : int;
  mutable s_agg_groups : int;
}

(* ---- compilation ------------------------------------------------------ *)

let literal_steps body =
  List.filter_map
    (function
      | Rule.Pos atom ->
        (match Atom.as_terms atom with
        | Some terms -> Some (`Pos (atom.Atom.pred, terms))
        | None -> invalid_arg "Engine: non-term body atom (validate first)")
      | Rule.Neg atom ->
        (match Atom.as_terms atom with
        | Some terms -> Some (`Neg (atom.Atom.pred, terms))
        | None -> invalid_arg "Engine: non-term negated atom")
      | Rule.Guard e -> Some (`Guard e)
      | Rule.Assign (x, e) -> Some (`Assign (x, e))
      | Rule.Agg _ -> None)
    body

let term_vars terms =
  Array.to_list terms
  |> List.filter_map (function Term.Var v -> Some v | Term.Const _ -> None)

(* Greedy left-deep schedule. [first] is the index of the delta atom among
   the positive atoms, or none for an unrestricted schedule. Returns the
   literals in evaluation order; a positive atom carries its index among
   the positive atoms. *)
let schedule literals ~first =
  let items = Array.of_list literals in
  let n = Array.length items in
  let used = Array.make n false in
  let bound = Hashtbl.create 16 in
  let bind_vars vars = List.iter (fun v -> Hashtbl.replace bound v ()) vars in
  let all_bound vars = List.for_all (Hashtbl.mem bound) vars in
  (* Ordinal of each positive literal among the positive literals. *)
  let ordinal = Array.make n (-1) in
  let pos_positions =
    let acc = ref [] in
    Array.iteri
      (fun i item ->
        match item with
        | `Pos _ ->
          ordinal.(i) <- List.length !acc;
          acc := i :: !acc
        | _ -> ())
      items;
    Array.of_list (List.rev !acc)
  in
  let out = ref [] in
  let take i =
    used.(i) <- true;
    (match items.(i) with
    | `Pos (pred, terms) ->
      bind_vars (term_vars terms);
      out := `Atom (ordinal.(i), pred, terms) :: !out
    | `Neg (pred, terms) -> out := `Neg (pred, terms) :: !out
    | `Guard e -> out := `Guard e :: !out
    | `Assign (x, e) ->
      Hashtbl.replace bound x ();
      out := `Assign (x, e) :: !out)
  in
  (match first with
  | Some k when k < Array.length pos_positions -> take pos_positions.(k)
  | Some _ | None -> ());
  let remaining () = Array.exists (fun u -> not u) used in
  while remaining () do
    (* 1. Cheap literals whose dependencies are satisfied. *)
    let progressed = ref false in
    Array.iteri
      (fun i item ->
        if not used.(i) then
          match item with
          | `Assign (_, e) when all_bound (Expr.vars e) ->
            take i;
            progressed := true
          | `Guard e when all_bound (Expr.vars e) ->
            take i;
            progressed := true
          | `Neg (_, terms) when all_bound (term_vars terms) ->
            take i;
            progressed := true
          | _ -> ())
      items;
    if not !progressed then begin
      (* 2. The positive atom sharing the most bound variables. *)
      let best = ref (-1) in
      let best_score = ref (-1) in
      Array.iteri
        (fun i item ->
          if not used.(i) then
            match item with
            | `Pos (_, terms) ->
              let vars = term_vars terms in
              let score =
                List.length (List.filter (Hashtbl.mem bound) vars)
              in
              if score > !best_score then begin
                best := i;
                best_score := score
              end
            | _ -> ())
        items;
      if !best >= 0 then take !best
      else
        invalid_arg
          "Engine: cannot schedule rule body (unbound guard or negation)"
    end
  done;
  List.rev !out

(* Turn a schedule into slot operations. [bound] tracks, step by step,
   the variables earlier steps wrote — exactly the variables bound at
   that point of every evaluation. *)
let compile_plan db ~slot_of schedule =
  let bound = Hashtbl.create 16 in
  let is_bound x = Hashtbl.mem bound x in
  let code e =
    Expr.compile ~slot:(fun x -> if is_bound x then Some (slot_of x) else None) e
  in
  let read_arg = function
    | Term.Const c -> A_const c
    | Term.Var v -> A_check (slot_of v)
  in
  List.map
    (function
      | `Atom (src, pred, terms) ->
        let probe =
          List.filter
            (fun i ->
              match terms.(i) with Term.Const _ -> true | Term.Var v -> is_bound v)
            (List.init (Array.length terms) Fun.id)
        in
        let args =
          Array.map
            (function
              | Term.Const c -> A_const c
              | Term.Var v when is_bound v -> A_check (slot_of v)
              | Term.Var v ->
                Hashtbl.replace bound v ();
                A_bind (slot_of v))
            terms
        in
        S_atom
          {
            a_pred = pred;
            a_rel = Database.relation db pred;
            a_src = src;
            a_args = args;
            a_probe = Array.of_list probe;
          }
      | `Neg (pred, terms) ->
        S_neg (Database.relation db pred, Array.map read_arg terms)
      | `Guard e -> S_guard (code e)
      | `Assign (x, e) ->
        let c = code e in
        if is_bound x then S_check (slot_of x, c)
        else begin
          Hashtbl.replace bound x ();
          S_bind (slot_of x, c)
        end)
    schedule
  |> Array.of_list

let compile_rule prof db rule =
  let literals = literal_steps rule.Rule.body in
  let agg = Rule.the_agg rule in
  let slots = Hashtbl.create 16 in
  let slot_of x =
    match Hashtbl.find_opt slots x with
    | Some i -> i
    | None ->
      let i = Hashtbl.length slots in
      Hashtbl.add slots x i;
      i
  in
  (* Split off guard/assignment literals that cannot be evaluated before the
     aggregate binds its result variable: they form the post-group phase. *)
  let pre_bound = Hashtbl.create 16 in
  List.iter
    (function
      | `Pos (_, terms) ->
        List.iter (fun v -> Hashtbl.replace pre_bound v ()) (term_vars terms)
      | _ -> ())
    literals;
  let assigns =
    List.filter_map (function `Assign (x, e) -> Some (x, e) | _ -> None) literals
  in
  let fixpoint () =
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun (x, e) ->
          if
            (not (Hashtbl.mem pre_bound x))
            && List.for_all (Hashtbl.mem pre_bound) (Expr.vars e)
          then begin
            Hashtbl.replace pre_bound x ();
            progress := true
          end)
        assigns
    done
  in
  fixpoint ();
  let placeable_pre = Hashtbl.copy pre_bound in
  let is_pre = function
    | `Pos _ | `Neg _ -> true
    | `Guard e -> List.for_all (Hashtbl.mem placeable_pre) (Expr.vars e)
    | `Assign (x, _) -> Hashtbl.mem placeable_pre x
  in
  let pre_literals, post_literals =
    match agg with
    | Some { Rule.agg_result = Rule.Bind x; _ } ->
      let pre, post = List.partition is_pre literals in
      Hashtbl.replace pre_bound x ();
      fixpoint ();
      (pre, post)
    | Some { Rule.agg_result = Rule.Test _; _ } | None -> (literals, [])
  in
  let group_vars =
    match agg with
    | Some _ ->
      List.filter (Hashtbl.mem placeable_pre) (Rule.head_vars rule)
    | None -> []
  in
  (* What an aggregate rule's post phase and heads can see: the group's
     variables, the bound result, and post-phase assignments as they are
     made. Anything else is unbound there. *)
  let visible = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace visible v ()) group_vars;
  (match agg with
  | Some { Rule.agg_result = Rule.Bind x; _ } -> Hashtbl.replace visible x ()
  | _ -> ());
  let visible_code e =
    Expr.compile
      ~slot:(fun x -> if Hashtbl.mem visible x then Some (slot_of x) else None)
      e
  in
  (* Order the post phase by assignment dependencies. *)
  let post_steps =
    let remaining = ref post_literals in
    let placed = ref [] in
    let bound = Hashtbl.copy placeable_pre in
    (match agg with
    | Some { Rule.agg_result = Rule.Bind x; _ } -> Hashtbl.replace bound x ()
    | _ -> ());
    let guard_budget = ref (List.length post_literals + 1) in
    while !remaining <> [] && !guard_budget > 0 do
      decr guard_budget;
      let ready, blocked =
        List.partition
          (function
            | `Guard e -> List.for_all (Hashtbl.mem bound) (Expr.vars e)
            | `Assign (_, e) -> List.for_all (Hashtbl.mem bound) (Expr.vars e)
            | `Pos _ | `Neg _ -> false)
          !remaining
      in
      List.iter
        (function
          | `Guard e -> placed := S_guard (visible_code e) :: !placed
          | `Assign (x, e) ->
            let c = visible_code e in
            Hashtbl.replace bound x ();
            Hashtbl.replace visible x ();
            placed := S_bind (slot_of x, c) :: !placed
          | `Pos _ | `Neg _ -> ())
        ready;
      remaining := blocked;
      if ready = [] && blocked <> [] then
        invalid_arg
          ("Engine: cannot schedule post-aggregation literals of rule "
          ^ rule.Rule.label)
    done;
    Array.of_list (List.rev !placed)
  in
  let atom_preds =
    Array.of_list
      (List.filter_map (function `Pos (p, _) -> Some p | _ -> None) pre_literals)
  in
  let n = Array.length atom_preds in
  let schedules =
    Array.init (n + 1) (fun k ->
        schedule pre_literals ~first:(if k < n then Some k else None))
  in
  let plans = Array.map (compile_plan db ~slot_of) schedules in
  (* Slots bound once a join binding is complete. *)
  let join_slot x =
    if Hashtbl.mem placeable_pre x then Some (slot_of x) else None
  in
  let frontier = Rule.frontier_vars rule in
  let existentials = Rule.existential_vars rule in
  let plan_reads =
    Array.map
      (fun sched ->
        List.concat
          (List.mapi
             (fun i -> function
               | `Atom (_, pred, _) when i > 0 -> [ pred ]
               | `Neg (pred, _) -> [ pred ]
               | `Atom _ | `Guard _ | `Assign _ -> [])
             sched)
        |> List.sort_uniq compare)
      schedules
  in
  let head_arg_vars =
    List.concat_map
      (fun atom ->
        Array.to_list atom.Atom.args |> List.concat_map Expr.vars)
      rule.Rule.head
  in
  let capture =
    List.sort_uniq compare (frontier @ head_arg_vars)
    |> List.filter (fun v -> not (List.mem v existentials))
    |> List.map slot_of |> Array.of_list
  in
  let head_code =
    match agg with
    | Some _ -> visible_code
    | None -> Expr.compile ~slot:(fun x -> Some (slot_of x))
  in
  let emit =
    Array.of_list
      (List.map
         (fun atom ->
           {
             h_pred = atom.Atom.pred;
             h_rel = Database.relation db atom.Atom.pred;
             h_args = Array.map head_code atom.Atom.args;
           })
         rule.Rule.head)
  in
  let agg =
    Option.map
      (fun a ->
        (* Test rules read the current value from a slot named so no
           parsed variable can collide with it. *)
        let result, test =
          match a.Rule.agg_result with
          | Rule.Bind x -> (slot_of x, None)
          | Rule.Test (op, rhs) ->
            let current = " current" in
            ( slot_of current,
              Some
                (Expr.compile
                   ~slot:(fun x ->
                     if x = current then Some (slot_of x) else join_slot x)
                   (Expr.Binop (op, Expr.Var current, rhs))) )
        in
        {
          g_op = a.Rule.agg_op;
          g_slots = Array.of_list (List.map slot_of group_vars);
          g_contributors =
            Array.of_list
              (List.map
                 (fun t -> Expr.compile ~slot:join_slot (Expr.of_term t))
                 a.Rule.agg_contributors);
          g_arg = Expr.compile ~slot:join_slot a.Rule.agg_arg;
          g_result = result;
          g_test = test;
          g_post = post_steps;
          g_keys = Keyed.create ();
          g_groups = [||];
        })
      agg
  in
  let existentials = Array.of_list (List.map (fun v -> (v, slot_of v)) existentials) in
  let frontier_names = Array.of_list frontier in
  let frontier = Array.map slot_of frontier_names in
  let nslots = Hashtbl.length slots in
  {
    rule;
    atom_preds;
    agg;
    nslots;
    plans;
    unbounded = Array.make n max_int;
    emit;
    frontier;
    frontier_names;
    existentials;
    skolem = Keyed.create ();
    skolem_nulls = [||];
    c_prof = Profile.register prof ~label:rule.Rule.label;
    c_span = "engine.rule." ^ rule.Rule.label;
    c_preds =
      Array.to_list atom_preds |> List.sort_uniq compare;
    c_heads =
      List.map (fun atom -> atom.Atom.pred) rule.Rule.head
      |> List.sort_uniq compare;
    c_plan_reads = plan_reads;
    c_capture = capture;
    c_spd = Array.make (Array.length plans) spd_init;
  }

(* ---- construction ----------------------------------------------------- *)

let create ?(config = default_config) ?(first_null_label = 1) ?strat
    ?(domains = 1) ?pool program =
  (match Program.validate program with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Engine.create: " ^ String.concat "; " errors));
  if domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
  (* Oversubscribing a host costs real time under OCaml 5 (every minor
     collection synchronizes all running domains), so the requested
     parallelism is clamped to what the host can actually run —
     [Task_pool.recommended] honors cgroup/affinity limits, so a
     container pinned to one core evaluates sequentially no matter what
     [~domains] asks for. An explicit [~pool] is never clamped. *)
  let domains = Task_pool.effective ~requested:domains in
  let pool, pool_owned =
    match pool with
    | Some p -> (Some p, false)
    | None when domains > 1 ->
      ( Some
          (Task_pool.create
             ~on_wait:(fun dt -> Telemetry.observe "pool.wait" dt)
             ~domains ()),
        true )
    | None -> (None, false)
  in
  let strat =
    match strat with Some s -> s | None -> Stratify.compute program
  in
  let db = Database.create () in
  List.iter
    (fun (pred, args) -> ignore (Database.add db pred args))
    program.Program.facts;
  let prof = Profile.create () in
  let compiled = Hashtbl.create 64 in
  (* Compiling resolves every predicate a rule mentions to its store,
     creating empty ones here, on the writer, so evaluation — parallel
     workers included — only ever reads the predicate table. *)
  List.iter
    (fun rule ->
      Hashtbl.replace compiled rule.Rule.id (compile_rule prof db rule))
    program.Program.rules;
  {
    program;
    config;
    db;
    strat;
    ids = Ids.create ~start:first_null_label ();
    null_origins = Hashtbl.create 256;
    compiled;
    pred_derived = Hashtbl.create 32;
    prof;
    pool;
    pool_owned;
    s_stratum = 0;
    s_iteration = 0;
    s_strata_run = 0;
    s_iterations = 0;
    s_derived = 0;
    s_duplicates = 0;
    s_agg_groups = 0;
  }

let add_fact_array t pred args = ignore (Database.add t.db pred args)

let add_fact t pred args = add_fact_array t pred (Array.of_list args)

let parallelism t =
  match t.pool with None -> 1 | Some pool -> Task_pool.domains pool

let shutdown t = if t.pool_owned then Option.iter Task_pool.stop t.pool

(* ---- evaluation ------------------------------------------------------- *)

(* Unify [fact] with an atom's compiled arguments, writing its unbound
   variables' slots on the way. [match_from] is top level so that no
   closure is allocated per scanned fact. *)
let rec match_from regs args fact i n =
  i >= n
  || (match args.(i) with
     | A_const c -> Value.equal c fact.(i)
     | A_check s -> Value.equal regs.(s) fact.(i)
     | A_bind s ->
       regs.(s) <- fact.(i);
       true)
     && match_from regs args fact (i + 1) n

let match_args regs args fact =
  let n = Array.length args in
  Array.length fact = n && match_from regs args fact 0 n

let arg_value regs = function
  | A_const c -> c
  | A_check s | A_bind s -> regs.(s)

(* Candidates of a step with bound positions: the smallest of their
   index buckets. Every bucket lists its facts in insertion order, so the
   matching facts come out in the same order whichever is chosen. *)
let smallest_bucket regs a =
  let probe i =
    let pos = a.a_probe.(i) in
    Database.probe a.a_rel ~pos (arg_value regs a.a_args.(pos))
  in
  let best = ref (probe 0) in
  let i = ref 1 in
  while !i < Array.length a.a_probe && Database.Bucket.length !best > 0 do
    let b = probe !i in
    if Database.Bucket.length b < Database.Bucket.length !best then best := b;
    incr i
  done;
  !best

(* Enumerate the plan's bindings. The first step reads [delta] when
   given; every other atom reads the facts present when the step starts,
   restricted to insertion indexes below [bounds.(a_src)] (see
   [plan_jobs]). *)
let run_plan ?(poll = ignore) plan ~delta ~bounds ~prof ctx ~on_binding =
  let n = Array.length plan in
  let regs = ctx.regs in
  let rec exec i =
    if i >= n then begin
      prof.Profile.r_bindings <- prof.Profile.r_bindings + 1;
      on_binding ()
    end
    else
      match plan.(i) with
      | S_atom a ->
        (match delta with
        | Some (lo, hi) when i = 0 ->
          for idx = lo to hi - 1 do
            visit a i idx
          done
        | _ ->
          let bound = bounds.(a.a_src) in
          if Array.length a.a_probe = 0 then
            for idx = 0 to min bound (Database.rel_size a.a_rel) - 1 do
              visit a i idx
            done
          else begin
            let b = smallest_bucket regs a in
            let len = Database.Bucket.length b in
            let k = ref 0 in
            while !k < len && Database.Bucket.get b !k < bound do
              visit a i (Database.Bucket.get b !k);
              incr k
            done
          end)
      | S_neg (rel, args) ->
        if not (Database.rel_mem rel (Array.map (arg_value regs) args)) then
          exec (i + 1)
      | S_guard c -> if Expr.run_bool regs c then exec (i + 1)
      | S_bind (s, c) ->
        regs.(s) <- Expr.run regs c;
        exec (i + 1)
      | S_check (s, c) -> if Value.equal regs.(s) (Expr.run regs c) then exec (i + 1)
  and visit a i idx =
    prof.Profile.r_scanned <- prof.Profile.r_scanned + 1;
    if prof.Profile.r_scanned land 4095 = 0 then poll ();
    let fact = Database.rel_nth a.a_rel idx in
    if match_args regs a.a_args fact then begin
      prof.Profile.r_matched <- prof.Profile.r_matched + 1;
      let saved = ctx.parents in
      ctx.parents <- (a.a_pred, fact) :: saved;
      exec (i + 1);
      ctx.parents <- saved
    end
  in
  exec 0

(* Book-keeping for every head emission: per-rule and per-predicate
   derivation counts plus the duplicate-suppression tally. *)
let record_derivation t cr pred added =
  let p = cr.c_prof in
  if added then begin
    t.s_derived <- t.s_derived + 1;
    p.Profile.r_derived <- p.Profile.r_derived + 1;
    match Hashtbl.find_opt t.pred_derived pred with
    | Some r -> incr r
    | None -> Hashtbl.add t.pred_derived pred (ref 1)
  end
  else begin
    t.s_duplicates <- t.s_duplicates + 1;
    p.Profile.r_duplicates <- p.Profile.r_duplicates + 1
  end

let top_producers ?(limit = 3) t =
  Hashtbl.fold (fun p r acc -> (p, !r) :: acc) t.pred_derived []
  |> List.sort (fun (pa, a) (pb, b) ->
         match compare b a with 0 -> String.compare pa pb | c -> c)
  |> List.filteri (fun i _ -> i < limit)

let limit_message t message =
  Printf.sprintf "%s at stratum %d, iteration %d%s" message t.s_stratum
    t.s_iteration
    (match top_producers t with
    | [] -> ""
    | top ->
      "; top producers: "
      ^ String.concat ", "
          (List.map (fun (p, n) -> Printf.sprintf "%s (%d new facts)" p n) top))

let check_fact_limit t =
  if Database.total t.db > t.config.max_facts then
    raise
      (Limit
         (limit_message t
            (Printf.sprintf "fact limit exceeded (%d facts)" t.config.max_facts)))

(* Cooperative cancellation: polled at stratum entry and at every
   fixpoint iteration boundary. The partial-progress snapshot is taken
   at raise time, so [facts_derived] always equals [stats.facts_derived]
   observed right after the interrupt. *)
let check_budget t budget =
  match budget with
  | None -> ()
  | Some b -> (
    match Budget.check b ~facts:t.s_derived with
    | None -> ()
    | Some reason ->
      Log.debug (fun m ->
          m "chase interrupted (%s) at stratum %d, iteration %d, %d facts"
            (Budget.reason_to_string reason)
            t.s_stratum t.s_iteration t.s_derived);
      raise
        (Interrupted
           {
             reason;
             stratum = t.s_stratum;
             iteration = t.s_iteration;
             facts_derived = t.s_derived;
           }))

let insert_heads t cr ~prov regs =
  Array.iter
    (fun h ->
      let args = Array.map (Expr.run regs) h.h_args in
      record_derivation t cr h.h_pred (Database.rel_add t.db h.h_rel ~prov args))
    cr.emit;
  check_fact_limit t

(* Emit the heads of a plain (non-aggregate) rule under a complete body
   binding. *)
let emit_plain t cr ctx =
  let rule = cr.rule in
  let regs = ctx.regs in
  (* Existential variables: one null per (rule, frontier binding). *)
  if Array.length cr.existentials > 0 then begin
    let key = Array.map (fun s -> regs.(s)) cr.frontier in
    let known = Keyed.length cr.skolem in
    let i = Keyed.find_or_add cr.skolem key in
    let nulls =
      if i < known then cr.skolem_nulls.(i)
      else begin
        let nulls = Array.map (fun _ -> Ids.fresh_null t.ids) cr.existentials in
        cr.skolem_nulls <- Keyed.store cr.skolem_nulls i nulls;
        (* Remembering the frontier binding per invented null gives every
           null a label-independent Skolem identity. *)
        let frontier_binding =
          Array.to_list (Array.mapi (fun i v -> (cr.frontier_names.(i), v)) key)
        in
        Array.iteri
          (fun i (v, _) ->
            match nulls.(i) with
            | Value.Null n ->
              Hashtbl.replace t.null_origins n
                {
                  origin_rule = rule.Rule.id;
                  origin_var = v;
                  origin_frontier = frontier_binding;
                }
            | _ -> ())
          cr.existentials;
        cr.c_prof.Profile.r_nulls <-
          cr.c_prof.Profile.r_nulls + Array.length nulls;
        nulls
      end
    in
    Array.iteri (fun i (_, s) -> regs.(s) <- nulls.(i)) cr.existentials
  end;
  let prov =
    Database.Derived
      {
        rule_id = rule.Rule.id;
        rule_label = rule.Rule.label;
        parents = List.rev ctx.parents;
      }
  in
  insert_heads t cr ~prov regs

(* Evaluate the post-aggregation phase (assignments and guards over the
   bound aggregate result) and, if every guard holds, emit the heads.
   [regs] is the emission register file, separate from the join's; the
   group's values [key], and [result] for Bind rules, seed it. *)
let emit_agg_head t cr g regs key result =
  let rule = cr.rule in
  Array.iteri (fun i s -> regs.(s) <- key.(i)) g.g_slots;
  Option.iter (fun v -> regs.(g.g_result) <- v) result;
  let passes =
    Array.for_all
      (function
        | S_bind (s, c) ->
          regs.(s) <- Expr.run regs c;
          true
        | S_guard c -> Expr.run_bool regs c
        | S_atom _ | S_neg _ | S_check _ -> true)
      g.g_post
  in
  if passes then
    insert_heads t cr
      ~prov:
        (Database.Derived
           { rule_id = rule.Rule.id; rule_label = rule.Rule.label; parents = [] })
      regs

(* One rule evaluation: a (rule, plan) job of [plan_jobs], or an
   aggregate-binding rule's single unrestricted pass. *)
type job = {
  j_cr : compiled_rule;
  j_plan : int;
  j_delta : (int * int) option;  (* the delta atom's range *)
  j_bounds : int array;  (* per positive atom: read below this index *)
}

let full_job cr =
  {
    j_cr = cr;
    j_plan = Array.length cr.atom_preds;
    j_delta = None;
    j_bounds = cr.unbounded;
  }

(* One evaluation of an aggregate rule. A Test rule feeds the job's
   bindings into its persistent groups, and a group emits its heads the
   first time it passes; re-feeding a binding changes nothing, since
   contributions are kept per contributor. A Bind rule runs once over
   its saturated body, then every group emits in creation order. *)
let eval_agg_rule t j =
  let cr = j.j_cr in
  let g = Option.get cr.agg in
  let ctx = new_ctx cr in
  let out = Array.make cr.nslots unset in
  let on_binding () =
    let regs = ctx.regs in
    let gkey = Array.map (fun s -> regs.(s)) g.g_slots in
    let known = Keyed.length g.g_keys in
    let i = Keyed.find_or_add g.g_keys gkey in
    let group =
      if i < known then g.g_groups.(i)
      else begin
        let group = { state = Aggregate.create g.g_op; emitted = false } in
        g.g_groups <- Keyed.store g.g_groups i group;
        t.s_agg_groups <- t.s_agg_groups + 1;
        cr.c_prof.Profile.r_groups <- cr.c_prof.Profile.r_groups + 1;
        group
      end
    in
    let contributor = Array.map (Expr.run regs) g.g_contributors in
    let contribution = Expr.run regs g.g_arg in
    ignore (Aggregate.contribute group.state ~contributor contribution);
    match g.g_test with
    | Some test ->
      regs.(g.g_result) <- Aggregate.current group.state;
      if Expr.run_bool regs test && not group.emitted then begin
        group.emitted <- true;
        emit_agg_head t cr g out (Keyed.key g.g_keys i) None
      end
    | None -> ()
  in
  run_plan cr.plans.(j.j_plan) ~delta:j.j_delta ~bounds:j.j_bounds
    ~prof:cr.c_prof ctx ~on_binding;
  if g.g_test = None then
    for i = 0 to Keyed.length g.g_keys - 1 do
      emit_agg_head t cr g out (Keyed.key g.g_keys i)
        (Some (Aggregate.current g.g_groups.(i).state))
    done

let eval_job t j =
  match j.j_cr.agg with
  | Some _ -> eval_agg_rule t j
  | None ->
    let cr = j.j_cr in
    let ctx = new_ctx cr in
    run_plan cr.plans.(j.j_plan) ~delta:j.j_delta ~bounds:j.j_bounds
      ~prof:cr.c_prof ctx
      ~on_binding:(fun () -> emit_plain t cr ctx)

(* Every rule evaluation goes through here: the profiler's per-rule self
   time and evaluation count come from this wrapper (plus the optional
   telemetry span when the global registry is armed). Rule evaluations
   never nest, so the measured wall time is pure self time. *)
let eval_timed cr f =
  let p = cr.c_prof in
  p.Profile.r_evals <- p.Profile.r_evals + 1;
  let t0 = Profile.now () in
  Fun.protect
    ~finally:(fun () -> p.Profile.r_time <- p.Profile.r_time +. (Profile.now () -. t0))
    (fun () -> Telemetry.span cr.c_span f)

(* The rule evaluations of one fixpoint iteration, in order — plain and
   aggregate-test rules alike, computed once, so the sequential and the
   parallel evaluator run the same plans (and count the same profiler
   events).

   Plan [k] of a rule reads the delta of its positive atom [k]. For a
   rule none of whose body predicates is a head the stratum iterates
   on, the body does not change while the stratum iterates, and plan
   [k] reads every earlier atom [j < k] only below that atom's
   watermark — classic semi-naive evaluation. A binding whose atoms
   [j < k] are not all old was already enumerated by plan [j] for the
   smallest such [j] (earlier in this very iteration), so this skips
   exactly the repeats and changes no output; a plan with an earlier
   atom that has no old facts yet is skipped outright. Other rules keep
   reading every atom in full: their inner scans must see facts emitted
   during the iteration. A binding they enumerate twice emits a
   duplicate (plain rule) or re-contributes what its contributor
   already gave (aggregate test), which changes nothing. *)
let plan_jobs ~iteration ~watermark ~snap ~recursive rules =
  List.concat_map
    (fun cr ->
      let n = Array.length cr.atom_preds in
      if n = 0 then if iteration = 1 then [ full_job cr ] else []
      else
        let fixed_body =
          not (List.exists (fun p -> List.mem p recursive) cr.c_preds)
        in
        List.filter_map
          (fun k ->
            let pred = cr.atom_preds.(k) in
            let lo = watermark pred and hi = snap pred in
            let bounds =
              if fixed_body then
                Array.init n (fun j ->
                    if j < k then watermark cr.atom_preds.(j) else max_int)
              else cr.unbounded
            in
            if lo >= hi || Array.exists (( = ) 0) bounds then None
            else begin
              Telemetry.observe "engine.iteration.delta" (float_of_int (hi - lo));
              Some
                { j_cr = cr; j_plan = k; j_delta = Some (lo, hi); j_bounds = bounds }
            end)
          (List.init n Fun.id))
    rules

(* ---- parallel evaluation ---------------------------------------------- *)

(* Parallel evaluation of a plain rule is split into phases so the
   result stays byte-identical to sequential evaluation (the full
   design and correctness argument live in docs/PARALLELISM.md):

   - phase 1 (parallel, read-only): the delta range is cut into
     contiguous chunks sized by the rule's cost model; each worker runs
     the join plan over its chunk against the frozen database, capturing
     per binding the [c_capture] slots and the matched parents. Nothing
     is written to the database, the Skolem memo, or the shared
     profiler.
   - phase 2 (single-threaded merge): the coordinator replays the
     captured bindings in job order, then chunk order, then binding
     order — exactly the order sequential evaluation would have emitted
     them — through [emit_plain], the sequential path's own emitter, so
     head evaluation and skolemization stay sequential and
     deterministic. Insertion order, labelled null names, dedup
     outcomes and provenance are therefore identical to a sequential
     run.

   A (rule, plan) job is eligible only when it is {e snapshot-safe}:
   its head predicates do not intersect the predicates the plan reads
   outside its delta atom ([c_plan_reads]), because sequential
   evaluation lets a rule's inner scans see its own emissions live.
   Consecutive eligible jobs are batched greedily while no job reads a
   predicate an earlier job of the batch writes; aggregate rules and
   zero-atom rules always evaluate sequentially, as do batches whose
   estimated total work is below [min_parallel_scans]. *)

(* Cost-model feedback: observed scanned-facts-per-delta-fact of a
   completed evaluation, folded into the rule's EWMA with equal weight
   so the estimate tracks phase changes (an index appearing, a
   predicate saturating) within a couple of iterations. *)
let spd_update cr ~plan ~delta ~scanned =
  if delta > 0 then begin
    let observed = float_of_int scanned /. float_of_int delta in
    cr.c_spd.(plan) <- (0.5 *. cr.c_spd.(plan)) +. (0.5 *. observed)
  end

let delta_size j = match j.j_delta with Some (lo, hi) -> hi - lo | None -> 0

let job_est_scans j = float_of_int (delta_size j) *. j.j_cr.c_spd.(j.j_plan)

(* Per-worker budget poll (every 4096 scanned facts, via [run_plan]'s
   [poll] hook). The partial-progress snapshot reads only coordinator
   counters, which are frozen during phase 1, so concurrent workers
   raise identical interrupts. *)
let worker_poll t budget () =
  match budget with
  | None -> ()
  | Some b -> (
    match Budget.check b ~facts:t.s_derived with
    | None -> ()
    | Some reason ->
      raise
        (Interrupted
           {
             reason;
             stratum = t.s_stratum;
             iteration = t.s_iteration;
             facts_derived = t.s_derived;
           }))

(* Cut [lo, hi) into contiguous chunks sized by estimated join work:
   enough chunks that each carries ~[target_chunk_scans] scanned facts
   under the rule's cost model, floored at [min_chunk_facts] facts and
   capped at [domains * 4] chunks for load balancing. Chunk boundaries
   affect only scheduling — the merge replays chunks in range order, so
   any cut of the same delta yields byte-identical results. *)
let adaptive_chunks ~domains ~spd lo hi =
  let size = hi - lo in
  let by_cost =
    int_of_float
      (Float.ceil (float_of_int size *. spd /. float_of_int target_chunk_scans))
  in
  let by_floor = (size + min_chunk_facts - 1) / min_chunk_facts in
  let n = max 1 (min (min by_cost by_floor) (domains * 4)) in
  let base = size / n and rem = size mod n in
  List.init n (fun i ->
      let start = lo + (i * base) + min i rem in
      (start, start + base + if i < rem then 1 else 0))

let parallel_safe cr k =
  cr.agg = None
  && not (List.exists (fun p -> List.mem p cr.c_heads) cr.c_plan_reads.(k))

(* Phase 1 of one chunk, on a worker domain: the chunk's profiler
   counters, its captured bindings (reverse order) and its join time. *)
let run_chunk t ~budget j lo hi =
  Faultpoint.hit "engine.chunk";
  worker_poll t budget ();
  let t0 = Profile.now () in
  let cr = j.j_cr in
  let ctx = new_ctx cr in
  let prof = chunk_prof () in
  let emits = ref [] in
  run_plan cr.plans.(j.j_plan) ~delta:(Some (lo, hi)) ~bounds:j.j_bounds ~prof
    ~poll:(worker_poll t budget) ctx
    ~on_binding:(fun () ->
      emits :=
        {
          e_vals = Array.map (fun s -> ctx.regs.(s)) cr.c_capture;
          e_parents = ctx.parents;
        }
        :: !emits);
  let elapsed = Profile.now () -. t0 in
  (* Recorded on the worker domain into its registry shard. *)
  Telemetry.observe "engine.chunk.size" (float_of_int (hi - lo));
  Telemetry.observe "engine.chunk.scanned" (float_of_int prof.Profile.r_scanned);
  Telemetry.observe "engine.chunk.join" elapsed;
  (prof, !emits, elapsed)

(* Phase 2 for one chunk: fold the worker's counters into the rule's
   and replay its bindings in order. *)
let merge_chunk t j lo hi (wp, emits, elapsed) =
  let cr = j.j_cr in
  let p = cr.c_prof in
  p.Profile.r_time <- p.Profile.r_time +. elapsed;
  p.Profile.r_scanned <- p.Profile.r_scanned + wp.Profile.r_scanned;
  p.Profile.r_matched <- p.Profile.r_matched + wp.Profile.r_matched;
  p.Profile.r_bindings <- p.Profile.r_bindings + wp.Profile.r_bindings;
  spd_update cr ~plan:j.j_plan ~delta:(hi - lo) ~scanned:wp.Profile.r_scanned;
  let ctx = new_ctx cr in
  List.iter
    (fun e ->
      Array.iteri (fun i s -> ctx.regs.(s) <- e.e_vals.(i)) cr.c_capture;
      ctx.parents <- e.e_parents;
      emit_plain t cr ctx)
    (List.rev emits)

let run_parallel_batch t pool ~budget jobs =
  (* One evaluation per job, accounted up front so [r_evals] matches the
     sequential count deterministically. *)
  List.iter
    (fun j ->
      let p = j.j_cr.c_prof in
      p.Profile.r_evals <- p.Profile.r_evals + 1)
    jobs;
  let domains = Task_pool.domains pool in
  let chunks =
    List.concat_map
      (fun j ->
        let lo, hi = Option.get j.j_delta in
        List.map
          (fun (lo, hi) -> (j, lo, hi))
          (adaptive_chunks ~domains ~spd:j.j_cr.c_spd.(j.j_plan) lo hi))
      jobs
    |> Array.of_list
  in
  let results =
    Task_pool.run_all pool
      (Array.map (fun (j, lo, hi) () -> run_chunk t ~budget j lo hi) chunks)
  in
  (* Fail before any merge: a worker error (typed fault, budget
     interrupt) leaves the database untouched by this batch, and the
     first task in submission order wins deterministically. *)
  Array.iter (function Error e -> raise e | Ok _ -> ()) results;
  (* The serial tail that caps parallel speedup gets its own span and
     histogram. *)
  Telemetry.span "engine.merge" (fun () ->
      let t0 = Profile.now () in
      Array.iteri
        (fun i (j, lo, hi) ->
          match results.(i) with
          | Error _ -> assert false
          | Ok chunk -> merge_chunk t j lo hi chunk)
        chunks;
      Telemetry.observe "engine.merge.replay" (Profile.now () -. t0))

(* The parallel counterpart of the sequential pass of
   [run_stratum]: walk the same jobs in the same order, batching
   consecutive snapshot-safe jobs and flushing a batch whenever the next
   job must observe its predecessors' emissions. *)
let run_jobs_parallel t pool ~budget jobs =
  let seq_eval j =
    let cr = j.j_cr in
    let scanned_before = cr.c_prof.Profile.r_scanned in
    eval_timed cr (fun () -> eval_job t j);
    (* Sequential evaluations feed the cost model too, so a rule that
       never parallelizes still has a current estimate when its delta
       finally grows. *)
    spd_update cr ~plan:j.j_plan ~delta:(delta_size j)
      ~scanned:(cr.c_prof.Profile.r_scanned - scanned_before)
  in
  let batch = ref [] (* reversed *) in
  let batch_heads = ref [] in
  let flush () =
    let jobs = List.rev !batch in
    batch := [];
    batch_heads := [];
    (* Estimated total join work decides whether the batch is worth the
       fork-join + capture/replay machinery at all: tiny batches (the
       long tail of most fixpoints) run sequentially and dodge the
       constant factors entirely. *)
    let est = List.fold_left (fun acc j -> acc +. job_est_scans j) 0.0 jobs in
    if est < float_of_int min_parallel_scans then List.iter seq_eval jobs
    else run_parallel_batch t pool ~budget jobs
  in
  List.iter
    (fun j ->
      let cr = j.j_cr in
      if j.j_delta <> None && parallel_safe cr j.j_plan then begin
        if
          List.exists (fun p -> List.mem p !batch_heads) cr.c_plan_reads.(j.j_plan)
        then flush ();
        batch := j :: !batch;
        batch_heads := cr.c_heads @ !batch_heads
      end
      else begin
        flush ();
        seq_eval j
      end)
    jobs;
  flush ()

let is_bind_rule cr =
  match cr.agg with Some { g_test = None; _ } -> true | _ -> false

let run_stratum ?budget t index rules =
  t.s_stratum <- index;
  t.s_iteration <- 0;
  t.s_strata_run <- t.s_strata_run + 1;
  Faultpoint.hit "engine.stratum";
  check_budget t budget;
  let facts_at_entry = Database.total t.db in
  let duplicates_at_entry = t.s_duplicates in
  let compiled = List.map (fun r -> Hashtbl.find t.compiled r.Rule.id) rules in
  List.iter (fun cr -> cr.c_prof.Profile.r_stratum <- index) compiled;
  let bind_rules, fixpoint_rules = List.partition is_bind_rule compiled in
  let iteration = ref 0 in
  let stratum_start = Profile.now () in
  Fun.protect ~finally:(fun () ->
      Profile.stratum_add t.prof index
        ~time:(Profile.now () -. stratum_start)
        ~iterations:!iteration)
  @@ fun () ->
  (* Aggregate-binding rules: inputs are saturated, evaluate once. *)
  List.iter
    (fun cr -> eval_timed cr (fun () -> eval_agg_rule t (full_job cr)))
    bind_rules;
  (* Heads the fixpoint derives: a rule reading none of them sees a
     fixed body while the stratum iterates (see [plan_jobs]). *)
  let recursive = List.concat_map (fun cr -> cr.c_heads) fixpoint_rules in
  (* Fixpoint for the rest. *)
  let seen = Hashtbl.create 16 in
  let watermark pred =
    match Hashtbl.find_opt seen pred with Some w -> w | None -> 0
  in
  let continue = ref (fixpoint_rules <> []) in
  while !continue do
    incr iteration;
    t.s_iteration <- !iteration;
    t.s_iterations <- t.s_iterations + 1;
    Faultpoint.hit "engine.iterate";
    check_budget t budget;
    if !iteration > t.config.max_iterations then
      raise
        (Limit
           (limit_message t
              (Printf.sprintf "iteration limit exceeded (%d)"
                 t.config.max_iterations)));
    let derived_before = t.s_derived in
    let duplicates_before = t.s_duplicates in
    let before = Database.total t.db in
    (* Snapshot the frontier: facts in [watermark, snapshot) are the delta. *)
    let snapshot = Hashtbl.create 16 in
    let preds_of cr = cr.c_preds in
    Telemetry.span "engine.snapshot" (fun () ->
        List.iter
          (fun cr ->
            List.iter
              (fun p ->
                if not (Hashtbl.mem snapshot p) then
                  Hashtbl.add snapshot p (Database.pred_size t.db p))
              (preds_of cr))
          fixpoint_rules);
    let snap pred =
      match Hashtbl.find_opt snapshot pred with Some s -> s | None -> 0
    in
    let jobs =
      plan_jobs ~iteration:!iteration ~watermark ~snap ~recursive fixpoint_rules
    in
    (match t.pool with
    | Some pool -> run_jobs_parallel t pool ~budget jobs
    | None ->
      List.iter (fun j -> eval_timed j.j_cr (fun () -> eval_job t j)) jobs);
    Hashtbl.iter (fun pred s -> Hashtbl.replace seen pred s) snapshot;
    Telemetry.observe "engine.iteration.derived"
      (float_of_int (t.s_derived - derived_before));
    Telemetry.observe "engine.iteration.duplicates"
      (float_of_int (t.s_duplicates - duplicates_before));
    let after = Database.total t.db in
    (* Stop when this pass derived nothing new and every delta was consumed:
       any fact born during the pass is above the stored watermark and will
       be someone's delta next pass. *)
    let frontier_pending =
      List.exists
        (fun cr ->
          List.exists
            (fun p -> watermark p < Database.pred_size t.db p)
            (preds_of cr))
        fixpoint_rules
    in
    continue := after > before || frontier_pending
  done;
  Log.debug (fun m ->
      m "stratum %d: %d rules, fixpoint in %d iterations, %d facts (+%d new, %d duplicates suppressed)"
        index (List.length rules) !iteration (Database.total t.db)
        (Database.total t.db - facts_at_entry)
        (t.s_duplicates - duplicates_at_entry))

let rule_derivations t =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ cr ->
      let label = cr.rule.Rule.label in
      let cur = try Hashtbl.find acc label with Not_found -> (0, 0) in
      Hashtbl.replace acc label
        ( fst cur + cr.c_prof.Profile.r_derived,
          snd cur + cr.c_prof.Profile.r_duplicates ))
    t.compiled;
  Hashtbl.fold (fun label (d, _) acc -> (label, d) :: acc) acc []
  |> List.sort (fun (la, a) (lb, b) ->
         match compare b a with 0 -> String.compare la lb | c -> c)

let pred_derivations t =
  Hashtbl.fold (fun p r acc -> (p, !r) :: acc) t.pred_derived []
  |> List.sort (fun (pa, a) (pb, b) ->
         match compare b a with 0 -> String.compare pa pb | c -> c)

let stats t =
  {
    strata_run = t.s_strata_run;
    iterations = t.s_iterations;
    facts_derived = t.s_derived;
    duplicates_suppressed = t.s_duplicates;
    agg_groups_created = t.s_agg_groups;
    nulls_created = Ids.count t.ids;
  }

(* Mirror the always-on chase statistics into the global telemetry
   registry. Counters are {e set} to their absolute values, so re-running
   an engine (or several engines in one process) never double-counts its
   own totals — the last run's numbers win per counter name. Only names
   fixed by the engine: a rule label or predicate comes from the program
   text, so mirroring those would give a long-running process one
   permanent series per client program ({!publish_rule_counters}). *)
let set_counter name v = Telemetry.Counter.set (Telemetry.Counter.v name) v

let publish_telemetry t =
  if Telemetry.enabled () then begin
    set_counter "engine.facts.derived" t.s_derived;
    set_counter "engine.facts.duplicate" t.s_duplicates;
    set_counter "engine.facts.total" (Database.total t.db);
    set_counter "engine.nulls.created" (Ids.count t.ids);
    set_counter "engine.agg.groups" t.s_agg_groups;
    set_counter "engine.iterations" t.s_iterations;
    set_counter "engine.strata" (Array.length t.strat.Stratify.strata);
    set_counter "engine.provenance.nodes" t.s_derived
  end

let publish_rule_counters t =
  if Telemetry.enabled () then begin
    let by_label = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ cr ->
        let cur =
          try Hashtbl.find by_label cr.c_span with Not_found -> (0, 0)
        in
        Hashtbl.replace by_label cr.c_span
          ( fst cur + cr.c_prof.Profile.r_derived,
            snd cur + cr.c_prof.Profile.r_duplicates ))
      t.compiled;
    Hashtbl.iter
      (fun name (d, dup) ->
        set_counter (name ^ ".derived") d;
        set_counter (name ^ ".duplicates") dup)
      by_label;
    Hashtbl.iter
      (fun pred r -> set_counter ("engine.pred." ^ pred ^ ".derived") !r)
      t.pred_derived
  end

let run ?budget t =
  let t0 = Profile.now () in
  Fun.protect
    ~finally:(fun () ->
      Profile.add_run_time t.prof (Profile.now () -. t0);
      (* publish whatever was derived even when the run is interrupted:
         degraded reports are built from these partial counters *)
      publish_telemetry t)
    (fun () ->
      Telemetry.span "engine.run" (fun () ->
          Array.iteri
            (fun i rules ->
              Telemetry.span ("engine.stratum." ^ string_of_int i) (fun () ->
                  run_stratum ?budget t i rules))
            t.strat.Stratify.strata))

let null_origin t label = Hashtbl.find_opt t.null_origins label

let profile t = t.prof

let profile_report t = Profile.report t.prof

let facts t pred = Database.facts t.db pred

let database t = t.db

let explain ?max_depth t pred args = Provenance.explain ?max_depth t.db pred args

let nulls_created t = Ids.count t.ids
