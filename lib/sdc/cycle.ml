module Value = Vadasa_base.Value
module Ids = Vadasa_base.Ids
module Budget = Vadasa_base.Budget
module Relational = Vadasa_relational
module Telemetry = Vadasa_telemetry.Telemetry
module Faultpoint = Vadasa_resilience.Faultpoint

let log_src = Logs.Src.create "vadasa.cycle" ~doc:"anonymization cycle"

module Log = (val Logs.src_log log_src : Logs.LOG)

type anonymization_method =
  | Local_suppression
  | Global_recoding of Hierarchy.t
  | Recode_then_suppress of Hierarchy.t

type action_kind =
  | Suppressed of Value.t
  | Recoded of Value.t * Value.t

type action = {
  round : int;
  tuple : int;
  attr : string;
  kind : action_kind;
  risk_before : float;
  freq_before : int;
}

type config = {
  measure : Risk.measure;
  threshold : float;
  semantics : Relational.Null_semantics.t;
  tuple_order : Heuristics.tuple_order;
  qi_choice : Heuristics.qi_choice;
  method_ : anonymization_method;
  max_rounds : int;
  per_round_limit : int option;
  share_nulls : bool;
  risk_transform : (Microdata.t -> float array -> float array) option;
}

let default_config =
  {
    measure = Risk.K_anonymity { k = 2 };
    threshold = 0.5;
    semantics = Relational.Null_semantics.Maybe_match;
    tuple_order = Heuristics.Less_significant_first;
    qi_choice = Heuristics.Most_risky_qi;
    method_ = Local_suppression;
    max_rounds = 100;
    per_round_limit = None;
    share_nulls = true;
    risk_transform = None;
  }

type outcome = {
  anonymized : Microdata.t;
  rounds : int;
  nulls_injected : int;
  recoded_cells : int;
  risky_initial : int;
  unresolved : int list;
  info_loss : float;
  trace : action list;
  converged : bool;
  interrupted : Budget.reason option;
}

(* Attributes of [tuple] on which the configured method can still act. *)
let candidates config md ~tuple =
  let non_null = Suppression.suppressible md ~tuple in
  match config.method_ with
  | Local_suppression | Recode_then_suppress _ -> non_null
  | Global_recoding hierarchy ->
    let rel = Microdata.relation md in
    let schema = Microdata.schema md in
    List.filter
      (fun attr ->
        let pos = Relational.Schema.index_of schema attr in
        let v = Relational.Tuple.get (Relational.Relation.get rel tuple) pos in
        Hierarchy.parent hierarchy v <> None)
      non_null

(* The configured method's move on [tuple]'s [attr]. A recoding lands at
   once; a suppression is only decided here, and the executor applies the
   round's suppressions when the round ends. Deferring them changes no
   decision: a round's decisions read only the deciding tuple's own row,
   and a recoding rewrites only cells whose value has a parent, which a
   cell left for suppression (its recoding failed) never holds. *)
let act config md ~tuple ~attr =
  let suppression () =
    let pos = Relational.Schema.index_of (Microdata.schema md) attr in
    let old =
      Relational.Tuple.get (Relational.Relation.get (Microdata.relation md) tuple) pos
    in
    if Value.is_null old then None else Some (Suppressed old)
  in
  let recoding hierarchy =
    Option.map
      (fun step -> Recoded (step.Recoding.from_value, step.Recoding.to_value))
      (Recoding.recode_tuple hierarchy md ~tuple ~attr)
  in
  match config.method_ with
  | Local_suppression -> suppression ()
  | Global_recoding hierarchy -> recoding hierarchy
  | Recode_then_suppress hierarchy ->
    (match recoding hierarchy with
    | Some kind -> Some kind
    | None -> suppression ())

type executor = {
  risk : config -> Microdata.t -> Risk.report;
  suppress : Ids.t -> Microdata.t -> (int * string) list -> unit;
}

let native =
  {
    risk =
      (fun config md -> Risk.estimate ~semantics:config.semantics config.measure md);
    suppress =
      (fun ids md directives ->
        List.iter
          (fun (tuple, attr) -> ignore (Suppression.suppress ids md ~tuple ~attr))
          directives);
  }

(* Within-round bookkeeping of this round's suppressions, so one labelled
   null can rescue several pending tuples (the paper's "wider risk
   reduction effect", Figure 7b). Each suppression event is recorded as the
   suppressed tuple's projection once its attribute is nulled (the label is
   irrelevant): null-position mask plus the values at its constant
   positions. A pending tuple gains one maybe-match per
   recorded event agreeing with it on the event's constant positions. The
   gain is an over-approximation (it may recount tuples that already
   matched), which is safe: a skipped tuple is re-examined by the next
   round's exact risk evaluation. *)
module Round_gains = struct
  type t = {
    qi : int array;
    tables : (int, int Value.Array_tbl.t) Hashtbl.t;  (* mask -> constants -> count *)
  }

  let create qi = { qi; tables = Hashtbl.create 8 }

  let projection md tuple qi =
    Relational.Tuple.project
      (Relational.Relation.get (Microdata.relation md) tuple)
      qi

  let constant_positions proj =
    let acc = ref [] in
    for p = Array.length proj - 1 downto 0 do
      if not (Value.is_null proj.(p)) then acc := p :: !acc
    done;
    Array.of_list !acc

  let suppressed = Value.null 0

  let record t md ~tuple ~attr =
    let pos = Relational.Schema.index_of (Microdata.schema md) attr in
    let proj = projection md tuple t.qi in
    Array.iteri (fun j p -> if p = pos then proj.(j) <- suppressed) t.qi;
    let mask = Relational.Tuple.null_mask proj in
    let positions = constant_positions proj in
    let key = Relational.Tuple.project proj positions in
    let table =
      match Hashtbl.find_opt t.tables mask with
      | Some table -> table
      | None ->
        let table = Value.Array_tbl.create 64 in
        Hashtbl.add t.tables mask table;
        table
    in
    let current = try Value.Array_tbl.find table key with Not_found -> 0 in
    Value.Array_tbl.replace table key (current + 1)

  let gained t md ~tuple =
    let proj = projection md tuple t.qi in
    Hashtbl.fold
      (fun mask table acc ->
        let positions =
          let keep = ref [] in
          for p = Array.length proj - 1 downto 0 do
            if mask land (1 lsl p) = 0 then keep := p :: !keep
          done;
          Array.of_list !keep
        in
        (* Conservative: only count events whose constant positions are all
           constant in the pending tuple too. *)
        if Array.exists (fun p -> Value.is_null proj.(p)) positions then acc
        else
          let key = Relational.Tuple.project proj positions in
          acc + (try Value.Array_tbl.find table key with Not_found -> 0))
      t.tables 0
end

let run_body ?(config = default_config) ?(executor = native) ?audit ?budget input =
  let md = Microdata.copy input in
  let ids = Ids.create () in
  let trace = ref [] in
  let recoded_cells = ref 0 in
  let risky_initial = ref (-1) in
  let unresolved = ref [] in
  let converged = ref false in
  let interrupted = ref None in
  let round = ref 0 in
  let continue = ref true in
  let qi_count = Array.length (Microdata.qi_positions md) in
  let estimate = executor.risk config in
  (* Figure 7b's loss metric as of now — pure arithmetic on the running
     counters, cheap enough to evaluate per audit event. *)
  let info_loss_now () =
    Info_loss.suppression_loss ~nulls_injected:(Ids.count ids)
      ~risky_tuples:(max 0 !risky_initial) ~qi_count
  in
  let risk_stats risk =
    let max_r = ref 0.0 and sum = ref 0.0 in
    Array.iter
      (fun r ->
        if r > !max_r then max_r := r;
        sum := !sum +. r)
      risk;
    let n = Array.length risk in
    (!max_r, if n = 0 then 0.0 else !sum /. float_of_int n)
  in
  (* The budget is polled at round boundaries: every completed round
     leaves the working copy strictly safer than the round before, so
     stopping between rounds yields a usable (if unfinished) DB. *)
  let budget_exhausted () =
    match budget with
    | None -> false
    | Some b -> (
      match Budget.check b ~facts:(Ids.count ids) with
      | None -> false
      | Some reason ->
        interrupted := Some reason;
        Log.debug (fun m ->
            m "cycle interrupted (%s) after round %d"
              (Budget.reason_to_string reason)
              !round);
        true)
  in
  while !continue && !round < config.max_rounds && not (budget_exhausted ()) do
    incr round;
    Faultpoint.hit "cycle.round";
    Telemetry.count "sdc.cycle.rounds" 1;
    let report =
      Telemetry.span "sdc.cycle.risk" (fun () -> estimate md)
    in
    let risk =
      match config.risk_transform with
      | Some f -> f md report.Risk.risk
      | None -> report.Risk.risk
    in
    let risky =
      let acc = ref [] in
      Array.iteri (fun i r -> if r > config.threshold then acc := i :: !acc) risk;
      List.rev !acc
    in
    if !risky_initial < 0 then risky_initial := List.length risky;
    (match audit with
    | Some recorder ->
      let max_risk, mean_risk = risk_stats risk in
      Audit.begin_round recorder ~round:!round ~risky:(List.length risky)
        ~max_risk ~mean_risk ~info_loss:(info_loss_now ())
    | None -> ());
    Telemetry.observe "sdc.cycle.risky_per_round"
      (float_of_int (List.length risky));
    Log.debug (fun m ->
        m "round %d: %d risky tuples under %s (T=%.2f)" !round
          (List.length risky)
          (Risk.measure_to_string config.measure)
          config.threshold);
    if risky = [] then begin
      converged := true;
      continue := false;
      match audit with
      | Some recorder ->
        Audit.end_round recorder ~suppressed:0 ~recoded:0 ~blocked:0 ~skipped:0
          ~info_loss:(info_loss_now ())
      | None -> ()
    end
    else begin
      let ordered = Heuristics.order_tuples config.tuple_order md ~risk risky in
      let ordered =
        match config.per_round_limit with
        | Some limit -> List.filteri (fun i _ -> i < limit) ordered
        | None -> ordered
      in
      let cache = Heuristics.build_cache md in
      let progressed = ref false in
      let blocked = ref [] in
      let round_suppressed = ref 0 in
      let round_recoded = ref 0 in
      let round_skipped = ref 0 in
      (* Under maybe-match semantics with k-anonymity, a suppression made
         earlier in this round may already have rescued a pending tuple:
         skip it when its frequency plus the maybe-matches gained so far
         reaches k (it is re-checked exactly next round). *)
      let gains =
        match config.semantics with
        | Relational.Null_semantics.Maybe_match when config.share_nulls ->
          Some (Round_gains.create (Microdata.qi_positions md))
        | Relational.Null_semantics.Maybe_match
        | Relational.Null_semantics.Standard ->
          None
      in
      (* The skip only applies when the tuple's own scarcity is what makes
         it risky; a tuple flagged through a risk transform (Algorithm 9's
         cluster propagation) while its own frequency is fine must be
         anonymized now — its risk comes from elsewhere. *)
      let satisfied_by_gains tuple =
        match gains, config.measure with
        | Some g, Risk.K_anonymity { k } ->
          report.Risk.freq.(tuple) < k
          && report.Risk.freq.(tuple) + Round_gains.gained g md ~tuple >= k
        | Some g, Risk.Re_identification ->
          let base = report.Risk.weight_sum.(tuple) in
          let scarcity_bound = base <= 1.0 || 1.0 /. base > config.threshold in
          scarcity_bound
          &&
          (* Gained matches contribute at least weight 1 each. *)
          let w =
            base +. float_of_int (Round_gains.gained g md ~tuple)
          in
          w > 1.0 && 1.0 /. w <= config.threshold
        | Some _, (Risk.Individual _ | Risk.Suda _ | Risk.Custom _)
        | None, _ ->
          false
      in
      let pending = ref [] in  (* this round's suppressions, newest first *)
      Telemetry.span "sdc.cycle.actions" (fun () ->
          List.iter
            (fun tuple ->
              if satisfied_by_gains tuple then incr round_skipped
              else
                let cands = candidates config md ~tuple in
                match Heuristics.choose_qi config.qi_choice cache md ~tuple ~candidates:cands with
                | None -> blocked := tuple :: !blocked
                | Some attr ->
                  (match act config md ~tuple ~attr with
                  | None -> blocked := tuple :: !blocked
                  | Some kind ->
                    (match kind with
                    | Recoded _ ->
                      incr recoded_cells;
                      incr round_recoded;
                      Telemetry.count "sdc.cycle.recodings" 1
                    | Suppressed _ ->
                      pending := (tuple, attr) :: !pending;
                      incr round_suppressed;
                      Telemetry.count "sdc.cycle.suppressions" 1;
                      Option.iter (fun g -> Round_gains.record g md ~tuple ~attr) gains);
                    progressed := true;
                    trace :=
                      {
                        round = !round;
                        tuple;
                        attr;
                        kind;
                        risk_before = risk.(tuple);
                        freq_before = report.Risk.freq.(tuple);
                      }
                      :: !trace))
            ordered;
          executor.suppress ids md (List.rev !pending));
      Telemetry.count "sdc.cycle.blocked" (List.length !blocked);
      (match audit with
      | Some recorder ->
        Audit.end_round recorder ~suppressed:!round_suppressed
          ~recoded:!round_recoded
          ~blocked:(List.length !blocked)
          ~skipped:!round_skipped
          ~info_loss:(info_loss_now ())
      | None -> ());
      Log.debug (fun m ->
          m "round %d: %d actions, %d blocked" !round
            (List.length !trace) (List.length !blocked));
      if not !progressed then begin
        (* No move left for any risky tuple: report them and stop. *)
        unresolved := List.rev !blocked;
        continue := false
      end
    end
  done;
  (match audit with
  | Some recorder -> Audit.finish recorder
  | None -> ());
  let outcome =
    {
      anonymized = md;
      rounds = !round;
      nulls_injected = Ids.count ids;
      recoded_cells = !recoded_cells;
      risky_initial = max 0 !risky_initial;
      unresolved = !unresolved;
      info_loss =
        Info_loss.suppression_loss ~nulls_injected:(Ids.count ids)
          ~risky_tuples:(max 0 !risky_initial) ~qi_count;
      trace = List.rev !trace;
      converged = !converged;
      interrupted = !interrupted;
    }
  in
  if Telemetry.enabled () then begin
    Telemetry.gauge "sdc.cycle.nulls_injected" (float_of_int outcome.nulls_injected);
    Telemetry.gauge "sdc.cycle.info_loss" outcome.info_loss;
    Telemetry.gauge "sdc.cycle.unresolved"
      (float_of_int (List.length outcome.unresolved));
    (* The audit trail's telemetry mirror: run-level totals as their own
       sdc.* families (counters sum across runs, histograms distribute
       per-run), whether or not a recorder was attached. *)
    Telemetry.count "sdc.cells_suppressed" outcome.nulls_injected;
    Telemetry.count "sdc.cells_recoded" outcome.recoded_cells;
    Telemetry.observe "sdc.info_loss" outcome.info_loss;
    Telemetry.observe "sdc.iterations" (float_of_int outcome.rounds)
  end;
  outcome

let run ?config ?executor ?audit ?budget input =
  Telemetry.span "sdc.cycle.run" (fun () ->
      run_body ?config ?executor ?audit ?budget input)

let pp_outcome ppf o =
  Format.fprintf ppf
    "anonymization cycle: %d rounds, %s@.  initial risky tuples: %d@.  nulls \
     injected: %d@.  cells recoded: %d@.  information loss: %.3f@.  \
     unresolved: %d@."
    o.rounds
    (match o.interrupted with
    | Some reason -> "interrupted (" ^ Budget.reason_to_string reason ^ ")"
    | None -> if o.converged then "converged" else "stopped")
    o.risky_initial o.nulls_injected o.recoded_cells o.info_loss
    (List.length o.unresolved);
  if List.length o.trace <= 25 then
    List.iter
      (fun a ->
        Format.fprintf ppf "  round %d: tuple %d, %s %s (risk %.3f, freq %d)@."
          a.round a.tuple a.attr
          (match a.kind with
          | Suppressed v -> "suppressed " ^ Value.to_string v
          | Recoded (f, t) ->
            "recoded " ^ Value.to_string f ^ " -> " ^ Value.to_string t)
          a.risk_before a.freq_before)
      o.trace
  else Format.fprintf ppf "  (%d actions)@." (List.length o.trace)
