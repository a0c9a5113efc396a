module Relational = Vadasa_relational
module Stats = Vadasa_stats
module Algebra = Relational.Algebra
module Telemetry = Vadasa_telemetry.Telemetry

type estimator =
  | Naive
  | Benedetti_franconi
  | Monte_carlo of { samples : int; seed : int }

type measure =
  | Re_identification
  | K_anonymity of { k : int }
  | Individual of estimator
  | Suda of { max_msu_size : int; threshold_size : int }
  | Custom of {
      name : string;
      score : freq:int -> weight_sum:float -> float;
    }

type report = {
  measure : measure;
  risk : float array;
  freq : int array;
  weight_sum : float array;
}

let group_stats ?(semantics = Relational.Null_semantics.Maybe_match) md =
  Telemetry.span "sdc.risk.group_stats" (fun () ->
      let rel = Microdata.relation md in
      let qi = Microdata.qi_positions md in
      match Microdata.weight_position md with
      | Some weight -> Algebra.Group_stats.compute ~semantics ~rel ~qi ~weight ()
      | None -> Algebra.Group_stats.compute ~semantics ~rel ~qi ())

let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

(* The per-tuple risk as a function of the tuple's (f, ŵ), for the
   measures that are one; [None] for SUDA (minimal sample uniques are a
   global property) and custom measures (caller-supplied closures may
   carry state). *)
let scorer = function
  | Re_identification ->
    Some
      (fun ~freq:_ ~weight_sum:w ->
        if w <= 1.0 then 1.0 else clamp01 (1.0 /. w))
  | K_anonymity { k } ->
    Some (fun ~freq:f ~weight_sum:_ -> if f < k then 1.0 else 0.0)
  | Individual Naive ->
    Some (fun ~freq ~weight_sum -> Stats.Estimator.naive ~freq ~weight_sum)
  | Individual Benedetti_franconi ->
    Some
      (fun ~freq ~weight_sum ->
        Stats.Estimator.benedetti_franconi ~freq ~weight_sum)
  | Individual (Monte_carlo { samples; seed }) ->
    Some
      (fun ~freq ~weight_sum ->
        Stats.Estimator.monte_carlo ~seed ~samples ~freq ~weight_sum)
  | Suda _ | Custom _ -> None

let estimate_body ?semantics measure md =
  let stats = group_stats ?semantics md in
  let freq = stats.Algebra.Group_stats.freq in
  let weight_sum = stats.Algebra.Group_stats.weight_sum in
  let per_tuple score =
    Array.mapi (fun i f -> score ~freq:f ~weight_sum:weight_sum.(i)) freq
  in
  let risk =
    match measure with
    | Suda { max_msu_size; threshold_size } ->
      Risk_suda.estimate ~max_msu_size ~threshold_size md
    | Custom { score; _ } ->
      per_tuple (fun ~freq ~weight_sum -> clamp01 (score ~freq ~weight_sum))
    | Individual (Monte_carlo _) ->
      (* Sampling dominates, and its result is a function of (f, ŵ): each
         distinct pair is sampled once and its tuples share the result. *)
      let score = Option.get (scorer measure) in
      let memo = Hashtbl.create 64 in
      let risk =
        per_tuple (fun ~freq ~weight_sum ->
            let key = (freq, Int64.bits_of_float weight_sum) in
            match Hashtbl.find_opt memo key with
            | Some r -> r
            | None ->
              let r = score ~freq ~weight_sum in
              Hashtbl.add memo key r;
              r)
      in
      if Telemetry.enabled () then Telemetry.count "sdc.risk.mc_keys" (Hashtbl.length memo);
      risk
    | Re_identification | K_anonymity _ | Individual (Naive | Benedetti_franconi) ->
      per_tuple (Option.get (scorer measure))
  in
  { measure; risk; freq; weight_sum }

let estimate ?semantics measure md =
  Telemetry.span "sdc.risk.estimate" (fun () ->
      let report = estimate_body ?semantics measure md in
      if Telemetry.enabled () then begin
        Telemetry.count "sdc.risk.estimates" 1;
        Telemetry.gauge "sdc.risk.global"
          (Array.fold_left ( +. ) 0.0 report.risk);
        Telemetry.observe "sdc.risk.tuples"
          (float_of_int (Array.length report.risk))
      end;
      report)

let risky report ~threshold =
  let out = ref [] in
  Array.iteri
    (fun i r -> if r > threshold then out := i :: !out)
    report.risk;
  List.rev !out

(* A loop rather than [Array.fold_left], which boxes every partial sum;
   same order of additions, same bits. *)
let global_risk report =
  let sum = ref 0.0 in
  for i = 0 to Array.length report.risk - 1 do
    sum := !sum +. report.risk.(i)
  done;
  !sum

let measure_to_string = function
  | Re_identification -> "re-identification"
  | K_anonymity { k } -> Printf.sprintf "k-anonymity (k=%d)" k
  | Individual Naive -> "individual risk (naive f/w)"
  | Individual Benedetti_franconi -> "individual risk (Benedetti-Franconi)"
  | Individual (Monte_carlo { samples; _ }) ->
    Printf.sprintf "individual risk (Monte Carlo, %d samples)" samples
  | Suda { max_msu_size; threshold_size } ->
    Printf.sprintf "SUDA (MSU size <= %d, threshold %d)" max_msu_size
      threshold_size
  | Custom { name; _ } -> Printf.sprintf "custom (%s)" name

(* ---- incremental re-scoring ------------------------------------------- *)

(* Delta-aware risk maintenance for the dataset registry's append path.

   The per-tuple risk of every measure above is a pure function of the
   tuple's combination statistics (freq, weight sum), and appending rows
   only changes the statistics of the combinations those rows land in —
   so after an append, only the members of touched combinations need
   re-scoring. The maintained buckets mirror [Group_stats]'s exact
   (standard-semantics) grouping, accumulating each group's weight sum
   in row order, so the rebuilt arrays are float-bit-identical to a full
   [estimate] over the grown relation.

   Where that equivalence breaks, [append] falls back to a full
   re-estimate (the outcome says so):
   - maybe-match semantics with labelled nulls in some quasi-identifier
     projection — groups then overlap and an appended null-bearing row
     can touch every compatible combination (without nulls, maybe-match
     grouping degenerates to the exact grouping, so maintenance stays
     valid under the default semantics);
   - SUDA (minimal sample uniques are a global property) and custom
     measures (caller-supplied closures may carry state). Monte Carlo
     patches group-locally: its draws are keyed by (seed, f, ŵ). *)
module Incremental = struct
  module Value = Vadasa_base.Value
  module Relation = Relational.Relation
  module Tuple = Relational.Tuple

  type fallback =
    | Measure_order  (* SUDA / custom: scores need more than group stats *)
    | Null_semantics  (* maybe-match with labelled nulls present *)

  let fallback_to_string = function
    | Measure_order -> "measure-order"
    | Null_semantics -> "null-semantics"

  type outcome = {
    rows_added : int;
    rows_rescored : int;  (* the whole relation when falling back *)
    groups_touched : int;  (* 0 when falling back *)
    fallback : fallback option;
  }

  type t = {
    measure : measure;
    semantics : Relational.Null_semantics.t;
    md : Microdata.t;  (* shared with the caller, rows appended in place *)
    score : (freq:int -> weight_sum:float -> float) option;
        (* per-tuple scorer; [None] = measure needs full re-estimation *)
    groups : (int list * float) Value.Array_tbl.t;
        (* QI values -> (members, reversed; weight sum in row order) *)
    mutable scored : int;  (* rows covered by [report] *)
    mutable has_null : bool;  (* some scored row has a QI null *)
    mutable report : report;
    mutable appends : int;
    mutable full_rescores : int;
  }

  (* Fold rows [lo, hi) into the buckets, returning the touched keys. *)
  let absorb t lo hi =
    let rel = Microdata.relation t.md in
    let qi = Microdata.qi_positions t.md in
    let touched = Value.Array_tbl.create 16 in
    for i = lo to hi - 1 do
      let key = Tuple.project (Relation.get rel i) qi in
      if Tuple.has_null key then t.has_null <- true;
      let members, ws =
        try Value.Array_tbl.find t.groups key with Not_found -> ([], 0.0)
      in
      Value.Array_tbl.replace t.groups key
        (i :: members, ws +. Microdata.weight_of t.md i);
      Value.Array_tbl.replace touched key ()
    done;
    touched

  let create ?(semantics = Relational.Null_semantics.Maybe_match) measure md =
    let t =
      {
        measure;
        semantics;
        md;
        score = scorer measure;
        groups = Value.Array_tbl.create 64;
        scored = 0;
        has_null = false;
        report = estimate ~semantics measure md;
        appends = 0;
        full_rescores = 0;
      }
    in
    ignore (absorb t 0 (Microdata.cardinal md));
    t.scored <- Microdata.cardinal md;
    t

  let append t =
    Telemetry.span "sdc.risk.append" @@ fun () ->
    let n = Microdata.cardinal t.md in
    let rows_added = n - t.scored in
    let lo = t.scored in
    t.appends <- t.appends + 1;
    let touched = absorb t lo n in
    t.scored <- n;
    let fallback =
      if Option.is_none t.score then Some Measure_order
      else if
        t.semantics = Relational.Null_semantics.Maybe_match && t.has_null
      then Some Null_semantics
      else None
    in
    match fallback with
    | Some reason ->
      t.full_rescores <- t.full_rescores + 1;
      t.report <- estimate ~semantics:t.semantics t.measure t.md;
      {
        rows_added;
        rows_rescored = n;
        groups_touched = 0;
        fallback = Some reason;
      }
    | None ->
      let old = t.report in
      let freq = Array.make n 0 in
      let weight_sum = Array.make n 0.0 in
      let risk = Array.make n 0.0 in
      Array.blit old.freq 0 freq 0 lo;
      Array.blit old.weight_sum 0 weight_sum 0 lo;
      Array.blit old.risk 0 risk 0 lo;
      let score = Option.get t.score in
      let rescored = ref 0 in
      Value.Array_tbl.iter
        (fun key () ->
          let members, ws = Value.Array_tbl.find t.groups key in
          let size = List.length members in
          let r = score ~freq:size ~weight_sum:ws in
          List.iter
            (fun i ->
              freq.(i) <- size;
              weight_sum.(i) <- ws;
              risk.(i) <- r;
              incr rescored)
            members)
        touched;
      t.report <- { old with freq; weight_sum; risk };
      {
        rows_added;
        rows_rescored = !rescored;
        groups_touched = Value.Array_tbl.length touched;
        fallback = None;
      }

  let report t = t.report

  let microdata t = t.md

  let appends t = t.appends

  let full_rescores t = t.full_rescores
end

let pp_report ?(limit = 10) ppf (md, report) =
  Format.fprintf ppf "risk report: %s over %s (%d tuples)@."
    (measure_to_string report.measure)
    (Microdata.name md) (Microdata.cardinal md);
  Format.fprintf ppf "global risk (expected re-identifications): %.3f@."
    (global_risk report);
  let order = Array.init (Array.length report.risk) (fun i -> i) in
  Array.sort (fun a b -> Float.compare report.risk.(b) report.risk.(a)) order;
  let shown = min limit (Array.length order) in
  Format.fprintf ppf "top %d tuples by risk:@." shown;
  for rank = 0 to shown - 1 do
    let i = order.(rank) in
    Format.fprintf ppf "  tuple %-6d risk %.4f  freq %-4d  weight sum %.1f  qi %s@."
      i report.risk.(i) report.freq.(i) report.weight_sum.(i)
      (Relational.Tuple.to_string (Microdata.qi_projection md i))
  done
