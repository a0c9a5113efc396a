(* The counter gate: one head run of `perfbench/run.sh --trace 1`
   against two merge-base runs of the same workload, seed and seconds.

   A per-layer metric is gated when the two merge-base runs print
   exactly the same value for it. The head then fails the gate when it
   is worse on that metric in the direction BENCHMARK.json declares
   (`better: lower` or `higher`), by any amount. Every other metric is
   printed with the merge-base spread but not gated: timings, counts
   that differ between the merge-base runs, and the runtime's gc.*
   figures. So the gate has no threshold to tune. *)

module Json = Vadasa_base.Json

type better = Lower | Higher

type run = {
  workload : string;
  seed : int;
  seconds : float;
  metrics : (string * float) list;
}

let ( let* ) = Result.bind

let field what name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or malformed %S" what name)

let parse what line = Result.map_error (fun e -> what ^ ": " ^ e) (Json.of_string line)

(* A traced run's standard output: the run label on the first line, the
   result object on the last. A run marked `correct: false` is read like
   any other; one with `trace: false` carries no per-layer metrics. *)
let run_of_string text =
  match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) with
  | [] | [ _ ] -> Error "expected a run label line and a result line"
  | label :: rest ->
    let* label = parse "run label" label in
    let* result = parse "result" (List.nth rest (List.length rest - 1)) in
    let* workload = field "run label" "workload" Json.to_string_opt label in
    let* seed = field "run label" "seed" Json.to_int_opt label in
    let* seconds = field "run label" "seconds" Json.to_float_opt label in
    let* trace = field "run label" "trace" Json.to_bool_opt label in
    let* metrics =
      match Json.member "metrics" result with
      | Some (Json.Obj metrics) -> Ok metrics
      | _ -> Error "result: missing or malformed \"metrics\""
    in
    let* metrics =
      List.fold_right
        (fun (name, m) acc ->
          let* acc = acc in
          let* v = field ("metric " ^ name) "value" Json.to_float_opt m in
          Ok ((name, v) :: acc))
        metrics (Ok [])
    in
    if trace then Ok { workload; seed; seconds; metrics }
    else Error "not a traced run: per-layer metrics need --trace 1"

(* BENCHMARK.json's per-layer metrics and their directions, in order. *)
let per_layer_of_string text =
  let* spec = parse "BENCHMARK.json" text in
  let* entries = field "BENCHMARK.json" "per_layer" Json.to_list_opt spec in
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* name = field "per_layer entry" "name" Json.to_string_opt m in
      let* better =
        match Option.bind (Json.member "better" m) Json.to_string_opt with
        | Some "lower" -> Ok Lower
        | Some "higher" -> Ok Higher
        | _ -> Error ("per_layer " ^ name ^ ": \"better\" must be lower or higher")
      in
      Ok ((name, better) :: acc))
    entries (Ok [])

(* Held and Worse: reproduced at the merge-base, and the head is not
   worse, or is worse or lacks the metric. *)
type status = Held | Worse | Ungated

type row = {
  name : string;
  better : better;
  base : float option * float option;  (* the two merge-base runs *)
  head : float option;
  status : status;
}

let describe r = Printf.sprintf "%s seed %d, %g s" r.workload r.seed r.seconds

(* The runtime's GC figures follow heap state, not the work done: two
   runs of one build can print the same value and a third another (at
   one seed, anonymize-suite's gc.minor_mwords_per_op read 1.53036 in
   three runs and 1.52807 or 1.53262 in three others). So they are
   never gated. *)
let gateable name = not (String.starts_with ~prefix:"gc." name)

(* One row per declared metric; Error when the runs' workload, seed or
   seconds differ. *)
let compare per_layer ~base:(b1, b2) ~head =
  let same r =
    String.equal r.workload head.workload
    && r.seed = head.seed
    && Float.equal r.seconds head.seconds
  in
  if not (same b1 && same b2) then
    Error
      (Printf.sprintf "runs differ in workload, seed or seconds: %s; %s; head %s"
         (describe b1) (describe b2) (describe head))
  else
    Ok
      (List.map
         (fun (name, better) ->
           let value r = List.assoc_opt name r.metrics in
           let v1 = value b1 and v2 = value b2 and h = value head in
           let status =
             match (v1, v2, h) with
             | Some x, Some y, h when gateable name && Float.equal x y -> (
               match (h, better) with
               | Some h, Lower when h <= x -> Held
               | Some h, Higher when h >= x -> Held
               | _ -> Worse)
             | _ -> Ungated
           in
           { name; better; base = (v1, v2); head = h; status })
         per_layer)

let render head rows =
  let buf = Buffer.create 4096 in
  let num = function Some v -> Printf.sprintf "%.10g" v | None -> "absent" in
  Printf.bprintf buf "counter gate: %s (two merge-base runs, one head run)\n"
    (describe head);
  Printf.bprintf buf "  %-40s %-6s %-27s %-16s %s\n" "metric" "better"
    "merge-base" "head" "verdict";
  List.iter
    (fun r ->
      let base =
        match r.base with
        | Some x, Some y when Float.equal x y -> num (Some x)
        | Some x, Some y -> num (Some (Float.min x y)) ^ " .. " ^ num (Some (Float.max x y))
        | x, y -> num x ^ " / " ^ num y
      in
      let verdict =
        match (r.status, r.base, r.head) with
        | Held, (Some x, _), Some h when not (Float.equal x h) -> "held, better"
        | Held, _, _ -> "held"
        | Worse, _, _ -> "WORSE"
        | Ungated, _, _ -> "ungated"
      in
      Printf.bprintf buf "  %-40s %-6s %-27s %-16s %s\n" r.name
        (match r.better with Lower -> "lower" | Higher -> "higher")
        base (num r.head) verdict)
    rows;
  let count s = List.length (List.filter (fun r -> r.status = s) rows) in
  Printf.bprintf buf "gated %d: held %d, worse %d; ungated %d\n"
    (count Held + count Worse) (count Held) (count Worse) (count Ungated);
  Buffer.contents buf
