(* The repository's benchmark: one command, three workloads.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --vadasa EXE

   Prints progress on stderr and two lines on stdout: a run label
   (host, seed, op counts, cliff widths, per-workload details) and, last,
   the result object {correct, attempted, failed, metrics}. With
   --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
   with --trace 1 they are its per-layer metrics. Exits non-zero when a
   correctness check fails. *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload anonymize-suite|reason-chase|serve-ingest \
     --seed N --seconds S --trace 0|1 --vadasa PATH";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and vadasa = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--vadasa" :: v :: rest -> vadasa := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace, !vadasa) with
  | Some w, Some s, Some n, Some t, Some v when n >= 1 -> (w, s, n, t, v)
  | _ -> usage ()

(* Metric names and units come from BENCHMARK.json, so the printed set
   always matches the declared one. *)
let declared section =
  match Json.of_string (read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok spec ->
    Option.bind (Json.member section spec) Json.to_list_opt
    |> Option.value ~default:[]
    |> List.map (fun m ->
           match
             ( Option.bind (Json.member "name" m) Json.to_string_opt,
               Option.bind (Json.member "unit" m) Json.to_string_opt )
           with
           | Some name, Some unit -> (name, unit)
           | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ section))

(* The latencies at the ranks [cliff_step] below and above a reported
   percentile, as a share of it: a wide gap means the percentile sits
   on a cliff between two op classes and will not be steady. *)
let cliff_step = 0.02

let cliff sorted q =
  let at r = percentile sorted (Float.min 1.0 (Float.max 0.0 r)) in
  let lo = at (q -. cliff_step) and v = at q and hi = at (q +. cliff_step) in
  Json.Obj
    [
      ("lo_ms", Json.Float (lo *. 1000.0));
      ("at_ms", Json.Float (v *. 1000.0));
      ("hi_ms", Json.Float (hi *. 1000.0));
      ("width", Json.Float ((hi -. lo) /. v));
    ]

let () =
  let workload, seed, seconds, trace, vadasa = parse_args () in
  (* Unwind on SIGINT/SIGTERM so the server child is stopped and the
     scratch directory removed. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Interrupted)))
    [ Sys.sigint; Sys.sigterm ];
  let run =
    match workload with
    | "anonymize-suite" -> Anonymize.run
    | "reason-chase" -> Chase.run
    | "serve-ingest" -> Ingest.run ~vadasa
    | _ -> usage ()
  in
  let end_to_end = declared "end_to_end" and per_layer = declared "per_layer" in
  let r = run ~seed ~seconds ~trace in
  let sorted = Array.copy r.latencies in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let e2e =
    [
      ("setup_s", r.setup_s);
      ("ops_per_s", float_of_int n /. Array.fold_left ( +. ) 0.0 sorted);
      ("latency_p50_ms", percentile sorted 0.5 *. 1000.0);
      ("latency_p90_ms", percentile sorted 0.9 *. 1000.0);
      ("peak_rss_mb", r.peak_rss_mb);
      ("success_ratio", float_of_int (r.attempted - r.failed) /. float_of_int r.attempted);
    ]
  in
  let pick declared_metrics values =
    List.map
      (fun (name, unit) ->
        let value =
          match List.assoc_opt name values with
          | Some v -> v
          | None ->
            (* A layer this workload does not exercise. *)
            0.0
        in
        (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ]))
      declared_metrics
  in
  let metrics = if trace then pick per_layer r.layers else pick end_to_end e2e in
  let label =
    Json.Obj
      ([ ("label", Json.Obj (host_label ()));
         ("workload", Json.Str workload);
         ("seed", Json.Int seed);
         ("seconds", Json.Int seconds);
         ("trace", Json.Bool trace);
         ("ops_attempted", Json.Int r.attempted);
         ("ops_failed", Json.Int r.failed);
         ("error_rate", Json.Float (float_of_int r.failed /. float_of_int r.attempted));
         ("latency_samples", Json.Int n);
         ("cliffs", Json.Obj [ ("latency_p50_ms", cliff sorted 0.5); ("latency_p90_ms", cliff sorted 0.9) ]);
       ]
      @ r.details)
  in
  print_endline (Json.to_string label);
  let correct = r.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj metrics);
          ]));
  if not correct then exit 1
