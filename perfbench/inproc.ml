(* The runner shared by the two in-process workloads: generate a fixed
   op list from the seed, time every op untraced, and, for a traced run,
   time it again with a span around each layer call and the library's
   own telemetry switched on. *)

module T = Vadasa_telemetry.Telemetry
open Common

type ('input, 'out) workload = {
  name : string;
  shapes : int;  (** distinct inputs come in multiples of this *)
  ops_per_second : float;  (** nominal rate on the reference host *)
  generate : seed:int -> distinct:int -> 'input array;
  input_name : 'input -> string;
  run_op : Layers.t option -> 'input -> 'out;
      (** the timed op; records one span per layer call when given layers *)
  check : int -> 'input -> 'out -> (unit, string) Stdlib.result;
      (** untimed output check; the int identifies the input *)
  observe : Layers.t -> 'out -> T.Report.t -> unit;
      (** traced runs: add the op's outcome counters and the library's
          telemetry to the run totals *)
  layer_metrics : ops:int -> Layers.t -> (string * float) list;
      (** traced runs: per-layer metrics from the run totals *)
}

(* Each distinct input is run twice, so outputs can be compared across
   ops over the same input. *)
let repeats = 2
let setup_reps = 5

type pass = {
  latencies : float array;
  failed : int;
  errors : string list;
  totals : Layers.t;
  min_coverage : float;  (** least share of an op's latency its spans cover *)
}

let run_pass w ~traced inputs order =
  let latencies = Array.make (Array.length order) 0.0 in
  let totals = Layers.create () in
  let failed = ref 0 and errors = ref [] and min_coverage = ref infinity in
  if traced then begin
    T.reset T.global;
    T.set_enabled true
  end;
  Array.iteri
    (fun k j ->
      let op_layers = if traced then Some (Layers.create ()) else None in
      let gc0 = Gc.quick_stat () in
      let t0 = now () in
      let r =
        try Ok (w.run_op op_layers inputs.(j)) with
        | Interrupted -> raise Interrupted
        | e -> Error (Printexc.to_string e)
      in
      let dt = now () -. t0 in
      let gc1 = Gc.quick_stat () in
      latencies.(k) <- dt;
      (match Result.bind r (fun out -> Result.map (fun () -> out) (w.check j inputs.(j) out)) with
      | Ok out ->
        if traced then begin
          w.observe totals out (T.Report.capture T.global);
          T.reset T.global
        end
      | Error e ->
        incr failed;
        if List.length !errors < 5 then errors := (w.input_name inputs.(j) ^ ": " ^ e) :: !errors);
      Option.iter
        (fun ol ->
          let covered = ref 0.0 in
          List.iter
            (fun name ->
              covered := !covered +. Layers.get ol name;
              Layers.add totals name (Layers.get ol name))
            ol.Layers.order;
          min_coverage := Float.min !min_coverage (!covered /. (dt *. 1000.0));
          Layers.add totals "gc_minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
          Layers.add totals "gc_major"
            (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)))
        op_layers)
    order;
  if traced then T.set_enabled false;
  { latencies; failed = !failed; errors = List.rev !errors; totals; min_coverage = !min_coverage }

let rate p = float_of_int (Array.length p.latencies) /. Array.fold_left ( +. ) 0.0 p.latencies

let run w ~seed ~seconds ~trace =
  let ops =
    let n = op_count ~seconds ~ops_per_second:w.ops_per_second ~min_ops:120 in
    let unit = w.shapes * repeats in
    (n + unit - 1) / unit * unit
  in
  let distinct = ops / repeats in
  let inputs, setup_s = repeated_setup ~reps:setup_reps (fun () -> w.generate ~seed ~distinct) in
  let order = Array.init ops (fun k -> k mod distinct) in
  Rng.shuffle (rng_for ~seed (-1)) order;
  log "%s: %d ops over %d inputs, set-up %.3f s" w.name ops distinct setup_s;
  let untraced = run_pass w ~traced:false inputs order in
  let traced = if trace then Some (run_pass w ~traced:true inputs order) else None in
  (* The layer spans must account for at least 90% of every op. *)
  let layers, coverage_errors =
    match traced with
    | None -> ([], [])
    | Some t ->
      let n = float_of_int ops and g = Layers.get t.totals in
      let coverage = t.min_coverage in
      ( w.layer_metrics ~ops t.totals
        @ [
            ("gc.minor_mwords_per_op", g "gc_minor_words" /. 1e6 /. n);
            ("gc.major_collections_per_op", g "gc_major" /. n);
            ("trace.span_coverage_min", coverage);
            ("trace.ops_per_s_untraced", rate untraced);
            ("trace.ops_per_s_traced", rate t);
          ],
        if coverage < 0.9 then
          [ Printf.sprintf "layer spans cover only %.3f of an op's latency" coverage ]
        else [] )
  in
  let traced_failed, traced_errors =
    match traced with Some t -> (t.failed, t.errors) | None -> (0, [])
  in
  {
    Common.latencies = untraced.latencies;
    attempted = (if trace then 2 * ops else ops);
    failed = untraced.failed + traced_failed + List.length coverage_errors;
    setup_s;
    peak_rss_mb = peak_rss_mb None;
    layers;
    details =
      [
        ("ops", Json.Int ops);
        ("distinct_inputs", Json.Int distinct);
        ( "errors",
          Json.List
            (List.map (fun e -> Json.Str e) (untraced.errors @ traced_errors @ coverage_errors)) );
      ];
  }
