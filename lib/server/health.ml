module Telemetry = Vadasa_telemetry.Telemetry
module Task_pool = Vadasa_base.Task_pool

let log_src = Logs.Src.create "vadasa.pool" ~doc:"server worker pools"

module Log = (val Logs.src_log log_src : Logs.LOG)

let sample_gc () =
  if Telemetry.enabled () then begin
    let s = Gc.quick_stat () in
    let d = (Domain.self () :> int) in
    let dg suffix v =
      Telemetry.gauge (Printf.sprintf "gc.domain%d.%s" d suffix) v
    in
    dg "minor_words" s.Gc.minor_words;
    dg "major_words" s.Gc.major_words;
    dg "promoted_words" s.Gc.promoted_words;
    (* The major heap is shared across domains: last writer wins is the
       right merge for these. *)
    Telemetry.gauge "gc.heap_words" (float_of_int s.Gc.heap_words);
    Telemetry.gauge "gc.top_heap_words" (float_of_int s.Gc.top_heap_words);
    Telemetry.gauge "gc.minor_collections" (float_of_int s.Gc.minor_collections);
    Telemetry.gauge "gc.major_collections" (float_of_int s.Gc.major_collections);
    Telemetry.gauge "gc.compactions" (float_of_int s.Gc.compactions)
  end

let submit pool f =
  match Vadasa_resilience.Faultpoint.hit "pool.enqueue" with
  | () -> Task_pool.submit pool f
  | exception Vadasa_base.Error.Error _ -> false

let supervise f =
  match f () with
  | () -> None
  | exception e ->
    let msg = Printexc.to_string e in
    Log.warn (fun m -> m "job raised: %s" msg);
    Some msg
