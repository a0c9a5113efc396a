(* The integer a component's [metrics] list declares under a top-level
   JSON key, shared by the test suites. *)

module M = Vadasa_telemetry.Telemetry.Metric

let int entries key =
  match List.find_opt (fun (m : M.t) -> m.M.path = [ key ]) entries with
  | Some { M.json = Vadasa_base.Json.Int n; _ } -> n
  | Some _ | None -> Alcotest.failf "no integer metric %S" key
