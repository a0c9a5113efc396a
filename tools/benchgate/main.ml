(* The counter gate over perfbench's per-layer metrics.

     main.exe BASE1 BASE2 HEAD

   Each argument is the standard output of one
   `sh perfbench/run.sh --workload W --seed N --seconds S --trace 1`:
   two runs of the merge-base and one of the head, all of the same
   workload, seed and seconds. Run it from the checkout root: the
   metrics and their directions come from BENCHMARK.json there.

   A metric both merge-base runs print identically is gated, except the
   runtime's gc.* figures; every other one is printed with the
   merge-base spread. Runs marked
   `correct: false` are compared all the same: their correctness is
   the benchmark's own exit status.

   Exit 0 when the head is worse on no gated metric, 1 when it is, 2
   when an input is unreadable or the runs' labels differ. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchgate: " ^ msg);
      exit 2)
    fmt

let read path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> die "%s" e

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ base1; base2; head ] ->
    let per_layer =
      match Benchgate.per_layer_of_string (read "BENCHMARK.json") with
      | Ok m -> m
      | Error e -> die "%s" e
    in
    let load path =
      match Benchgate.run_of_string (read path) with
      | Ok r -> r
      | Error e -> die "%s: %s" path e
    in
    let b1 = load base1 and b2 = load base2 and h = load head in
    (match Benchgate.compare per_layer ~base:(b1, b2) ~head:h with
    | Error e -> die "%s" e
    | Ok rows ->
      print_string (Benchgate.render h rows);
      if List.exists (fun r -> r.Benchgate.status = Benchgate.Worse) rows then
        exit 1)
  | _ -> die "usage: main.exe BASE1 BASE2 HEAD (perfbench --trace 1 outputs)"
