(* Measurement plumbing shared by the three workloads: clocks, per-op
   samples, percentiles, per-layer accumulators and the host label. *)

module Json = Vadasa_base.Json
module Rng = Vadasa_stats.Rng

let now = Unix.gettimeofday

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Raised by the SIGINT/SIGTERM handler; never counted as a failed op,
   so the run unwinds, stopping its server child on the way. *)
exception Interrupted

(* One independent stream per (seed, input index): the same seed always
   yields the same inputs, whatever order they are generated in. *)
let rng_for ~seed i = Rng.create ~seed:((seed * 1_000_003) + (i * 7919) + 17)

(* A size drawn from stratum [stratum] of [strata] equal slices of
   [lo, hi]: every seed gets the same spread of sizes, jittered within
   each slice, so per-op costs form a continuum whose shape does not
   depend on the seed. *)
let stratified rng ~lo ~hi ~stratum ~strata =
  let u = Rng.float rng in
  lo + int_of_float (float_of_int (hi - lo) *. (float_of_int stratum +. u)
                     /. float_of_int strata)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1)
  in
  go 0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* Per-layer totals, kept in first-recorded order. *)
module Layers = struct
  type t = { mutable order : string list; totals : (string, float ref) Hashtbl.t }

  let create () = { order = []; totals = Hashtbl.create 32 }

  let add t name v =
    match Hashtbl.find_opt t.totals name with
    | Some r -> r := !r +. v
    | None ->
      Hashtbl.add t.totals name (ref v);
      t.order <- name :: t.order

  let get t name =
    match Hashtbl.find_opt t.totals name with Some r -> !r | None -> 0.0

  (* A span from outside the program: the wall time of one call into a
     layer's public function, accumulated in milliseconds. *)
  let span t name f =
    let t0 = now () in
    let r = f () in
    add t name ((now () -. t0) *. 1000.0);
    r
end

(* What a workload hands back to bench.ml. [latencies] are seconds per
   op, in op-list order; [failed] counts failed ops and failed checks. *)
type result = {
  latencies : float array;
  attempted : int;
  failed : int;
  setup_s : float;
  peak_rss_mb : float;
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  details : (string * Json.t) list;  (** extra run-label fields *)
}

(* The work one run does is a fixed op list whose length depends only on
   the requested seconds, never on measured speed: runs of one
   (workload, seconds) pair always do the same number of ops.
   [ops_per_second] is the nominal rate on the reference host. *)
let op_count ~seconds ~ops_per_second ~min_ops =
  max min_ops (int_of_float (Float.round (float_of_int seconds *. ops_per_second)))

(* Set-up runs [reps] times; the median time is reported and the last
   result is kept. *)
let repeated_setup ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let r = f () in
    times := (now () -. t0) :: !times;
    last := Some r
  done;
  match !last with
  | Some r -> (r, median !times)
  | None -> invalid_arg "repeated_setup: reps < 1"

(* ---- run label ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.trim (String.sub line 0 i) = "model name" ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  | exception Sys_error _ -> "unknown"

(* HEAD of the checkout's git repository, when there is one. *)
let git_commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> None
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_name = String.sub head 5 (String.length head - 5) in
    match trim (read_file (Filename.concat ".git" ref_name)) with
    | commit -> Some commit
    | exception Sys_error _ -> (
      match read_file ".git/packed-refs" with
      | exception Sys_error _ -> None
      | packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ commit; name ] when name = ref_name -> Some commit
               | _ -> None)))
  | commit -> Some commit

(* Digest of the program's sources, which identifies the code measured
   even in a checkout that is not a git repository. *)
let source_digest roots =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                     || Filename.basename p = "dune"
             then [ p ]
             else [])
  in
  List.concat_map files roots
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let host_label () =
  [
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("cpu_model", Json.Str (cpu_model ()));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ("git_commit", match git_commit () with Some c -> Json.Str c | None -> Json.Null);
    ("source_digest", Json.Str (source_digest [ "lib"; "bin" ]));
  ]
