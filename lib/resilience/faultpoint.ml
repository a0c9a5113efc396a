module Error = Vadasa_base.Error

type action = Fail | Delay of float

let registry =
  [
    ("csv.read", "parsing a CSV document (Csv.read_string / Csv.load)");
    ("csv.write", "serializing a CSV document (Csv.write_string / Csv.save)");
    ("engine.stratum", "entering a stratum of the chase");
    ("engine.iterate", "each semi-naive fixpoint iteration of the chase");
    ("engine.chunk", "each parallel delta-chunk task of the chase");
    ("cycle.round", "each round of the anonymization cycle");
    ( "pool.enqueue",
      "submitting an accepted connection or an async job to its worker pool" );
    ("http.write", "writing an HTTP response to the client socket");
    ("handler.dispatch", "dispatching a matched route to its handler");
    ( "dataset.append",
      "absorbing appended rows into a registered dataset (after \
       validation, before any state is committed)" );
    ( "journal.write",
      "writing a framed record batch to the on-disk journal (before \
       any bytes reach the file)" );
    ( "journal.fsync",
      "fsyncing a journal record batch (bytes written, not yet \
       durable; a failure rolls the batch back)" );
    ("job.step", "each execution attempt of an async job's work step");
  ]

let known name = List.mem_assoc name registry

type armed_point = { action : action; at : int option }

(* [enabled] is the disarmed fast path: a single atomic load per hit.
   Everything else lives behind [mu]. *)
let enabled = Atomic.make false
let mu = Mutex.create ()
let armed_tbl : (string, armed_point) Hashtbl.t = Hashtbl.create 8
let counts : (string, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let hit_count name = locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt counts name))

let fire name = function
  | Fail ->
    Error.fail ~code:("fault." ^ name) Error.Io
      ("injected fault at " ^ name)
      ~context:[ ("fault_point", name) ]
  | Delay d -> Unix.sleepf d

let hit name =
  if Atomic.get enabled then begin
    let to_fire =
      locked (fun () ->
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt counts name) in
          Hashtbl.replace counts name n;
          match Hashtbl.find_opt armed_tbl name with
          | None -> None
          | Some { action; at = None } -> Some action
          | Some { action; at = Some k } -> if n = k then Some action else None)
    in
    (* fire outside the lock: a delay must not serialize other points *)
    match to_fire with None -> () | Some action -> fire name action
  end

let arm ?at name action =
  if not (known name) then
    Result.error
      (Error.make ~code:"fault.unknown_point" Error.Parse
         ("unknown fault point: " ^ name)
         ~context:[ ("point", name) ])
  else begin
    locked (fun () -> Hashtbl.replace armed_tbl name { action; at });
    Atomic.set enabled true;
    Ok ()
  end

(* ---- spec parsing ------------------------------------------------------- *)

let spec_error spec detail =
  Error.make ~code:"fault.bad_spec" Error.Parse
    ("invalid VADASA_FAULTS spec: " ^ detail)
    ~context:[ ("spec", spec) ]

let parse_duration s =
  let num, scale =
    if Filename.check_suffix s "ms" then (Filename.chop_suffix s "ms", 0.001)
    else if Filename.check_suffix s "s" then (Filename.chop_suffix s "s", 1.0)
    else (s, 0.001) (* bare numbers are milliseconds *)
  in
  match float_of_string_opt (String.trim num) with
  | Some f when f >= 0.0 -> Some (f *. scale)
  | _ -> None

let parse_action spec s =
  (* "fail" | "fail@N" | "delay=DUR" | "delay=DUR@N" *)
  let action_s, at =
    match String.index_opt s '@' with
    | None -> (s, Ok None)
    | Some i ->
      let n = String.sub s (i + 1) (String.length s - i - 1) in
      ( String.sub s 0 i,
        match int_of_string_opt n with
        | Some k when k >= 1 -> Ok (Some k)
        | _ -> Result.error (spec_error spec ("bad hit index: " ^ n)) )
  in
  Result.bind at (fun at ->
      if action_s = "fail" then Ok (Fail, at)
      else
        match String.index_opt action_s '=' with
        | Some i when String.sub action_s 0 i = "delay" -> (
          let dur = String.sub action_s (i + 1) (String.length action_s - i - 1) in
          match parse_duration dur with
          | Some d -> Ok (Delay d, at)
          | None -> Result.error (spec_error spec ("bad duration: " ^ dur)))
        | _ -> Result.error (spec_error spec ("unknown action: " ^ action_s)))

let parse_clause spec clause =
  match String.index_opt clause ':' with
  | None -> Result.error (spec_error spec ("missing ':' in clause: " ^ clause))
  | Some i ->
    let name = String.trim (String.sub clause 0 i) in
    let rest = String.trim (String.sub clause (i + 1) (String.length clause - i - 1)) in
    if not (known name) then
      Result.error (spec_error spec ("unknown fault point: " ^ name))
    else Result.map (fun (action, at) -> (name, action, at)) (parse_action spec rest)

let arm_spec spec =
  let clauses =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let parsed =
    List.fold_left
      (fun acc clause ->
        Result.bind acc (fun acc ->
            Result.map (fun c -> c :: acc) (parse_clause spec clause)))
      (Ok []) clauses
  in
  Result.map
    (fun clauses ->
      List.iter
        (fun (name, action, at) ->
          locked (fun () -> Hashtbl.replace armed_tbl name { action; at });
          Atomic.set enabled true)
        (List.rev clauses))
    parsed

let arm_from_env () =
  match Sys.getenv_opt "VADASA_FAULTS" with
  | None | Some "" -> Ok ()
  | Some spec -> arm_spec spec

let reset () =
  locked (fun () ->
      Hashtbl.reset armed_tbl;
      Hashtbl.reset counts);
  Atomic.set enabled false

let render_action = function
  | { action = Fail; at = None } -> "fail"
  | { action = Fail; at = Some k } -> Printf.sprintf "fail@%d" k
  | { action = Delay d; at = None } -> Printf.sprintf "delay=%gms" (d *. 1000.0)
  | { action = Delay d; at = Some k } ->
    Printf.sprintf "delay=%gms@%d" (d *. 1000.0) k

let armed () =
  locked (fun () ->
      Hashtbl.fold (fun name p acc -> (name, render_action p) :: acc) armed_tbl []
      |> List.sort compare)
