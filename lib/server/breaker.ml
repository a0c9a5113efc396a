module Clock = Vadasa_base.Clock
module Json = Vadasa_base.Json

type state = Closed | Half_open | Open

type circuit = {
  state : state;
  failures : int;  (* consecutive failures while closed *)
  until : float;  (* while open: re-evaluate at this Clock time *)
}

let closed = { state = Closed; failures = 0; until = 0.0 }

type t = {
  threshold : int;
  cooldown : float;
  mutex : Mutex.t;
  circuits : (string, circuit) Hashtbl.t;
}

type decision = Allow | Rejected of float

let create ?(threshold = 5) ?(cooldown = 10.0) () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  if cooldown < 0.0 then invalid_arg "Breaker.create: cooldown must be >= 0";
  { threshold; cooldown; mutex = Mutex.create (); circuits = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let get t key =
  match Hashtbl.find_opt t.circuits key with
  | Some c -> c
  | None -> closed

let check t key =
  locked t (fun () ->
      let c = get t key in
      match c.state with
      | Closed -> Allow
      | Half_open ->
        (* a probe is already in flight; keep rejecting until it lands *)
        Rejected t.cooldown
      | Open ->
        let now = Clock.now () in
        if now >= c.until then begin
          (* cooldown over: this caller becomes the half-open probe *)
          Hashtbl.replace t.circuits key { c with state = Half_open };
          Allow
        end
        else Rejected (c.until -. now))

let success t key = locked t (fun () -> Hashtbl.replace t.circuits key closed)

let failure t key =
  locked t (fun () ->
      let trip () =
        Hashtbl.replace t.circuits key
          { state = Open; failures = 0; until = Clock.deadline_in t.cooldown }
      in
      let c = get t key in
      match c.state with
      | Half_open | Open -> trip ()
      | Closed ->
        let failures = c.failures + 1 in
        if failures >= t.threshold then trip ()
        else Hashtbl.replace t.circuits key { c with failures })

let render = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

let state t key = locked t (fun () -> render (get t key).state)

(* Per circuit: its state (a name in JSON, 0/1/2 in Prometheus) and its
   consecutive failures. *)
let metrics t =
  let module M = Vadasa_telemetry.Telemetry.Metric in
  locked t (fun () -> Hashtbl.fold (fun key c acc -> (key, c) :: acc) t.circuits [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.concat_map (fun (key, c) ->
         let code = match c.state with Closed -> 0 | Half_open -> 1 | Open -> 2 in
         M.nest key
           [
             {
               (M.gauge ~labels:[ ("endpoint", key) ] ~family:"vadasa_breaker_state"
                  ~help:"Circuit state per endpoint: 0 closed, 1 half-open, 2 open"
                  "state" code)
               with
               json = Json.Str (render c.state);
             };
             M.json "consecutive_failures"
               (Json.Int (if c.state = Closed then c.failures else t.threshold));
           ])
