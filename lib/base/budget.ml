type t = {
  deadline : float option;  (* absolute, Clock time *)
  max_facts : int option;
  cancelled : bool Atomic.t;
}

type reason = Cancelled | Deadline | Fact_ceiling

let create ?deadline_in ?deadline ?max_facts () =
  let deadline =
    match (deadline, deadline_in) with
    | None, None -> None
    | Some d, None -> Some d
    | None, Some s -> Some (Clock.deadline_in s)
    | Some d, Some s -> Some (Float.min d (Clock.deadline_in s))
  in
  { deadline; max_facts; cancelled = Atomic.make false }

let cancel t = Atomic.set t.cancelled true
let cancelled t = Atomic.get t.cancelled
let deadline t = t.deadline
let max_facts t = t.max_facts

let check t ~facts =
  if Atomic.get t.cancelled then Some Cancelled
  else
    match t.deadline with
    | Some d when Clock.expired d -> Some Deadline
    | _ -> (
      match t.max_facts with
      | Some cap when facts >= cap -> Some Fact_ceiling
      | _ -> None)

let reason_to_string = function
  | Cancelled -> "cancelled"
  | Deadline -> "deadline"
  | Fact_ceiling -> "fact_ceiling"

let reason_code r = "budget." ^ reason_to_string r
