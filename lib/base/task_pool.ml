(* Fork-join domain pool.

   Shape: a single FIFO of [batch] views shared by all worker domains.
   A batch is represented only by its [claim] function — an existential
   package over the submitting [run_all]'s typed state (tasks, results
   slice, completion latch) so the pool itself stays monomorphic.

   Claiming is an atomic counter bump, so workers and the submitting
   caller race for tasks without holding the pool mutex while running
   them.  Each task writes its own result slot (single writer per
   index), then decrements the batch's remaining-count under the
   batch-local mutex; the final decrement broadcasts the batch's
   condition variable, releasing the caller.  That mutex pairing is
   also what makes the result slots visible to the caller under the
   OCaml 5 memory model: every slot write is sequenced before the
   worker's unlock, which synchronizes with the caller's final lock. *)

type batch = {
  claim : unit -> (unit -> unit) option;
      (* Next ready task of this batch, or [None] once exhausted.
         Tasks never raise: exceptions are captured into result slots. *)
}

type t = {
  n_domains : int;
  mutex : Mutex.t; (* guards [pending] and [workers] *)
  cond : Condition.t; (* signalled on submit and on stop *)
  pending : batch Queue.t;
  stop_flag : bool Atomic.t;
  mutable workers : unit Domain.t list;
  on_wait : (float -> unit) option;
      (* Queue-wait observer: seconds between a batch's submission and
         each task's start, invoked on the domain that runs the task.
         Injected as a callback so [lib/base] stays telemetry-free. *)
}

let domains t = t.n_domains
let stopped t = Atomic.get t.stop_flag

(* The host's useful parallelism. [Domain.recommended_domain_count]
   reads the cgroup/CPU-affinity limits, so a container pinned to one
   core reports 1 even when the machine has more. *)
let recommended () = max 1 (Domain.recommended_domain_count ())

let effective ~requested = max 1 (min requested (recommended ()))

(* Pull one runnable task off the shared queue, pruning exhausted
   batches as they are discovered at the head.  Returns [None] only
   when the pool is stopping and nothing is left to run. *)
let next_task t =
  Mutex.lock t.mutex;
  let rec get () =
    match Queue.peek_opt t.pending with
    | Some b -> (
        match b.claim () with
        | Some _ as task -> task
        | None ->
            (* Exhausted; drop it if it is still the head (another
               worker may have pruned it while we ran [claim]). *)
            (match Queue.peek_opt t.pending with
            | Some b' when b' == b -> ignore (Queue.pop t.pending)
            | _ -> ());
            get ())
    | None ->
        if Atomic.get t.stop_flag then None
        else (
          Condition.wait t.cond t.mutex;
          get ())
  in
  let task = get () in
  Mutex.unlock t.mutex;
  task

let rec worker_loop t =
  match next_task t with
  | None -> ()
  | Some task ->
      task ();
      worker_loop t

let create ?on_wait ~domains () =
  if domains < 1 then invalid_arg "Task_pool.create: domains must be >= 1";
  let t =
    {
      n_domains = domains;
      mutex = Mutex.create ();
      cond = Condition.create ();
      pending = Queue.create ();
      stop_flag = Atomic.make false;
      workers = [];
      on_wait;
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let run_seq tasks =
  Array.map (fun f -> match f () with v -> Ok v | exception e -> Error e) tasks

let run_all t tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else if t.n_domains = 1 || n = 1 || stopped t then run_seq tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Batch-local latch, so concurrent [run_all] calls do not contend
       on one pool-wide completion lock. *)
    let bm = Mutex.create () in
    let bc = Condition.create () in
    let remaining = ref n in
    let submitted = Unix.gettimeofday () in
    let run_one i =
      (match t.on_wait with
      | Some f -> f (Unix.gettimeofday () -. submitted)
      | None -> ());
      let r = (match tasks.(i) () with v -> Ok v | exception e -> Error e) in
      results.(i) <- Some r;
      Mutex.lock bm;
      decr remaining;
      if !remaining = 0 then Condition.broadcast bc;
      Mutex.unlock bm
    in
    let claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then Some (fun () -> run_one i) else None
    in
    Mutex.lock t.mutex;
    Queue.push { claim } t.pending;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    (* The caller is a full participant: race the workers for tasks,
       then wait out whatever stragglers the workers claimed. *)
    let rec drain () =
      match claim () with
      | Some task ->
          task ();
          drain ()
      | None -> ()
    in
    drain ();
    Mutex.lock bm;
    while !remaining > 0 do
      Condition.wait bc bm
    done;
    Mutex.unlock bm;
    Array.map (function Some r -> r | None -> assert false) results
  end

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.cond;
    let workers = t.workers in
    t.workers <- [];
    Mutex.unlock t.mutex;
    List.iter Domain.join workers
  end
