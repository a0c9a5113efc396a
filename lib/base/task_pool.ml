(* Domain pool: one FIFO of closures drained by [domains - 1] worker
   domains.

   [submit] enqueues one closure unless [capacity] closures are already
   waiting. [run_all] is fork-join over the same queue: it enqueues up
   to [domains - 1] helper closures, each of which claims the batch's
   tasks through the batch's atomic counter, and the caller claims
   alongside them, so workers and caller race for tasks without
   holding the pool mutex while running them. A helper dequeued after
   its batch is exhausted claims nothing and returns.

   Each task writes its own result slot (single writer per index), then
   decrements the batch's remaining-count under the batch-local mutex;
   the final decrement broadcasts the batch's condition variable,
   releasing the caller. That mutex pairing is also what makes the
   result slots visible to the caller under the OCaml 5 memory model:
   every slot write is sequenced before the worker's unlock, which
   synchronizes with the caller's final lock. *)

type t = {
  n_domains : int;
  capacity : int; (* bound on queued closures, checked by [submit] only *)
  mutex : Mutex.t; (* guards [queue] and [workers] *)
  cond : Condition.t; (* signalled on push and on stop *)
  queue : (unit -> unit) Queue.t;
  stop_flag : bool Atomic.t;
  mutable workers : unit Domain.t list;
  on_wait : (float -> unit) option;
      (* Queue-wait observer, invoked on the domain that runs the task.
         Injected as a callback so [lib/base] stays telemetry-free. *)
}

let domains t = t.n_domains
let stopped t = Atomic.get t.stop_flag

(* The host's useful parallelism. [Domain.recommended_domain_count]
   reads the cgroup/CPU-affinity limits, so a container pinned to one
   core reports 1 even when the machine has more. *)
let recommended () = max 1 (Domain.recommended_domain_count ())

let effective ~requested = max 1 (min requested (recommended ()))

(* Workers exit only once the pool is stopping and the queue is empty,
   so [stop] drains whatever was queued before it. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not (stopped t) do
    Condition.wait t.cond t.mutex
  done;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
      (* [run_all] helpers never raise; a raising [submit]ted closure
         must not take the domain down, and its submitter owns the
         reporting. *)
      (try task () with _ -> ());
      worker_loop t

let create ?on_wait ?(capacity = max_int) ~domains () =
  if domains < 1 then invalid_arg "Task_pool.create: domains must be >= 1";
  if capacity < 1 then invalid_arg "Task_pool.create: capacity must be >= 1";
  let t =
    {
      n_domains = domains;
      capacity;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stop_flag = Atomic.make false;
      workers = [];
      on_wait;
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t f =
  let f =
    match t.on_wait with
    | None -> f
    | Some observe ->
        let queued = Unix.gettimeofday () in
        fun () ->
          observe (Unix.gettimeofday () -. queued);
          f ()
  in
  Mutex.lock t.mutex;
  let accepted =
    t.n_domains > 1 && (not (stopped t)) && Queue.length t.queue < t.capacity
  in
  if accepted then begin
    Queue.push f t.queue;
    Condition.signal t.cond
  end;
  Mutex.unlock t.mutex;
  accepted

let queue_length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

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
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        drain ()
      end
    in
    Mutex.lock t.mutex;
    for _ = 1 to min (n - 1) (t.n_domains - 1) do
      Queue.push drain t.queue
    done;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    (* The caller is a full participant: race the helpers for tasks,
       then wait out whatever stragglers the helpers claimed. *)
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
