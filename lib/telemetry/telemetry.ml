(* Metrics and tracing for the Vada-SA stack.

   Dependency-free beyond the stdlib (and [Unix.gettimeofday] for the
   clock): counters, gauges, histograms with reservoir-sampled
   percentiles plus fixed log-ladder buckets, and nestable timed spans,
   all grouped in a registry. Instrumented library code goes through the
   [count]/[observe]/[span] helpers on the implicit global registry;
   they are gated behind a single boolean so a disabled build pays one
   load-and-branch per probe site.

   Domain safety: a registry is a collection of per-domain *shards*.
   The first probe a domain fires against a registry creates that
   domain's shard (registered under the registry lock, cached in
   domain-local storage); every later probe is a domain-local hashtable
   lookup plus a plain field mutation — no locks, no atomics on the
   increment path. [Report.capture] merges the shards under short
   per-shard mutexes: counters sum, gauges keep the last write (each
   gauge publishes its value and a global write sequence as one atomic
   pair, so the merge never pairs a stale value with a fresh sequence),
   histograms combine on count/sum/min/max/buckets and pool their
   reservoir samples for the percentiles. Counter and histogram fields
   are plain (unsynchronised) mutations, so a capture that races an
   actively-recording shard may catch an instrument mid-update (a count
   already bumped, its sum not yet); no increment is ever lost, and a
   capture of quiesced shards is exact. Span stacks are inherently
   per-domain, so nesting never crosses shards; the retained-span bound
   is enforced with one compare-and-set on a registry-wide count, and
   overflow is counted per shard and summed at capture, so the dropped
   figure is exact even under concurrent multi-domain recording. *)

let now = Unix.gettimeofday

(* ---- JSON ------------------------------------------------------------- *)

(* The shared JSON module lives in [Vadasa_base.Json]; telemetry
   re-exports it so existing [Telemetry.Json] users keep working. *)
module Json = Vadasa_base.Json

(* ---- instruments ------------------------------------------------------ *)

(* Each domain adds to its own slice of a counter, unsynchronized, and a
   capture sums the slices. [Counter.set] instead publishes an absolute
   value into a cell every slice of the name shares, tagged with a fresh
   epoch; a slice counts its adds only while its epoch is the cell's, so
   a set from any domain discards every slice's earlier adds. *)
type counter = {
  mutable c_value : int;  (* this slice's adds since [c_epoch] *)
  mutable c_epoch : int;
  c_base : (int * int) Atomic.t;  (* the last set: (value, epoch) *)
}

let counter_epoch = Atomic.make 1

(* A gauge is its (value, write-sequence) pair published as one atomic
   immutable record, so a concurrent capture can never tear the two
   apart. The sequence orders writes across shards: the merge keeps the
   value with the highest sequence ("last write wins" process-wide). *)
type gauge = (float * int) Atomic.t

let gauge_seq = Atomic.make 0

(* Cumulative-style buckets on a fixed log ladder (1/2.5/5 per decade,
   10µs .. 10ks when observations are seconds). One ladder serves every
   histogram so shards merge by summing per-index counts; observations
   above the top bound land only in the implicit +Inf bucket (the exact
   [h_count]). *)
let bucket_bounds =
  [|
    1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 0.01; 0.025;
    0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.;
    1000.; 2500.; 5000.; 10000.;
  |]

let n_buckets = Array.length bucket_bounds

(* First ladder index with [x <= bound], or [n_buckets] when [x]
   overflows the ladder. *)
let bucket_index x =
  if x > bucket_bounds.(n_buckets - 1) then n_buckets
  else begin
    let lo = ref 0 and hi = ref (n_buckets - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= bucket_bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* Exact count/sum/min/max plus an Algorithm-R reservoir for percentile
   summaries; the LCG keeps the sample deterministic across runs.
   [h_buckets] holds per-bound (non-cumulative) counts. *)
type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  reservoir : float array;
  mutable h_rng : int64;
  h_buckets : int array;
}

let reservoir_capacity = 512

type span_event = {
  sp_name : string;
  sp_path : string;
  sp_start : float;
  sp_duration : float;
  sp_depth : int;
}

type open_span = { os_path : string; os_start : float }

(* One domain's slice of a registry. The owning domain mutates
   instrument fields without the lock (it is the only writer);
   [sh_lock] serializes instrument-table *structure* changes (interning
   a new name) against concurrent capture/reset from other domains. *)
type shard = {
  sh_id : int;  (* creation order; doubles as the trace tid *)
  sh_lock : Mutex.t;
  sh_counters : (string, counter) Hashtbl.t;
  sh_gauges : (string, gauge) Hashtbl.t;
  sh_histograms : (string, histogram) Hashtbl.t;
  mutable sh_span_stack : open_span list;
  mutable sh_span_events : span_event list;  (* newest first *)
  mutable sh_dropped : int;
  mutable sh_trace : span_event list option;
      (* local trace collector (newest first): when [Some], every span
         completed on this domain is also appended here, *independent*
         of the registry retention limit — a long-running server's
         sampled request traces keep working after the registry fills.
         Owner-domain only; never touched by capture/reset. *)
}

type t = {
  reg_id : int;
  reg_lock : Mutex.t;  (* guards [reg_shards]/[reg_next_shard] *)
  mutable reg_shards : shard list;  (* newest first *)
  mutable reg_next_shard : int;
  reg_span_count : int Atomic.t;  (* retained spans across all shards *)
  reg_span_limit : int Atomic.t;
  reg_counter_bases : (string, (int * int) Atomic.t) Hashtbl.t;
      (* each counter name's set cell, shared by its shards; guarded by
         [reg_lock] *)
}

type registry = t

let next_reg_id = Atomic.make 0

let create ?(span_limit = 100_000) () =
  {
    reg_id = Atomic.fetch_and_add next_reg_id 1;
    reg_lock = Mutex.create ();
    reg_shards = [];
    reg_next_shard = 0;
    reg_span_count = Atomic.make 0;
    reg_span_limit = Atomic.make span_limit;
    reg_counter_bases = Hashtbl.create 32;
  }

let global = create ()

let set_span_limit t limit = Atomic.set t.reg_span_limit limit

let span_limit t = Atomic.get t.reg_span_limit

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

(* Domain-local: registry id -> this domain's shard of that registry. *)
let shard_table_key : (int, shard) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let shard_of t =
  let table = Domain.DLS.get shard_table_key in
  match Hashtbl.find_opt table t.reg_id with
  | Some s -> s
  | None ->
    Mutex.lock t.reg_lock;
    let s =
      {
        sh_id = t.reg_next_shard;
        sh_lock = Mutex.create ();
        sh_counters = Hashtbl.create 32;
        sh_gauges = Hashtbl.create 16;
        sh_histograms = Hashtbl.create 32;
        sh_span_stack = [];
        sh_span_events = [];
        sh_dropped = 0;
        sh_trace = None;
      }
    in
    t.reg_next_shard <- t.reg_next_shard + 1;
    t.reg_shards <- s :: t.reg_shards;
    Mutex.unlock t.reg_lock;
    Hashtbl.add table t.reg_id s;
    s

(* Shards in creation order, snapshotted under the registry lock. *)
let shards t =
  Mutex.lock t.reg_lock;
  let l = List.rev t.reg_shards in
  Mutex.unlock t.reg_lock;
  l

let reset t =
  List.iter
    (fun s ->
      Mutex.lock s.sh_lock;
      Hashtbl.reset s.sh_counters;
      Hashtbl.reset s.sh_gauges;
      Hashtbl.reset s.sh_histograms;
      s.sh_span_stack <- [];
      s.sh_span_events <- [];
      s.sh_dropped <- 0;
      Mutex.unlock s.sh_lock)
    (shards t);
  Mutex.lock t.reg_lock;
  Hashtbl.reset t.reg_counter_bases;
  Mutex.unlock t.reg_lock;
  Atomic.set t.reg_span_count 0

(* Intern an instrument in the calling domain's shard. Only the owner
   adds to its shard's tables, so the lock is solely about making the
   table safe to fold from a concurrent capture. *)
let intern table lock name make =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None ->
    let v = make () in
    Mutex.lock lock;
    Hashtbl.add table name v;
    Mutex.unlock lock;
    v

module Counter = struct
  type nonrec t = counter

  let base registry name =
    Mutex.lock registry.reg_lock;
    let cell =
      match Hashtbl.find_opt registry.reg_counter_bases name with
      | Some cell -> cell
      | None ->
        let cell = Atomic.make (0, 0) in
        Hashtbl.add registry.reg_counter_bases name cell;
        cell
    in
    Mutex.unlock registry.reg_lock;
    cell

  let v ?(registry = global) name =
    let s = shard_of registry in
    intern s.sh_counters s.sh_lock name (fun () ->
        { c_value = 0; c_epoch = 0; c_base = base registry name })

  (* This slice's adds, or 0 when a set has happened since. *)
  let own c =
    let _, epoch = Atomic.get c.c_base in
    if c.c_epoch = epoch then c.c_value else 0

  let add c n =
    let _, epoch = Atomic.get c.c_base in
    if c.c_epoch <> epoch then begin
      c.c_value <- 0;
      c.c_epoch <- epoch
    end;
    c.c_value <- c.c_value + n

  let incr c = add c 1

  let set c n = Atomic.set c.c_base (n, Atomic.fetch_and_add counter_epoch 1)

  let value c = fst (Atomic.get c.c_base) + own c
end

module Gauge = struct
  type nonrec t = gauge

  let v ?(registry = global) name =
    let s = shard_of registry in
    intern s.sh_gauges s.sh_lock name (fun () -> Atomic.make (0.0, -1))

  let set g x = Atomic.set g (x, Atomic.fetch_and_add gauge_seq 1)

  let value g = fst (Atomic.get g)
end

module Histogram = struct
  type nonrec t = histogram

  type summary = {
    count : int;
    sum : float;
    min : float;
    max : float;
    mean : float;
    p50 : float;
    p95 : float;
    p99 : float;
    buckets : (float * int) list;
  }

  let v ?(registry = global) name =
    let s = shard_of registry in
    intern s.sh_histograms s.sh_lock name (fun () ->
        {
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          reservoir = Array.make reservoir_capacity 0.0;
          h_rng = 0x9E3779B97F4A7C15L;
          h_buckets = Array.make n_buckets 0;
        })

  (* SplitMix64-ish step; we only need a cheap unbiased-enough index. *)
  let next_index h bound =
    h.h_rng <- Int64.add (Int64.mul h.h_rng 6364136223846793005L) 1442695040888963407L;
    let bits = Int64.to_int (Int64.shift_right_logical h.h_rng 17) in
    bits mod bound

  let observe h x =
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. x;
    if x < h.h_min then h.h_min <- x;
    if x > h.h_max then h.h_max <- x;
    let b = bucket_index x in
    if b < n_buckets then h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    if h.h_count <= reservoir_capacity then h.reservoir.(h.h_count - 1) <- x
    else begin
      let j = next_index h h.h_count in
      if j < reservoir_capacity then h.reservoir.(j) <- x
    end

  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      sorted.(min (n - 1) (max 0 (rank - 1)))

  (* Cumulate the per-bound counts into exposition-style (le, n<=le)
     pairs; the implicit +Inf bucket is the exact count. *)
  let cumulate per_bound =
    let acc = ref 0 in
    List.init n_buckets (fun i ->
        acc := !acc + per_bound.(i);
        (bucket_bounds.(i), !acc))

  let summary_of ~count ~sum ~min:mn ~max:mx ~samples ~per_bound =
    if count = 0 then
      {
        count = 0;
        sum = 0.0;
        min = 0.0;
        max = 0.0;
        mean = 0.0;
        p50 = 0.0;
        p95 = 0.0;
        p99 = 0.0;
        buckets = cumulate per_bound;
      }
    else begin
      Array.sort Float.compare samples;
      {
        count;
        sum;
        min = mn;
        max = mx;
        mean = sum /. float_of_int count;
        p50 = percentile samples 0.50;
        p95 = percentile samples 0.95;
        p99 = percentile samples 0.99;
        buckets = cumulate per_bound;
      }
    end

  let summary h =
    summary_of ~count:h.h_count ~sum:h.h_sum ~min:h.h_min ~max:h.h_max
      ~samples:(Array.sub h.reservoir 0 (min h.h_count reservoir_capacity))
      ~per_bound:h.h_buckets

  let count h = h.h_count
end

module Span = struct
  type info = span_event = {
    sp_name : string;
    sp_path : string;
    sp_start : float;
    sp_duration : float;
    sp_depth : int;
  }

  let push shard name =
    let path =
      match shard.sh_span_stack with
      | [] -> name
      | { os_path; _ } :: _ -> os_path ^ "/" ^ name
    in
    let os = { os_path = path; os_start = now () } in
    shard.sh_span_stack <- os :: shard.sh_span_stack;
    os

  (* Reserve a retention slot: succeeds iff the registry-wide retained
     count is still under the limit. CAS keeps the bound exact when
     several domains complete spans concurrently. *)
  let rec reserve registry =
    let n = Atomic.get registry.reg_span_count in
    if n >= Atomic.get registry.reg_span_limit then false
    else if Atomic.compare_and_set registry.reg_span_count n (n + 1) then true
    else reserve registry

  let pop registry shard name os =
    let duration = now () -. os.os_start in
    let depth =
      match shard.sh_span_stack with
      | _ :: rest ->
        shard.sh_span_stack <- rest;
        List.length rest
      | [] -> 0
    in
    let ev =
      {
        sp_name = name;
        sp_path = os.os_path;
        sp_start = os.os_start;
        sp_duration = duration;
        sp_depth = depth;
      }
    in
    (* The local trace collector is not subject to the retention limit:
       a span dropped from the registry still reaches an active
       [with_local_trace]. *)
    (match shard.sh_trace with
    | Some l -> shard.sh_trace <- Some (ev :: l)
    | None -> ());
    if reserve registry then shard.sh_span_events <- ev :: shard.sh_span_events
    else shard.sh_dropped <- shard.sh_dropped + 1;
    duration

  let timed ?(registry = global) name f =
    let shard = shard_of registry in
    let os = push shard name in
    match f () with
    | result -> (result, pop registry shard name os)
    | exception e ->
      ignore (pop registry shard name os);
      raise e

  let with_ ?registry name f = fst (timed ?registry name f)

  let finished_by_shard registry =
    List.filter_map
      (fun s ->
        match List.rev s.sh_span_events with
        | [] -> None
        | events -> Some (s.sh_id, events))
      (shards registry)

  let finished registry =
    List.concat_map snd (finished_by_shard registry)

  let dropped registry =
    List.fold_left (fun acc s -> acc + s.sh_dropped) 0 (shards registry)
end

(* ---- gated helpers on the global registry ----------------------------- *)

let count name n = if Atomic.get enabled_flag then Counter.add (Counter.v name) n

let gauge name x = if Atomic.get enabled_flag then Gauge.set (Gauge.v name) x

let observe name x =
  if Atomic.get enabled_flag then Histogram.observe (Histogram.v name) x

let span name f = if Atomic.get enabled_flag then Span.with_ name f else f ()

(* Spans completed on the *calling domain* while [f] ran, oldest first —
   the per-request trace of a server worker. The collector rides on the
   shard instead of reading [sh_span_events], so the trace stays
   complete even after the registry's retention limit fills up (a
   long-running server must never lose its sampled traces). Events
   other domains record concurrently are invisible by design; nested
   collections see only their own window (the outer collection keeps
   the inner one's events too). *)
let with_local_trace ?(registry = global) f =
  let shard = shard_of registry in
  let saved = shard.sh_trace in
  shard.sh_trace <- Some [];
  match f () with
  | result ->
    (* [inner] is newest-first, like every event list on the shard. *)
    let inner = match shard.sh_trace with Some l -> l | None -> [] in
    shard.sh_trace <-
      (match saved with Some outer -> Some (inner @ outer) | None -> None);
    (result, List.rev inner)
  | exception e ->
    shard.sh_trace <- saved;
    raise e

(* ---- reports ---------------------------------------------------------- *)

module Report = struct
  type span_agg = {
    agg_path : string;
    agg_count : int;
    agg_total : float;
    agg_max : float;
  }

  type t = {
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * Histogram.summary) list;
    spans : span_agg list;
    dropped_spans : int;
  }

  (* Merged histogram accumulator across shards: exact moments plus the
     pooled reservoir samples for the percentile estimate. *)
  type hist_acc = {
    mutable a_count : int;
    mutable a_sum : float;
    mutable a_min : float;
    mutable a_max : float;
    mutable a_samples : float array list;
    a_buckets : int array;
  }

  let capture registry =
    let counters = Hashtbl.create 32 in
    let gauges = Hashtbl.create 16 in
    let hists = Hashtbl.create 32 in
    let events = ref [] (* per-shard event lists, shard order *) in
    let dropped = ref 0 in
    List.iter
      (fun s ->
        Mutex.lock s.sh_lock;
        Hashtbl.iter
          (fun name c ->
            (* the shared set value once per name, then every slice's adds *)
            let prev =
              match Hashtbl.find_opt counters name with
              | Some prev -> prev
              | None -> fst (Atomic.get c.c_base)
            in
            Hashtbl.replace counters name (prev + Counter.own c))
          s.sh_counters;
        Hashtbl.iter
          (fun name g ->
            let value, seq = Atomic.get g in
            match Hashtbl.find_opt gauges name with
            | Some (_, prev) when prev >= seq -> ()
            | _ -> Hashtbl.replace gauges name (value, seq))
          s.sh_gauges;
        Hashtbl.iter
          (fun name h ->
            let acc =
              match Hashtbl.find_opt hists name with
              | Some acc -> acc
              | None ->
                let acc =
                  {
                    a_count = 0;
                    a_sum = 0.0;
                    a_min = infinity;
                    a_max = neg_infinity;
                    a_samples = [];
                    a_buckets = Array.make n_buckets 0;
                  }
                in
                Hashtbl.add hists name acc;
                acc
            in
            acc.a_count <- acc.a_count + h.h_count;
            acc.a_sum <- acc.a_sum +. h.h_sum;
            if h.h_min < acc.a_min then acc.a_min <- h.h_min;
            if h.h_max > acc.a_max then acc.a_max <- h.h_max;
            acc.a_samples <-
              Array.sub h.reservoir 0 (min h.h_count reservoir_capacity)
              :: acc.a_samples;
            Array.iteri
              (fun i n -> acc.a_buckets.(i) <- acc.a_buckets.(i) + n)
              h.h_buckets)
          s.sh_histograms;
        (match List.rev s.sh_span_events with
        | [] -> ()
        | evs -> events := evs :: !events);
        dropped := !dropped + s.sh_dropped;
        Mutex.unlock s.sh_lock)
      (shards registry);
    let sorted table f =
      Hashtbl.fold (fun k v acc -> (k, f v) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let by_path = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun ev ->
        match Hashtbl.find_opt by_path ev.sp_path with
        | Some agg ->
          Hashtbl.replace by_path ev.sp_path
            {
              agg with
              agg_count = agg.agg_count + 1;
              agg_total = agg.agg_total +. ev.sp_duration;
              agg_max = Float.max agg.agg_max ev.sp_duration;
            }
        | None ->
          order := ev.sp_path :: !order;
          Hashtbl.add by_path ev.sp_path
            {
              agg_path = ev.sp_path;
              agg_count = 1;
              agg_total = ev.sp_duration;
              agg_max = ev.sp_duration;
            })
      (List.concat (List.rev !events));
    {
      counters = sorted counters (fun v -> v);
      gauges = sorted gauges fst;
      histograms =
        sorted hists (fun acc ->
            Histogram.summary_of ~count:acc.a_count ~sum:acc.a_sum
              ~min:acc.a_min ~max:acc.a_max
              ~samples:(Array.concat acc.a_samples)
              ~per_bound:acc.a_buckets);
      spans = List.rev_map (Hashtbl.find by_path) !order;
      dropped_spans = !dropped;
    }

  let summary_to_json (s : Histogram.summary) =
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("sum", Json.Float s.sum);
        ("min", Json.Float s.min);
        ("max", Json.Float s.max);
        ("mean", Json.Float s.mean);
        ("p50", Json.Float s.p50);
        ("p95", Json.Float s.p95);
        ("p99", Json.Float s.p99);
        ( "buckets",
          Json.List
            (List.map
               (fun (le, n) -> Json.Obj [ ("le", Json.Float le); ("n", Json.Int n) ])
               s.buckets) );
      ]

  let to_json t =
    Json.Obj
      [
        ("version", Json.Int 1);
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters));
        ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.gauges));
        ( "histograms",
          Json.Obj (List.map (fun (k, s) -> (k, summary_to_json s)) t.histograms) );
        ( "spans",
          Json.List
            (List.map
               (fun a ->
                 Json.Obj
                   [
                     ("path", Json.Str a.agg_path);
                     ("count", Json.Int a.agg_count);
                     ("total_s", Json.Float a.agg_total);
                     ("max_s", Json.Float a.agg_max);
                   ])
               t.spans) );
        ("dropped_spans", Json.Int t.dropped_spans);
      ]

  (* Parent of a slash-joined span path, if any. *)
  let parent_path path =
    match String.rindex_opt path '/' with
    | Some i -> Some (String.sub path 0 i)
    | None -> None

  let self_times t =
    (* Self time = total minus the totals of direct children (paths one
       component deeper); clamped at 0 against clock jitter. *)
    let children = Hashtbl.create 32 in
    List.iter
      (fun a ->
        match parent_path a.agg_path with
        | Some p ->
          Hashtbl.replace children p
            ((try Hashtbl.find children p with Not_found -> 0.0)
            +. a.agg_total)
        | None -> ())
      t.spans;
    List.map
      (fun a ->
        let kids =
          try Hashtbl.find children a.agg_path with Not_found -> 0.0
        in
        (a.agg_path, Float.max 0.0 (a.agg_total -. kids)))
      t.spans

  let pp_text ppf t =
    let nonempty = ref false in
    if t.spans <> [] then begin
      nonempty := true;
      let self = self_times t in
      let spans =
        List.sort
          (fun a b ->
            match Float.compare b.agg_total a.agg_total with
            | 0 -> String.compare a.agg_path b.agg_path
            | c -> c)
          t.spans
      in
      Format.fprintf ppf "spans (path, count, total s, self s, max s):@.";
      List.iter
        (fun a ->
          let s =
            try List.assoc a.agg_path self with Not_found -> a.agg_total
          in
          Format.fprintf ppf "  %-52s %8d %10.4f %10.4f %10.4f@." a.agg_path
            a.agg_count a.agg_total s a.agg_max)
        spans
    end;
    if t.counters <> [] then begin
      nonempty := true;
      Format.fprintf ppf "counters:@.";
      List.iter
        (fun (k, v) -> Format.fprintf ppf "  %-52s %12d@." k v)
        t.counters
    end;
    if t.gauges <> [] then begin
      nonempty := true;
      Format.fprintf ppf "gauges:@.";
      List.iter (fun (k, v) -> Format.fprintf ppf "  %-52s %12.4f@." k v) t.gauges
    end;
    if t.histograms <> [] then begin
      nonempty := true;
      Format.fprintf ppf "histograms (count, mean, p50, p95, p99, max):@.";
      List.iter
        (fun (k, s) ->
          Format.fprintf ppf "  %-44s %8d %10.4g %10.4g %10.4g %10.4g %10.4g@." k
            s.Histogram.count s.Histogram.mean s.Histogram.p50 s.Histogram.p95
            s.Histogram.p99 s.Histogram.max)
        t.histograms
    end;
    if t.dropped_spans > 0 then
      Format.fprintf ppf "dropped spans: %d@." t.dropped_spans;
    if not !nonempty then Format.fprintf ppf "telemetry: no measurements recorded@."

  let to_text t = Format.asprintf "%a" pp_text t
end

(* ---- Prometheus text exposition (format 0.0.4) ------------------------- *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
   (the dots of "engine.facts.derived", the spaces and slashes of
   endpoint names) becomes '_'. *)
let prometheus_name name =
  let ok_first c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  if name = "" then "_"
  else
    String.mapi
      (fun i c -> if (if i = 0 then ok_first c else ok c) then c else '_')
      name

(* HELP text escapes backslash and newline; a label value ([~quote])
   also the double quote. *)
let prom_escape ?(quote = false) s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Sample values, histogram sums and bucket bounds: integers render
   bare, the rest as [Json.float_repr] prints them (the shortest text
   that reads back to the same float). *)
let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Json.float_repr f

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape ~quote:true v))
           labels)
    ^ "}"

module Metric = struct
  type kind = Counter | Gauge

  type sample = {
    family : string;
    kind : kind;
    help : string;
    labels : (string * string) list;
    value : float;
  }

  type t = { path : string list; json : Json.t; sample : sample option }

  let json key json = { path = [ key ]; json; sample = None }

  let prom kind ?(labels = []) ~family ~help value =
    { path = []; json = Json.Null; sample = Some { family; kind; help; labels; value } }

  let exported kind ?labels ~family ~help key n =
    {
      (prom kind ?labels ~family ~help (float_of_int n)) with
      path = [ key ];
      json = Json.Int n;
    }

  let counter = exported Counter

  let gauge = exported Gauge

  (* An empty list keeps its key, as an empty object. *)
  let nest key = function
    | [] -> [ json key (Json.Obj []) ]
    | entries -> List.map (fun m -> { m with path = key :: m.path }) entries

  (* Entries sharing a first key nest into one object, keys in
     first-seen order; the lists are a few dozen entries long. *)
  let rec to_json entries =
    let entries = List.filter (fun m -> m.path <> []) entries in
    let keys =
      List.fold_left
        (fun acc m ->
          let k = List.hd m.path in
          if List.mem k acc then acc else k :: acc)
        [] entries
    in
    Json.Obj
      (List.rev_map
         (fun k ->
           match List.filter (fun m -> List.hd m.path = k) entries with
           | [ { path = [ _ ]; json; _ } ] -> (k, json)
           | mine -> (k, to_json (List.map (fun m -> { m with path = List.tl m.path }) mine)))
         keys)
end

module Prometheus = struct
  (* Each family renders HELP + TYPE + its samples; families whose
     names collide are dropped after the first so the exposition never
     contains duplicate series. *)
  let render ?(namespace = "vadasa") ?(metrics = []) (report : Report.t) =
    let buf = Buffer.create 2048 in
    let seen = Hashtbl.create 32 in
    let family full help typ emit =
      if not (Hashtbl.mem seen full) then begin
        Hashtbl.add seen full ();
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" full (prom_escape help));
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" full typ);
        emit full
      end
    in
    let registry_family name = family (namespace ^ "_" ^ prometheus_name name) in
    List.iter
      (fun (name, v) ->
        registry_family (name ^ "_total") ("Vada-SA counter " ^ name) "counter"
          (fun full -> Buffer.add_string buf (Printf.sprintf "%s %d\n" full v)))
      report.Report.counters;
    List.iter
      (fun (name, v) ->
        registry_family name ("Vada-SA gauge " ^ name) "gauge" (fun full ->
            Buffer.add_string buf (Printf.sprintf "%s %s\n" full (prom_float v))))
      report.Report.gauges;
    List.iter
      (fun (name, (s : Histogram.summary)) ->
        registry_family name ("Vada-SA histogram " ^ name) "histogram" (fun full ->
            List.iter
              (fun (le, n) ->
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" full
                     (prom_float le) n))
              s.Histogram.buckets;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" full
                 s.Histogram.count);
            Buffer.add_string buf
              (Printf.sprintf "%s_sum %s\n" full (prom_float s.Histogram.sum));
            Buffer.add_string buf
              (Printf.sprintf "%s_count %d\n" full s.Histogram.count)))
      report.Report.histograms;
    if report.Report.dropped_spans > 0 then
      registry_family "telemetry_dropped_spans_total"
        "Telemetry spans dropped by the retention limit" "counter" (fun full ->
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" full report.Report.dropped_spans));
    (* Labelled samples group by family, families in first-seen order;
       the first sample of a family gives its HELP and TYPE. *)
    let groups = Hashtbl.create 16 and order = ref [] in
    List.iter
      (fun (s : Metric.sample) ->
        match Hashtbl.find_opt groups s.family with
        | Some group -> Hashtbl.replace groups s.family (s :: group)
        | None ->
          order := s.family :: !order;
          Hashtbl.add groups s.family [ s ])
      (List.filter_map (fun (m : Metric.t) -> m.sample) metrics);
    List.iter
      (fun name ->
        let group = List.rev (Hashtbl.find groups name) in
        let first = List.hd group in
        let typ = match first.kind with Counter -> "counter" | Gauge -> "gauge" in
        family name first.help typ (fun full ->
            List.iter
              (fun (s : Metric.sample) ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %s\n" full (prom_labels s.labels)
                     (prom_float s.value)))
              group))
      (List.rev !order);
    Buffer.contents buf
end

let trace_json registry =
  Json.List
    (List.map
       (fun ev ->
         Json.Obj
           [
             ("name", Json.Str ev.sp_name);
             ("path", Json.Str ev.sp_path);
             ("start_s", Json.Float ev.sp_start);
             ("duration_s", Json.Float ev.sp_duration);
             ("depth", Json.Int ev.sp_depth);
           ])
       (Span.finished registry))

(* ---- trace exporters --------------------------------------------------- *)

type trace_format = Events | Chrome | Folded

let trace_format_of_string = function
  | "json" | "events" -> Ok Events
  | "chrome" | "perfetto" -> Ok Chrome
  | "folded" | "flamegraph" -> Ok Folded
  | other ->
    Error
      (Printf.sprintf "unknown trace format %s (use json, chrome or folded)"
         other)

(* Chrome/Perfetto trace-event JSON: one complete ("ph":"X") event per
   finished span, timestamps and durations in microseconds. Each
   registry shard is one thread of control, so the shard id becomes the
   tid and the viewers reconstruct per-domain nesting from interval
   containment within each track. *)
let trace_chrome registry =
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ( "traceEvents",
        Json.List
          (List.concat_map
             (fun (shard_id, events) ->
               List.map
                 (fun ev ->
                   Json.Obj
                     [
                       ("name", Json.Str ev.sp_name);
                       ("cat", Json.Str "span");
                       ("ph", Json.Str "X");
                       ("ts", Json.Float (ev.sp_start *. 1e6));
                       ("dur", Json.Float (ev.sp_duration *. 1e6));
                       ("pid", Json.Int 1);
                       ("tid", Json.Int (shard_id + 1));
                       ( "args",
                         Json.Obj
                           [
                             ("path", Json.Str ev.sp_path);
                             ("depth", Json.Int ev.sp_depth);
                           ] );
                     ])
                 events)
             (Span.finished_by_shard registry)) );
    ]

(* Folded-stacks lines for flamegraph.pl: "root;child;leaf <self µs>",
   one line per distinct span path (first-seen order), values are self
   time so the flamegraph's widths add up correctly. *)
let trace_folded registry =
  let totals = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun ev ->
      match Hashtbl.find_opt totals ev.sp_path with
      | Some t -> Hashtbl.replace totals ev.sp_path (t +. ev.sp_duration)
      | None ->
        order := ev.sp_path :: !order;
        Hashtbl.add totals ev.sp_path ev.sp_duration)
    (Span.finished registry);
  let children = Hashtbl.create 32 in
  Hashtbl.iter
    (fun path total ->
      match String.rindex_opt path '/' with
      | Some i ->
        let parent = String.sub path 0 i in
        Hashtbl.replace children parent
          ((try Hashtbl.find children parent with Not_found -> 0.0) +. total)
      | None -> ())
    totals;
  let buf = Buffer.create 256 in
  List.iter
    (fun path ->
      let total = Hashtbl.find totals path in
      let kids = try Hashtbl.find children path with Not_found -> 0.0 in
      let self_us =
        int_of_float (Float.max 0.0 (total -. kids) *. 1e6 +. 0.5)
      in
      let stack =
        String.concat ";" (String.split_on_char '/' path)
      in
      Buffer.add_string buf (Printf.sprintf "%s %d\n" stack self_us))
    (List.rev !order);
  Buffer.contents buf

let write_trace_as format registry path =
  let oc = open_out path in
  (match format with
  | Events ->
    output_string oc (Json.to_string ~indent:true (trace_json registry));
    output_char oc '\n'
  | Chrome ->
    output_string oc (Json.to_string ~indent:true (trace_chrome registry));
    output_char oc '\n'
  | Folded -> output_string oc (trace_folded registry));
  close_out oc
