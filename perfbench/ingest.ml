(* serve-ingest: the real `vadasa serve` as a child process, driven over
   loopback by this process as one closed-loop client (one connection at
   a time, never a retry). One op is the docs/STREAMING.md flow: append a
   small delta with POST /v1/datasets/{id}/facts, then read the
   maintained report with GET /v1/datasets/{id}/risk, timed together. *)

module S = Vadasa_sdc
module R = Vadasa_relational
module D = Vadasa_datagen
open Common

(* Datasets are registered with measure=individual: its appends keep no
   materialized chase (an aggregate-bound measure would rebuild the
   chase on every append, engine work reason-chase already measures), so
   HTTP, pool, registry, journal and incremental re-scoring dominate. *)
let datasets = 12
let base_rows = (200, 600)
let max_delta_rows = 3
let put_query = "measure=individual"

(* Two request workers on the 2-core reference host: with the client
   that is one runnable thread per core. Flush policy is the server
   default: group-commit fsync per journal record, snapshot every 64. *)
let serve_args ~dir ~metrics_out =
  [ "serve"; "--host"; "127.0.0.1"; "--port"; "0"; "--domains"; "2"; "--data-dir"; dir ]
  @ match metrics_out with
    | None -> []
    | Some file -> [ "--trace-sample"; "1"; "--metrics-out"; file ]

let snapshot_every = 64

(* ---- a minimal HTTP/1.1 client (the server closes every connection) -- *)

type response = { status : int; body : string }

let request ~port ?(headers = []) ?(body = "") meth path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let head =
        Printf.sprintf "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: %d\r\n%s\r\n"
          meth path (String.length body)
          (String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers))
      in
      let out = Bytes.of_string (head ^ body) in
      let off = ref 0 in
      while !off < Bytes.length out do
        off := !off + Unix.write fd out !off (Bytes.length out - !off)
      done;
      let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
      let rec read () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          read ()
        end
      in
      read ();
      let raw = Buffer.contents buf in
      let header_end =
        match find_sub raw "\r\n\r\n" with
        | Some i -> i
        | None -> failwith "truncated response"
      in
      let status = Scanf.sscanf raw "HTTP/1.1 %d" Fun.id in
      let body = String.sub raw (header_end + 4) (String.length raw - header_end - 4) in
      let declared =
        String.split_on_char '\n' (String.sub raw 0 header_end)
        |> List.find_map (fun line ->
               match String.index_opt line ':' with
               | Some i
                 when String.lowercase_ascii (String.trim (String.sub line 0 i))
                      = "content-length" ->
                 int_of_string_opt
                   (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
               | _ -> None)
      in
      (match declared with
      | Some n when n <> String.length body -> failwith "body shorter than content-length"
      | _ -> ());
      { status; body })

(* ---- the server child ------------------------------------------------ *)

type server = { pid : int; port : int; out : Unix.file_descr }

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let stop server =
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] server.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close server.out

(* Boot and return once the server prints its `listening on` line; the
   port is read from that line. *)
let start ~vadasa ~dir ~metrics_out =
  let args = serve_args ~dir ~metrics_out in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile (Filename.concat dir "server.err")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out_w; Unix.close err)
      (fun () -> Unix.create_process vadasa (Array.of_list (vadasa :: args)) Unix.stdin out_w err)
  in
  let server port = { pid; port; out = out_r } in
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = now () +. 60.0 in
  let marker = "listening on http://127.0.0.1:" in
  let rec wait () =
    let text = Buffer.contents buf in
    match find_sub text marker with
    | Some i ->
      let rest = String.sub text (i + String.length marker) (String.length text - i - String.length marker) in
      (match Scanf.sscanf_opt rest "%d " Fun.id with
      | Some port when String.contains rest '\n' -> port
      | _ -> read_more ())
    | None -> read_more ()
  and read_more () =
    let remaining = deadline -. now () in
    if remaining <= 0.0 then failwith "vadasa serve did not report listening within 60 s";
    match Unix.select [ out_r ] [] [] remaining with
    | [], _, _ -> read_more ()
    | _ ->
      let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
      if n = 0 then failwith ("vadasa serve exited before listening: " ^ Buffer.contents buf);
      Buffer.add_subbytes buf chunk 0 n;
      wait ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_more ()
  in
  match wait () with
  | port -> (server port, args)
  | exception e ->
    stop (server 0);
    raise e

(* ---- inputs ----------------------------------------------------------- *)

type delta = { dataset : int; csv : string; rows : int }

type inputs = { bases : string array; base_rows_of : int array; deltas : delta array }

let dataset_id d = Printf.sprintf "ds%d" d

let distributions = [| D.Generator.W; D.Generator.U; D.Generator.V |]

(* Op [i] appends to dataset [i mod datasets]; its row count cycles
   through 1..max_delta_rows, so every seed sends the same number of
   rows to every dataset. *)
let delta_rows i = 1 + (i / datasets mod max_delta_rows)

let generate ~seed ~ops =
  let lo, hi = base_rows in
  let per_dataset =
    Array.init datasets (fun d ->
        let rng = rng_for ~seed d in
        let base = stratified rng ~lo ~hi ~stratum:d ~strata:datasets in
        let appended = ref 0 in
        for i = 0 to ops - 1 do
          if i mod datasets = d then appended := !appended + delta_rows i
        done;
        (* One sample: its first [base] rows are registered, the rest are
           appended by the ops. *)
        let md =
          D.Generator.generate
            {
              D.Generator.name = dataset_id d;
              tuples = base + !appended;
              qi_count = 4;
              distribution = distributions.(d mod Array.length distributions);
              seed = Rng.int rng 0x3FFFFFFF;
            }
        in
        match
          String.split_on_char '\n' (R.Csv.write_string (S.Microdata.relation md))
          |> List.filter (fun l -> l <> "")
        with
        | header :: rows -> (header, base, Array.of_list rows)
        | [] -> assert false)
  in
  let document header rows = String.concat "\n" (header :: rows) ^ "\n" in
  let next = Array.map (fun (_, base, _) -> base) per_dataset in
  let deltas =
    Array.init ops (fun i ->
        let d = i mod datasets in
        let header, _, rows = per_dataset.(d) in
        let n = delta_rows i in
        let csv = document header (Array.to_list (Array.sub rows next.(d) n)) in
        next.(d) <- next.(d) + n;
        { dataset = d; csv; rows = n })
  in
  {
    bases =
      Array.map
        (fun (header, base, rows) -> document header (Array.to_list (Array.sub rows 0 base)))
        per_dataset;
    base_rows_of = Array.map (fun (_, base, _) -> base) per_dataset;
    deltas;
  }

(* ---- GET /metrics (Prometheus text) ---------------------------------- *)

let scrape ~port =
  let r = request ~port ~headers:[ ("accept", "text/plain") ] "GET" "/metrics" in
  if r.status <> 200 then failwith (Printf.sprintf "GET /metrics answered %d" r.status);
  String.split_on_char '\n' r.body
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | Some i ->
             Option.map
               (fun v -> (String.sub line 0 i, v))
               (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
           | None -> None)

let counter_delta before after name =
  let get m = Option.value ~default:0.0 (List.assoc_opt name m) in
  get after -. get before

(* ---- one segment: boot, register, drive the op list, check ----------- *)

(* A run is [segments] identical segments, each on a freshly booted
   server: the server's speed varies between processes more than within
   one, so pooling several processes per run steadies the run's
   figures. Each segment's boot and registration is one set-up sample. *)
let segments = 6
let ops_per_second = 600.0

type segment = {
  latencies : float array;
  setup_s : float;
  peak_rss_mb : float;
  totals : Layers.t;  (** raw sums, turned into per-layer metrics by [layer_metrics] *)
  snapshot_ms : float list;
  args : string list;
}

let put_all ~port inputs =
  Array.iteri
    (fun d csv ->
      let r =
        request ~port ~headers:[ ("content-type", "text/csv") ] ~body:csv "PUT"
          (Printf.sprintf "/v1/datasets/%s?%s" (dataset_id d) put_query)
      in
      if r.status <> 201 then
        failwith (Printf.sprintf "PUT %s answered %d: %s" (dataset_id d) r.status r.body))
    inputs.bases

let facts_route = "vadasa_http_latency_POST_v1_datasets__id__facts"
let risk_route = "vadasa_http_latency_GET_v1_datasets__id__risk"

(* Server-side totals scraped from GET /metrics around the timed ops. *)
let scraped =
  [
    ("handler_append_s", facts_route ^ "_sum");
    ("handler_read_s", risk_route ^ "_sum");
    ("handler_appends", facts_route ^ "_count");
    ("handler_reads", risk_route ^ "_count");
    ("journal_appends", "vadasa_journal_appends_total");
    ("journal_fsyncs", "vadasa_journal_fsyncs_total");
    ("journal_bytes", "vadasa_journal_bytes_total");
    ("snapshots", "vadasa_journal_snapshots_total");
    ("pool_rejected", "vadasa_pool_jobs_total{outcome=\"rejected\"}");
    ("pool_expired", "vadasa_pool_jobs_total{outcome=\"expired\"}");
  ]

(* Span totals from the --trace-sample 1 request traces on the
   --metrics-out sink. *)
let add_traced_spans totals file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match Json.of_string (input_line ic) with
          | Ok j when Json.member "trace" j = Some (Json.Str "request") ->
            List.iter
              (fun span ->
                match
                  ( Option.bind (Json.member "name" span) Json.to_string_opt,
                    Option.bind (Json.member "duration_s" span) Json.to_float_opt )
                with
                | Some name, Some dur -> Layers.add totals ("span:" ^ name) dur
                | _ -> ())
              (Option.value ~default:[] (Option.bind (Json.member "spans" j) Json.to_list_opt))
          | _ -> ()
        done
      with End_of_file -> ())

let run_segment ~vadasa ~root ~seed ~ops ~traced ~fail k =
  let dir = Filename.concat root (Printf.sprintf "%s%d" (if traced then "t" else "u") k) in
  let data = Filename.concat dir "data" in
  Unix.mkdir dir 0o755;
  Unix.mkdir data 0o755;
  let metrics_out = if traced then Some (Filename.concat dir "metrics.jsonl") else None in
  let t0 = now () in
  let inputs = generate ~seed ~ops in
  let server, args = start ~vadasa ~dir:data ~metrics_out in
  let totals = Layers.create () in
  let latencies = Array.make ops 0.0 in
  let snapshot_ms = ref [] in
  let setup_s, peak =
    Fun.protect ~finally:(fun () -> stop server) @@ fun () ->
    let port = server.port in
    put_all ~port inputs;
    let setup_s = now () -. t0 in
    let before = scrape ~port in
    let expected_rows = Array.copy inputs.base_rows_of in
    Array.iteri
      (fun i delta ->
        let id = dataset_id delta.dataset in
        expected_rows.(delta.dataset) <- expected_rows.(delta.dataset) + delta.rows;
        let t0 = now () in
        match
          let post =
            request ~port ~headers:[ ("content-type", "text/csv") ] ~body:delta.csv "POST"
              (Printf.sprintf "/v1/datasets/%s/facts" id)
          in
          let t1 = now () in
          let get = request ~port "GET" (Printf.sprintf "/v1/datasets/%s/risk" id) in
          (post, get, t1, now ())
        with
        | exception Interrupted -> raise Interrupted
        | exception e ->
          latencies.(i) <- now () -. t0;
          fail (Printexc.to_string e)
        | post, get, t1, t2 ->
          latencies.(i) <- t2 -. t0;
          Layers.add totals "append_s" (t1 -. t0);
          Layers.add totals "read_s" (t2 -. t1);
          Layers.add totals "read_bytes" (float_of_int (String.length get.body));
          (* The append is journal record [datasets + i + 1]; every
             [snapshot_every]th record also writes a snapshot. *)
          if (datasets + i + 1) mod snapshot_every = 0 then
            snapshot_ms := ((t2 -. t0) *. 1000.0) :: !snapshot_ms;
          let answer = Result.value ~default:Json.Null (Json.of_string post.body) in
          let int_field name = Option.bind (Json.member name answer) Json.to_int_opt in
          if post.status <> 200 then fail (Printf.sprintf "append answered %d" post.status)
          else if get.status <> 200 then fail (Printf.sprintf "read answered %d" get.status)
          else if int_field "rows_total" <> Some expected_rows.(delta.dataset) then
            fail
              (Printf.sprintf "%s: rows_total %s, client sent %d" id
                 (Option.fold ~none:"missing" ~some:string_of_int (int_field "rows_total"))
                 expected_rows.(delta.dataset))
          else begin
            let add name field =
              Layers.add totals name
                (float_of_int (Option.value ~default:0 (int_field field)))
            in
            add "rows_added" "rows_added";
            add "rows_rescored" "rows_rescored";
            match Json.member "risk_fallback" answer with
            | None | Some Json.Null -> ()
            | Some _ -> Layers.add totals "full_rescores" 1.0
          end)
      inputs.deltas;
    let after = scrape ~port in
    let peak = peak_rss_mb (Some server.pid) in
    List.iter (fun (name, series) -> Layers.add totals name (counter_delta before after series)) scraped;
    (* Incremental == from scratch: each maintained report is byte-equal
       to a full re-estimate of the same dataset. *)
    Array.iteri
      (fun d _ ->
        let path = Printf.sprintf "/v1/datasets/%s/risk" (dataset_id d) in
        match (request ~port "GET" path, request ~port "GET" (path ^ "?mode=full")) with
        | inc, full when inc.status = 200 && full.status = 200 && String.equal inc.body full.body
          -> ()
        | inc, full ->
          fail
            (Printf.sprintf "%s: maintained report (%d) differs from ?mode=full (%d)"
               (dataset_id d) inc.status full.status)
        | exception Interrupted -> raise Interrupted
        | exception e -> fail (Printexc.to_string e))
      inputs.bases;
    (setup_s, peak)
  in
  Option.iter (add_traced_spans totals) metrics_out;
  remove_tree dir;
  (* Reconciliation: the server saw exactly the requests sent. *)
  let nf = float_of_int ops in
  if Layers.get totals "handler_appends" <> nf || Layers.get totals "handler_reads" <> nf then
    fail "the server's request counts differ from the requests sent";
  { latencies; setup_s; peak_rss_mb = peak; totals; snapshot_ms = !snapshot_ms; args }

type phase = {
  all_latencies : float array;
  setup_times : float list;
  peaks : float list;
  sum : Layers.t;
  snapshots_ms : float list;
  serve_args : string list;
}

let run_phase ~vadasa ~root ~seed ~ops ~traced ~fail =
  let segs =
    List.init segments (fun k -> run_segment ~vadasa ~root ~seed ~ops ~traced ~fail (k + 1))
  in
  let sum = Layers.create () in
  List.iter
    (fun s -> List.iter (fun name -> Layers.add sum name (Layers.get s.totals name)) s.totals.Layers.order)
    segs;
  {
    all_latencies = Array.concat (List.map (fun s -> s.latencies) segs);
    setup_times = List.map (fun s -> s.setup_s) segs;
    peaks = List.map (fun s -> s.peak_rss_mb) segs;
    sum;
    snapshots_ms = List.concat_map (fun s -> s.snapshot_ms) segs;
    serve_args = (List.hd segs).args;
  }

let layer_metrics ~ops p =
  let g = Layers.get p.sum in
  let per_op x = x *. 1000.0 /. float_of_int ops in
  let handler_s = g "handler_append_s" +. g "handler_read_s" in
  let client_s = g "append_s" +. g "read_s" in
  [
    ("server.append_ms", per_op (g "append_s"));
    ("server.read_ms", per_op (g "read_s"));
    ("server.handler.append_ms", per_op (g "handler_append_s"));
    ("server.handler.read_ms", per_op (g "handler_read_s"));
    ("server.transport_ms", per_op (client_s -. handler_s));
    ("trace.handler_share", handler_s /. client_s);
    ("sdc.risk.rows_rescored_per_row", g "rows_rescored" /. Float.max 1.0 (g "rows_added"));
    ("sdc.risk.full_rescores", g "full_rescores");
    ("server.journal.appends_per_fsync", g "journal_appends" /. Float.max 1.0 (g "journal_fsyncs"));
    ("server.journal.bytes_per_row", g "journal_bytes" /. Float.max 1.0 (g "rows_added"));
    ("server.persist.snapshots", g "snapshots");
    ( "server.persist.snapshot_op_ms",
      match p.snapshots_ms with [] -> 0.0 | l -> median l );
    ("server.codec.read_bytes", g "read_bytes" /. float_of_int ops);
    ("server.pool.rejected", g "pool_rejected");
    ("server.pool.expired", g "pool_expired");
    ("server.registry.append_ms", per_op (g "span:registry.append"));
    ("sdc.risk.append_ms", per_op (g "span:sdc.risk.append"));
  ]

let run ~vadasa ~seed ~seconds ~trace =
  let per_segment =
    op_count ~seconds ~ops_per_second ~min_ops:(segments * 100) / segments
  in
  let ops = per_segment * segments in
  let work = ".perfbench_run" in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let root = Filename.concat work (string_of_int (Unix.getpid ())) in
  remove_tree root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> remove_tree root; try Sys.rmdir work with Sys_error _ -> ())
  @@ fun () ->
  log "serve-ingest: %d segments of %d ops over %d datasets" segments per_segment datasets;
  let failed = ref 0 and errors = ref [] in
  let fail msg =
    incr failed;
    if List.length !errors < 5 then errors := msg :: !errors
  in
  let untraced = run_phase ~vadasa ~root ~seed ~ops:per_segment ~traced:false ~fail in
  let rate p = float_of_int ops /. Array.fold_left ( +. ) 0.0 p.all_latencies in
  let traced =
    if trace then Some (run_phase ~vadasa ~root ~seed ~ops:per_segment ~traced:true ~fail)
    else None
  in
  let layers, flags_traced =
    match traced with
    | None -> ([], [])
    | Some t ->
      (* Everything /metrics and the client see comes from the untraced
         phase; only the span totals need the traced server. *)
      let untraced_layers = layer_metrics ~ops untraced in
      let traced_layers = layer_metrics ~ops t in
      ( List.map
          (fun (name, v) ->
            match name with
            | "server.registry.append_ms" | "sdc.risk.append_ms" ->
              (name, List.assoc name traced_layers)
            | _ -> (name, v))
          untraced_layers
        @ [ ("trace.ops_per_s_untraced", rate untraced); ("trace.ops_per_s_traced", rate t) ],
        [ ("serve_flags_traced", Json.List (List.map (fun a -> Json.Str a) t.serve_args)) ] )
  in
  {
    Common.latencies = untraced.all_latencies;
    attempted = (if trace then 2 * ops else ops);
    failed = !failed;
    setup_s = median untraced.setup_times;
    peak_rss_mb = median untraced.peaks;
    layers;
    details =
      [
        ("ops", Json.Int ops);
        ("segments", Json.Int segments);
        ("datasets", Json.Int datasets);
        ("serve_flags", Json.List (List.map (fun a -> Json.Str a) untraced.serve_args));
      ]
      @ flags_traced
      @ [ ("errors", Json.List (List.map (fun e -> Json.Str e) (List.rev !errors))) ];
  }
