(* The persistent dataset registry: named datasets that survive across
   requests and grow by appended rows, each carrying its materialized
   SDC state — the incremental risk scorer over the live microdata.

   Consistency contract: an entry only ever moves between consistent
   states. [append] validates the delta and fires the ["dataset.append"]
   fault point *before* touching any entry state; once mutation starts,
   the relation and the risk scorer commit atomically under the entry
   mutex. Readers and the single appender of an entry serialize on the
   per-entry mutex; the registry table has its own lock (never held
   while an entry's work runs).

   Evicted and deleted entries just drop: they own nothing to stop. *)

module E = Vadasa_base.Error
module Json = Vadasa_base.Json
module Faultpoint = Vadasa_resilience.Faultpoint
module Telemetry = Vadasa_telemetry.Telemetry
module R = Vadasa_relational
module S = Vadasa_sdc

type entry = {
  id : string;
  digest : string;  (* of the base payload; makes PUT idempotent *)
  options : Codec.options;
  measure : S.Risk.measure;
  semantics : R.Null_semantics.t;
  md : S.Microdata.t;  (* the live relation; rows appended in place *)
  csv : string Queue.t;
      (* [Csv.write_string] of [md]'s relation, kept in step with it:
         the render the entry started from, then each append's rows.
         Snapshots and [?include=csv] copy it instead of re-rendering
         every row. Pieces, not one growing buffer: the PUT's render is
         kept as it is, and a snapshot escapes each piece in place. *)
  scorer : S.Risk.Incremental.t;
  mutable bytes : int;  (* CSV bytes accepted (base + deltas) *)
  mutable appends : int;
  created_at : float;
  mutable updated_at : float;
  mu : Mutex.t;
  mutable last_used : int;  (* registry LRU tick *)
  text : Codec.Report_text.t;  (* per-row text of the last rendered report *)
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mu : Mutex.t;  (* guards [table], [tick] and the lifetime counters *)
  mutable tick : int;
  mutable evictions : int;
  mutable lifetime_appends : int;  (* survives delete/evict *)
  audit : (string -> unit) option;
  persist : Persist.t option;  (* journal+snapshot store; None = in-memory *)
}

(* [create] (at the bottom of the file) also registers the registry
   with the persistence layer; this raw constructor is everything
   else. *)
let make ?(capacity = 16) ?audit ?persist () =
  if capacity < 1 then invalid_arg "Registry.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create 16;
    mu = Mutex.create ();
    tick = 0;
    evictions = 0;
    lifetime_appends = 0;
    audit;
    persist;
  }

(* Run [f commit_now] under the persistence layer's shared commit lock
   (a no-op without [--data-dir] and during replay): [commit_now]
   durably journals [record] — called by [f] after all validation, at
   the moment the mutation becomes inevitable, so a journal failure
   aborts with nothing applied and an acknowledged mutation is always
   recoverable. *)
let with_commit t ~record f =
  match t.persist with
  | None -> f (fun () -> ())
  | Some p -> Persist.commit p ~record f

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let not_found id =
  E.make ~code:"dataset.not_found" E.Wardedness
    (Printf.sprintf "no dataset registered under id %s" id)
    ~context:[ ("dataset", id) ]

let conflict id detail =
  E.make ~code:"dataset.conflict" E.Wardedness
    (Printf.sprintf "dataset %s: %s" id detail)
    ~context:[ ("dataset", id) ]

(* Ids appear in audit lines and URLs; keep them to a tame charset so
   neither needs escaping (metric series never carry them at all). *)
let validate_id id =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
    | _ -> false
  in
  if
    id = "" || String.length id > 128
    || not (String.for_all ok_char id)
    || id.[0] = '.'
  then
    E.fail ~code:"dataset.bad_id" E.Parse
      (Printf.sprintf
         "invalid dataset id %S (want 1-128 chars of [A-Za-z0-9._-], not \
          starting with a dot)"
         id)
      ~context:[ ("dataset", id) ]

(* ---- audit trail -------------------------------------------------------- *)

(* One compact JSON object per line, deterministic field order — the
   same JSONL conventions as the anonymization cycle's audit trail
   (lib/sdc/audit); the schema is documented in docs/STREAMING.md. *)
let audit_line t fields =
  match t.audit with
  | None -> ()
  | Some sink ->
    sink
      (Json.to_string
         (Json.Obj (("ts", Json.Float (Unix.gettimeofday ())) :: fields)))

(* ---- registration ------------------------------------------------------- *)

type put_outcome = { entry : entry; created : bool }

let kept_text csv =
  let text = Queue.create () in
  Queue.add csv text;
  text

(* caller holds [t.mu] *)
let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick

(* caller holds [t.mu] *)
let evict_lru t =
  if Cache.evict_lru t.table ~last_used:(fun (e : entry) -> e.last_used) then
    t.evictions <- t.evictions + 1

let put t ~id ~digest ~bytes ~(options : Codec.options) ~measure ~semantics
    (md : S.Microdata.t) =
  validate_id id;
  Telemetry.span "registry.put" @@ fun () ->
  (match
     with_lock t.mu (fun () ->
         match Hashtbl.find_opt t.table id with
         | Some existing ->
           touch t existing;
           Some existing
         | None -> None)
   with
  | Some existing ->
    if String.equal existing.digest digest && existing.appends = 0 then
      (* Idempotent re-PUT of the same base payload. *)
      Some { entry = existing; created = false }
    else
      raise
        (E.Error
           (conflict id
              "already registered with different content (DELETE it first)"))
  | None -> None)
  |> function
  | Some outcome -> outcome
  | None ->
    (* The expensive state is built before the entry is published:
       losing a PUT race below just discards this candidate. *)
    let risk = S.Risk.Incremental.create ~semantics measure md in
    let csv = R.Csv.write_string (S.Microdata.relation md) in
    let now = Unix.gettimeofday () in
    let entry =
      {
        id;
        digest;
        options;
        measure;
        semantics;
        md;
        csv = kept_text csv;
        scorer = risk;
        bytes;
        appends = 0;
        created_at = now;
        updated_at = now;
        mu = Mutex.create ();
        last_used = 0;
        text = Codec.Report_text.create ();
      }
    in
    let record =
      Json.Obj
        [
          ("kind", Json.Str "dataset.put");
          ("id", Json.Str id);
          ("digest", Json.Str digest);
          ("bytes", Json.Int bytes);
          ("csv", Json.Str csv);
          ("options", Codec.options_to_json options);
        ]
    in
    let outcome =
      with_commit t ~record @@ fun commit_now ->
      with_lock t.mu (fun () ->
          match Hashtbl.find_opt t.table id with
          | Some winner ->
            (* another domain registered the id while we built; their
               commit already journaled the dataset *)
            touch t winner;
            if String.equal winner.digest digest && winner.appends = 0 then
              { entry = winner; created = false }
            else
              raise
                (E.Error
                   (conflict id
                      "already registered with different content (DELETE it \
                       first)"))
          | None ->
            (* Durable before visible: the journal write happens at the
               last instant before publication, so a journal failure
               leaves no entry and a published entry is recoverable. *)
            commit_now ();
            if Hashtbl.length t.table >= t.capacity then evict_lru t;
            Hashtbl.replace t.table id entry;
            touch t entry;
            { entry; created = true })
    in
    if outcome.created then
      audit_line t
        [
          ("dataset", Json.Str id);
          ("event", Json.Str "register");
          ("rows", Json.Int (S.Microdata.cardinal md));
        ];
    outcome

let find t id =
  with_lock t.mu (fun () ->
      match Hashtbl.find_opt t.table id with
      | Some entry ->
        touch t entry;
        Some entry
      | None -> None)

let get t id =
  match find t id with
  | Some entry -> entry
  | None -> raise (E.Error (not_found id))

let delete t id =
  let record =
    Json.Obj [ ("kind", Json.Str "dataset.delete"); ("id", Json.Str id) ]
  in
  let deleted =
    with_commit t ~record @@ fun commit_now ->
    with_lock t.mu (fun () ->
        if Hashtbl.mem t.table id then (
          commit_now ();
          Hashtbl.remove t.table id;
          true)
        else false)
  in
  if deleted then
    audit_line t [ ("dataset", Json.Str id); ("event", Json.Str "delete") ];
  deleted

let ids t =
  with_lock t.mu (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) t.table [])
  |> List.sort String.compare

(* ---- delta ingestion ---------------------------------------------------- *)

type append_outcome = {
  rows_added : int;
  rows_total : int;
  risk : S.Risk.Incremental.outcome;
}

(* Parse and validate a delta CSV against the entry's schema — pure, no
   entry state touched; every failure here leaves the dataset exactly as
   it was. The delta must carry the same header as the base document. *)
let parse_delta (entry : entry) csv =
  let rel =
    try R.Csv.read_string ~name:(S.Microdata.name entry.md) csv
    with E.Error e -> raise (E.Error { e with E.code = "dataset.bad_delta" })
  in
  let base = S.Microdata.schema entry.md in
  let got = R.Schema.attribute_names (R.Relation.schema rel) in
  let want = R.Schema.attribute_names base in
  if got <> want then
    raise
      (E.Error
         (conflict entry.id
            (Printf.sprintf
               "delta header [%s] does not match the dataset's schema [%s]"
               (String.concat ", " got)
               (String.concat ", " want))));
  rel

let append t (entry : entry) ~csv =
  Telemetry.span "registry.append" @@ fun () ->
  (* Validate outside any lock (pure), mutate inside the entry lock:
     concurrent appends to different entries never serialize on each
     other, and a validation failure leaves no state to unwind. *)
  let delta = parse_delta entry csv in
  let record =
    Json.Obj
      [
        ("kind", Json.Str "dataset.append");
        ("id", Json.Str entry.id);
        ("csv", Json.Str csv);
      ]
  in
  with_commit t ~record @@ fun commit_now ->
  with_lock entry.mu @@ fun () ->
  (* Mid-append failure injection: after validation, before any entry
     state changes — an injected fault leaves the registry at the last
     consistent state (asserted by the resilience tests). *)
  Faultpoint.hit "dataset.append";
  (* Durable before applied: journal failure aborts here, with the
     entry untouched; journal success means this delta replays even if
     the process dies before the next line executes. *)
  commit_now ();
  let rel = S.Microdata.relation entry.md in
  let lo = R.Relation.cardinal rel in
  R.Relation.iter (fun tuple -> R.Relation.add rel tuple) delta;
  (let rows = Buffer.create (String.length csv) in
   R.Csv.add_rows rows delta;
   Queue.add (Buffer.contents rows) entry.csv);
  let hi = R.Relation.cardinal rel in
  let risk_outcome = S.Risk.Incremental.append entry.scorer in
  entry.appends <- entry.appends + 1;
  entry.bytes <- entry.bytes + String.length csv;
  entry.updated_at <- Unix.gettimeofday ();
  with_lock t.mu (fun () -> t.lifetime_appends <- t.lifetime_appends + 1);
  let outcome = { rows_added = hi - lo; rows_total = hi; risk = risk_outcome } in
  audit_line t
    [
      ("dataset", Json.Str entry.id);
      ("event", Json.Str "append");
      ("rows_added", Json.Int outcome.rows_added);
      ("rows_total", Json.Int outcome.rows_total);
      ("rows_rescored", Json.Int risk_outcome.S.Risk.Incremental.rows_rescored);
      ( "groups_touched",
        Json.Int risk_outcome.S.Risk.Incremental.groups_touched );
      ( "risk_fallback",
        match risk_outcome.S.Risk.Incremental.fallback with
        | None -> Json.Null
        | Some f -> Json.Str (S.Risk.Incremental.fallback_to_string f) );
    ];
  outcome

(* ---- introspection ------------------------------------------------------ *)

let entry_options entry = entry.options

let entry_measure entry = entry.measure

let entry_semantics (entry : entry) = entry.semantics

let entry_report (entry : entry) =
  with_lock entry.mu (fun () -> S.Risk.Incremental.report entry.scorer)

let risk_report_string ~threshold (entry : entry) =
  with_lock entry.mu @@ fun () ->
  Codec.risk_report_string ~text:entry.text ~threshold entry.md
    (S.Risk.Incremental.report entry.scorer)

let formatted_floats (entry : entry) =
  with_lock entry.mu (fun () -> Codec.Report_text.formatted entry.text)

let entry_csv (entry : entry) =
  with_lock entry.mu (fun () ->
      String.concat "" (List.of_seq (Queue.to_seq entry.csv)))

let entry_md_snapshot (entry : entry) =
  with_lock entry.mu (fun () -> S.Microdata.copy entry.md)

let entry_json (entry : entry) =
  with_lock entry.mu (fun () ->
      Json.Obj
        [
          ("id", Json.Str entry.id);
          ("dataset", Json.Str (S.Microdata.name entry.md));
          ("rows", Json.Int (S.Microdata.cardinal entry.md));
          ("bytes", Json.Int entry.bytes);
          ("measure", Json.Str (S.Risk.measure_to_string entry.measure));
          ("threshold", Json.Float entry.options.Codec.threshold);
          ( "semantics",
            Json.Str (R.Null_semantics.to_string entry.semantics) );
          ("appends", Json.Int entry.appends);
          ( "risk_full_rescores",
            Json.Int (S.Risk.Incremental.full_rescores entry.scorer) );
          ("created_at", Json.Float entry.created_at);
          ("updated_at", Json.Float entry.updated_at);
        ])

(* Aggregates only — never labelled per dataset id (ids are
   client-chosen; series cardinality must stay bounded). *)
let metrics t =
  let module M = Telemetry.Metric in
  with_lock t.mu (fun () ->
      let bytes, rows =
        Hashtbl.fold
          (fun _ (e : entry) (b, r) -> (b + e.bytes, r + S.Microdata.cardinal e.md))
          t.table (0, 0)
      in
      [
        M.gauge ~family:"vadasa_datasets_registered"
          ~help:"Datasets live in the registry" "registered" (Hashtbl.length t.table);
        M.json "capacity" (Json.Int t.capacity);
        M.gauge ~family:"vadasa_datasets_rows"
          ~help:"Rows across live registered datasets (base + deltas)" "rows" rows;
        M.gauge ~family:"vadasa_datasets_bytes"
          ~help:"CSV bytes accepted by live registered datasets" "bytes" bytes;
        M.counter ~family:"vadasa_datasets_appends_total"
          ~help:"Delta appends absorbed by the registry" "appends" t.lifetime_appends;
        M.counter ~family:"vadasa_datasets_evictions_total"
          ~help:"Datasets evicted by the registry's LRU bound" "evictions" t.evictions;
      ])

(* ---- persistence: snapshot dump/restore + journal replay ----------------- *)

let bad_record detail =
  E.Error (E.make ~code:"persist.bad_record" E.Io ("journal record: " ^ detail))

let record_string json key =
  match Option.bind (Json.member key json) Json.to_string_opt with
  | Some s -> s
  | None -> raise (bad_record ("missing string field " ^ key))

let record_int json key =
  match Option.bind (Json.member key json) Json.to_int_opt with
  | Some n -> n
  | None -> raise (bad_record ("missing int field " ^ key))

(* Decode the pieces a [dataset.put] needs — shared by snapshot restore
   and journal replay. The stored CSV is the canonical union document,
   so the rebuilt scorer covers exactly the rows the crashed process
   held (reports are byte-identical because incremental state always
   equals from-scratch state over the union).
   The one lenient decode: an unknown semantics is read as maybe-match,
   which is how data dirs written before registration rejected it were
   scored. *)
let decode_dataset_state json =
  let options =
    match Json.member "options" json with
    | Some options_json -> (
      match Codec.options_of_json options_json with
      | Ok options -> options
      | Error e -> raise (E.Error e))
    | None -> raise (bad_record "missing options")
  in
  let measure =
    match Codec.measure_of_options options with
    | Ok m -> m
    | Error e -> raise (E.Error e)
  in
  let csv = record_string json "csv" in
  let md =
    match Codec.microdata_of_payload { Codec.csv; options } with
    | Ok md -> md
    | Error e -> raise (E.Error e)
  in
  let semantics =
    Result.value (Codec.semantics_of_options options)
      ~default:R.Null_semantics.Maybe_match
  in
  (options, measure, semantics, md)

(* Streams the section straight into the snapshot's buffer; the bytes
   are what [Json.to_string] gives for the object with these fields in
   this order. *)
let dump t buf =
  let entries =
    with_lock t.mu (fun () ->
        Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
    (* oldest-used first, so restore re-creates the same LRU order *)
    |> List.sort (fun (a : entry) b -> compare a.last_used b.last_used)
  in
  let member ?(first = false) key value =
    Json.add_member buf ~first key;
    Json.to_buffer buf value
  in
  let entry_dump i (e : entry) =
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_char buf '{';
    with_lock e.mu (fun () ->
        member ~first:true "id" (Json.Str e.id);
        member "digest" (Json.Str e.digest);
        member "bytes" (Json.Int e.bytes);
        member "appends" (Json.Int e.appends);
        member "created_at" (Json.Float e.created_at);
        member "updated_at" (Json.Float e.updated_at);
        Json.add_member buf ~first:false "csv";
        Buffer.add_char buf '"';
        Queue.iter (Json.add_escaped buf) e.csv;
        Buffer.add_char buf '"';
        member "options" (Codec.options_to_json e.options));
    Buffer.add_char buf '}'
  in
  Buffer.add_char buf '{';
  with_lock t.mu (fun () ->
      member ~first:true "lifetime_appends" (Json.Int t.lifetime_appends);
      member "evictions" (Json.Int t.evictions));
  Json.add_member buf ~first:false "entries";
  (match entries with
  | [] -> Buffer.add_string buf "[]"
  | _ ->
    Buffer.add_char buf '[';
    List.iteri entry_dump entries;
    Buffer.add_char buf ']');
  Buffer.add_char buf '}'

let restore_entry t json =
  let id = record_string json "id" in
  let options, measure, semantics, md = decode_dataset_state json in
  let scorer = S.Risk.Incremental.create ~semantics measure md in
  let entry =
    {
      id;
      digest = record_string json "digest";
      options;
      measure;
      semantics;
      md;
      (* rendered from the decoded rows, not copied from the snapshot,
         so the kept text is their canonical render *)
      csv = kept_text (R.Csv.write_string (S.Microdata.relation md));
      scorer;
      bytes = record_int json "bytes";
      appends = record_int json "appends";
      created_at =
        (match Option.bind (Json.member "created_at" json) Json.to_float_opt with
        | Some f -> f
        | None -> Unix.gettimeofday ());
      updated_at =
        (match Option.bind (Json.member "updated_at" json) Json.to_float_opt with
        | Some f -> f
        | None -> Unix.gettimeofday ());
      mu = Mutex.create ();
      last_used = 0;
      text = Codec.Report_text.create ();
    }
  in
  with_lock t.mu (fun () ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      Hashtbl.replace t.table id entry;
      touch t entry)

let restore t json =
  (match Option.bind (Json.member "lifetime_appends" json) Json.to_int_opt with
  | Some n -> t.lifetime_appends <- n
  | None -> ());
  (match Option.bind (Json.member "evictions" json) Json.to_int_opt with
  | Some n -> t.evictions <- n
  | None -> ());
  match Option.bind (Json.member "entries" json) Json.to_list_opt with
  | None -> ()
  | Some entries -> List.iter (restore_entry t) entries

(* Re-apply one journal record by re-running the public mutation it
   recorded; [Persist.replaying] makes the nested commit a no-op, so
   replay exercises exactly the code path the original request did. *)
let apply t json =
  match record_string json "kind" with
  | "dataset.put" ->
    let id = record_string json "id" in
    let options, measure, semantics, md = decode_dataset_state json in
    ignore
      (put t ~id
         ~digest:(record_string json "digest")
         ~bytes:(record_int json "bytes") ~options ~measure ~semantics md)
  | "dataset.append" ->
    let entry = get t (record_string json "id") in
    ignore (append t entry ~csv:(record_string json "csv"))
  | "dataset.delete" -> ignore (delete t (record_string json "id"))
  | kind -> raise (bad_record ("unknown kind " ^ kind))

let create ?capacity ?audit ?persist () =
  let t = make ?capacity ?audit ?persist () in
  (match persist with
  | None -> ()
  | Some p ->
    Persist.register p ~section:"datasets" ~prefix:"dataset." ~dump:(dump t)
      ~restore:(restore t) ~apply:(apply t));
  t
