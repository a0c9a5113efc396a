(* Request decoding and canonical JSON rendering of SDC results.

   The only place request options become SDC configuration (category
   overrides, measure, semantics, cycle method): the CLI, the handlers
   and the jobs runner all decode through here, so a bad option is the
   same typed error on every path. The CLI's [risk --json] and the
   server's [POST /v1/risk] both render through [risk_report_string], so
   a byte-compare between the two is a meaningful integration check (the
   CI smoke job does exactly that). *)

module Json = Vadasa_base.Json
module E = Vadasa_base.Error
module R = Vadasa_relational
module S = Vadasa_sdc
module V = Vadasa_vadalog

(* ---- request decoding --------------------------------------------------- *)

type options = {
  name : string;  (* dataset name used for the relation *)
  measure : string;
  k : int;
  threshold : float;
  msu_threshold : int;
  categories : (string * string) list;  (* attr -> category string *)
  reasoned : bool;
  method_ : string;  (* anonymize: "suppress" | "recode" *)
  semantics : string;  (* anonymize: "maybe-match" | "standard" *)
  budget_ms : int option;  (* per-request chase/cycle wall-clock budget *)
  max_facts : int option;  (* per-request derived-fact ceiling *)
  audit : bool;  (* anonymize: embed the per-round audit trail *)
}

let default_options =
  {
    name = "request";
    measure = "k-anonymity";
    k = 2;
    threshold = 0.5;
    msu_threshold = 3;
    categories = [];
    reasoned = false;
    method_ = "suppress";
    semantics = "maybe-match";
    budget_ms = None;
    max_facts = None;
    audit = false;
  }

type payload = { csv : string; options : options }

let ( let* ) = Result.bind

let bad_param name detail =
  E.make ~code:"request.bad_param" E.Parse
    (Printf.sprintf "parameter %s: %s" name detail)
    ~context:[ ("parameter", name) ]

let bad_field name detail =
  E.make ~code:"request.bad_field" E.Parse
    (Printf.sprintf "field %s: %s" name detail)
    ~context:[ ("field", name) ]

(* Where the scalar options come from: the query string (string values,
   dashed names, [request.bad_param]) or a JSON body (typed values,
   [request.bad_field]). *)
type 'v source = {
  find : string -> 'v option;
  bad : string -> string -> E.t;
  str : 'v -> string option;
  int : 'v -> int option;
  float : 'v -> float option;
  bool : 'v -> bool option;
}

let json_source json =
  {
    find = (fun name -> Json.member name json);
    bad = bad_field;
    str = (function Json.Str s -> Some s | _ -> None);
    int = Json.to_int_opt;
    float = Json.to_float_opt;
    bool = Json.to_bool_opt;
  }

let field src conv detail name default =
  match src.find name with
  | None -> Ok default
  | Some v -> (
    match conv v with Some x -> Ok x | None -> Error (src.bad name detail))

let positive src name =
  field src
    (fun v ->
      match src.int v with Some n when n >= 1 -> Some (Some n) | _ -> None)
    "expected a positive integer" name None

(* One decoder for both request shapes; names are the JSON spelling. *)
let decode_options src categories =
  let str = field src src.str "expected a string"
  and int = field src src.int "expected an integer"
  and bool = field src src.bool "expected a boolean" in
  let d = default_options in
  let* name = str "name" d.name in
  let* measure = str "measure" d.measure in
  let* k = int "k" d.k in
  let* threshold =
    field src src.float "expected a number" "threshold" d.threshold
  in
  let* msu_threshold = int "msu_threshold" d.msu_threshold in
  let* reasoned = bool "reasoned" d.reasoned in
  let* method_ = str "method" d.method_ in
  let* semantics = str "semantics" d.semantics in
  let* budget_ms = positive src "budget_ms" in
  let* max_facts = positive src "max_facts" in
  let* audit = bool "audit" d.audit in
  Ok
    {
      name;
      measure;
      k;
      threshold;
      msu_threshold;
      categories;
      reasoned;
      method_;
      semantics;
      budget_ms;
      max_facts;
      audit;
    }

let options_of_query (req : Http.request) =
  let dashed = String.map (function '_' -> '-' | c -> c) in
  let* categories =
    List.fold_left
      (fun acc (key, value) ->
        let* acc = acc in
        if not (String.equal key "category") then Ok acc
        else
          match String.index_opt value '=' with
          | Some i ->
            Ok
              (( String.sub value 0 i,
                 String.sub value (i + 1) (String.length value - i - 1) )
              :: acc)
          | None ->
            Error
              (bad_param "category"
                 (Printf.sprintf "bad value %S (expected attr=category)" value)))
      (Ok []) req.query
    |> Result.map List.rev
  in
  decode_options
    {
      find = (fun name -> Http.query_param req (dashed name));
      bad = (fun name -> bad_param (dashed name));
      str = Option.some;
      int = int_of_string_opt;
      float = float_of_string_opt;
      (* a flag: anything but "true" is false *)
      bool = (fun v -> Some (v = "true"));
    }
    categories

let options_of_json json =
  let* categories =
    match Json.member "categories" json with
    | None -> Ok []
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (attr, v) ->
          let* acc = acc in
          match v with
          | Json.Str cat -> Ok ((attr, cat) :: acc)
          | _ ->
            Error
              (bad_field ("categories." ^ attr) "expected a category string"))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error (bad_field "categories" "expected an object of attr: category")
  in
  decode_options (json_source json) categories

(* The exact inverse of [options_of_json] (same field names), so the
   registry journal can record a request's options and replay rebuilds
   identical state. Optional fields are omitted when unset. *)
let options_to_json (o : options) =
  Json.Obj
    ([
       ("name", Json.Str o.name);
       ("measure", Json.Str o.measure);
       ("k", Json.Int o.k);
       ("threshold", Json.Float o.threshold);
       ("msu_threshold", Json.Int o.msu_threshold);
       ( "categories",
         Json.Obj (List.map (fun (a, c) -> (a, Json.Str c)) o.categories) );
       ("reasoned", Json.Bool o.reasoned);
       ("method", Json.Str o.method_);
       ("semantics", Json.Str o.semantics);
       ("audit", Json.Bool o.audit);
     ]
    @ (match o.budget_ms with
      | None -> []
      | Some ms -> [ ("budget_ms", Json.Int ms) ])
    @
    match o.max_facts with
    | None -> []
    | Some n -> [ ("max_facts", Json.Int n) ])

let content_type (req : Http.request) =
  match Http.header req "content-type" with
  | None -> ""
  | Some v -> (
    (* strip parameters like "; charset=utf-8" *)
    match String.index_opt v ';' with
    | None -> String.trim (String.lowercase_ascii v)
    | Some i -> String.trim (String.lowercase_ascii (String.sub v 0 i)))

let parse_payload (req : Http.request) =
  match content_type req with
  | "application/json" -> (
    match Json.of_string req.body with
    | Error msg ->
      Error (E.make ~code:"json.invalid" E.Parse ("invalid JSON body: " ^ msg))
    | Ok json -> (
      match Json.member "csv" json with
      | Some (Json.Str csv) ->
        let* options = options_of_json json in
        Ok { csv; options }
      | Some _ -> Error (bad_field "csv" "expected the CSV document as a string")
      | None ->
        Error (E.make ~code:"request.missing_csv" E.Parse "missing field csv")))
  | "" | "text/csv" | "text/plain" | "application/csv"
  | "application/octet-stream" ->
    if String.trim req.body = "" then
      Error
        (E.make ~code:"request.empty_body" E.Parse
           "empty request body (expected CSV)")
    else
      let* options = options_of_query req in
      Ok { csv = req.body; options }
  | other ->
    Error
      (E.make ~code:"request.unsupported_media" E.Parse
         (Printf.sprintf "unsupported content-type %s" other)
         ~context:[ ("content_type", other) ])

(* ---- explain requests ---------------------------------------------------- *)

(* A ground fact written in Vadalog syntax — "p(a, 1)". Reusing the
   program parser keeps the accepted value syntax (strings, numbers,
   quoting) exactly the one programs use, so the fact a client asks
   about is spelled like the fact the engine printed. *)
let parse_fact s =
  let text = String.trim s in
  let text =
    if String.length text > 0 && text.[String.length text - 1] = '.' then text
    else text ^ "."
  in
  let invalid detail =
    Error
      (E.make ~code:"fact.invalid" E.Parse
         (Printf.sprintf "cannot parse fact %S: %s" s detail)
         ~context:[ ("fact", s) ])
  in
  match V.Parser.parse text with
  | exception V.Parser.Error { message; _ } -> invalid message
  | exception V.Lexer.Error { message; _ } -> invalid message
  | program -> (
    match (program.V.Program.rules, program.V.Program.facts) with
    | [], [ (pred, args) ] -> Ok (pred, args)
    | _ -> invalid "expected exactly one ground fact, e.g. p(a, 1)")

type explain_request = {
  explain_program : string;
  explain_pred : string;
  explain_args : Vadasa_base.Value.t array;
  explain_max_depth : int option;
  explain_budget_ms : int option;
  explain_max_facts : int option;
}

let parse_explain_payload (req : Http.request) =
  match content_type req with
  | "application/json" | "" -> (
    match Json.of_string req.body with
    | Error msg ->
      Error (E.make ~code:"json.invalid" E.Parse ("invalid JSON body: " ^ msg))
    | Ok json ->
      let str_field name =
        match Json.member name json with
        | Some (Json.Str s) -> Ok s
        | Some _ -> Error (bad_field name "expected a string")
        | None ->
          Error
            (E.make
               ~code:("request.missing_" ^ name)
               E.Parse ("missing field " ^ name))
      in
      let int_opt_field = positive (json_source json) in
      let* program = str_field "program" in
      let* fact = str_field "fact" in
      let* pred, args = parse_fact fact in
      let* max_depth = int_opt_field "max_depth" in
      let* budget_ms = int_opt_field "budget_ms" in
      let* max_facts = int_opt_field "max_facts" in
      Ok
        {
          explain_program = program;
          explain_pred = pred;
          explain_args = args;
          explain_max_depth = max_depth;
          explain_budget_ms = budget_ms;
          explain_max_facts = max_facts;
        })
  | other ->
    Error
      (E.make ~code:"request.unsupported_media" E.Parse
         (Printf.sprintf "unsupported content-type %s (expected application/json)"
            other)
         ~context:[ ("content_type", other) ])

let explain_string tree =
  Json.to_string ~indent:true (V.Provenance.to_json tree) ^ "\n"

(* ---- semantic decoding --------------------------------------------------- *)

let measure_of_options o =
  match o.measure with
  | "k-anonymity" -> Ok (S.Risk.K_anonymity { k = o.k })
  | "re-identification" -> Ok S.Risk.Re_identification
  | "individual" -> Ok (S.Risk.Individual S.Risk.Benedetti_franconi)
  | "individual-naive" -> Ok (S.Risk.Individual S.Risk.Naive)
  | "suda" ->
    Ok (S.Risk.Suda { max_msu_size = 3; threshold_size = o.msu_threshold })
  | other ->
    Error
      (E.make ~code:"measure.unknown" E.Wardedness
         (Printf.sprintf "unknown measure %s" other)
         ~context:[ ("measure", other) ])

let semantics_of_options o =
  match R.Null_semantics.of_string o.semantics with
  | Some s -> Ok s
  | None ->
    Error
      (E.make ~code:"semantics.unknown" E.Wardedness
         ("unknown semantics " ^ o.semantics)
         ~context:[ ("semantics", o.semantics) ])

(* The expert category overrides of Alg. 1 are all-or-nothing: one
   misspelled category fails the request instead of being dropped. *)
let microdata_of_relation options rel =
  let* overrides =
    List.fold_left
      (fun acc (attr, cat) ->
        let* acc = acc in
        match S.Microdata.category_of_string cat with
        | Some c -> Ok ((attr, c) :: acc)
        | None ->
          Error
            (E.make ~code:"category.unknown" E.Wardedness
               (Printf.sprintf "unknown category %s for %s" cat attr)
               ~context:[ ("attr", attr); ("category", cat) ]))
      (Ok []) options.categories
    |> Result.map List.rev
  in
  match S.Categorize.categorize_microdata ~overrides rel with
  | Ok md -> Ok md
  | Error msg ->
    Error
      (E.make ~code:"categorize.failed" E.Wardedness msg
         ~context:
           [
             ( "hint",
               "override with category \
                attr=identifier|quasi-identifier|non-identifying|weight" );
           ])

let microdata_of_payload { csv; options } =
  let* rel =
    match R.Csv.read_string ~name:options.name csv with
    | rel -> Ok rel
    | exception E.Error e -> Error e
  in
  microdata_of_relation options rel

let cycle_config o md =
  let* measure = measure_of_options o in
  let* semantics = semantics_of_options o in
  let* method_ =
    match o.method_ with
    | "suppress" -> Ok S.Cycle.Local_suppression
    | "recode" ->
      Ok
        (S.Cycle.Recode_then_suppress
           (Vadasa_datagen.Generator.synthetic_hierarchy md))
    | other ->
      Error
        (E.make ~code:"method.unknown" E.Wardedness ("unknown method " ^ other)
           ~context:[ ("method", other) ])
  in
  Ok
    {
      S.Cycle.default_config with
      S.Cycle.measure;
      threshold = o.threshold;
      semantics;
      method_;
    }

(* ---- typed errors on the wire -------------------------------------------- *)

let status_of_category = function
  | E.Parse -> 400
  | E.Wardedness -> 422
  | E.Resource -> 503
  | E.Io -> 500
  | E.Internal -> 500

let error_of_exn = function
  | E.Error e -> e
  | V.Parser.Error { line; message } ->
    E.make ~code:"program.parse" E.Wardedness
      (Printf.sprintf "line %d: %s" line message)
      ~context:[ ("line", string_of_int line) ]
  | V.Lexer.Error { line; message } ->
    E.make ~code:"program.lex" E.Wardedness
      (Printf.sprintf "line %d: %s" line message)
      ~context:[ ("line", string_of_int line) ]
  | V.Stratify.Not_stratifiable msg ->
    E.make ~code:"program.not_stratifiable" E.Wardedness msg
  | V.Engine.Limit msg -> E.make ~code:"engine.limit" E.Resource msg
  | S.Vadalog_bridge.Unsupported msg ->
    E.make ~code:"measure.unsupported" E.Wardedness msg
  | Unix.Unix_error (err, fn, arg) ->
    E.make ~code:"io.unix" E.Io
      (Printf.sprintf "%s: %s" fn (Unix.error_message err))
      ~context:(if arg = "" then [] else [ ("arg", arg) ])
  | Invalid_argument msg -> E.make ~code:"internal.invalid_arg" E.Internal msg
  | Failure msg -> E.make ~code:"internal.failure" E.Internal msg
  | exn -> E.make ~code:"internal.exception" E.Internal (Printexc.to_string exn)

(* Registry and jobs errors want statuses the category lattice can't
   express: an unknown dataset or job is 404, a clashing registration
   is 409, a tenant over its quota or rate limit is 429. Keyed on the
   stable error code so only these escape the category mapping. *)
let status_of_error (e : E.t) =
  match e.E.code with
  | "dataset.not_found" | "job.not_found" -> 404
  | "dataset.conflict" -> 409
  | "tenant.quota_exceeded" | "tenant.rate_limited" -> 429
  | _ -> status_of_category e.E.category

(* Errors that carry a [retry_after_s] context pair (quota, rate-limit
   and queue-full rejections) surface it as a real Retry-After header,
   the same convention the circuit breaker uses — retrying clients
   need only one code path. *)
let response_of_error (e : E.t) =
  let headers =
    match List.assoc_opt "retry_after_s" e.E.context with
    | Some s -> (
      match float_of_string_opt s with
      | Some f ->
        [ ("Retry-After", string_of_int (max 1 (int_of_float (Float.ceil f)))) ]
      | None -> [])
    | None -> []
  in
  Http.response ~headers ~status:(status_of_error e)
    (Json.to_string (Json.Obj [ ("error", E.to_json e) ]) ^ "\n")

(* ---- canonical renderings ------------------------------------------------ *)

let float_list a = Json.List (Array.fold_right (fun f l -> Json.Float f :: l) a [])

(* The partial-progress object attached to every degraded response. *)
let interrupt_json (i : V.Engine.interrupt) =
  Json.Obj
    [
      ("reason", Json.Str (Vadasa_base.Budget.reason_code i.V.Engine.reason));
      ("stratum", Json.Int i.V.Engine.stratum);
      ("iteration", Json.Int i.V.Engine.iteration);
      ("facts_derived", Json.Int i.V.Engine.facts_derived);
    ]

let degrade_fields interrupt =
  [ ("degraded", Json.Bool true); ("partial", interrupt_json interrupt) ]

(* The text of a maintained report's two per-row float columns, kept
   between renders. Row [i]'s text is reused while [i < filled] and the
   row's float still has the bits it was printed from. Bits, not float
   equality: [0.] and [-0.] print differently, and a nan never equals
   itself. *)
module Report_text = struct
  type column = {
    mutable bits : float array;  (* the float each text was printed from *)
    mutable text : string array;
    mutable filled : int;  (* rows [0, filled) hold text *)
  }

  type t = {
    risk : column;
    weight_sum : column;
    mutable formatted : int;  (* floats the last render printed afresh *)
    mutable bytes : int;  (* length of the last body *)
  }

  let column () = { bits = [||]; text = [||]; filled = 0 }

  let create () =
    { risk = column (); weight_sum = column (); formatted = 0; bytes = 0 }

  let formatted t = t.formatted

  let reserve c n =
    if Array.length c.bits < n then begin
      let cap = max n (2 * Array.length c.bits) in
      let bits = Array.make cap 0.0 and text = Array.make cap "" in
      Array.blit c.bits 0 bits 0 c.filled;
      Array.blit c.text 0 text 0 c.filled;
      c.bits <- bits;
      c.text <- text
    end

  (* Row [i]'s text for [values.(i)], read in place so that no float is
     boxed for a row whose text is reused. *)
  let row t c (values : float array) i =
    if
      i < c.filled
      && Int64.bits_of_float c.bits.(i) = Int64.bits_of_float values.(i)
    then c.text.(i)
    else begin
      let s = Json.float_repr values.(i) in
      c.bits.(i) <- values.(i);
      c.text.(i) <- s;
      t.formatted <- t.formatted + 1;
      s
    end
end

(* [string_of_int]'s digits, without the intermediate string. *)
let rec add_int buf i =
  if i < 0 then Buffer.add_string buf (string_of_int i)
  else begin
    if i >= 10 then add_int buf (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  end

(* A list field's value at depth 1 of the report object, laid out as
   [Json.to_string ~indent:true] lays it out. *)
let add_items buf n add_item =
  if n = 0 then Buffer.add_string buf "[]"
  else begin
    Buffer.add_char buf '[';
    for i = 0 to n - 1 do
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      add_item i
    done;
    Buffer.add_string buf "\n  ]"
  end

(* The one risk-report writer: the bytes [Json.to_string ~indent:true]
   gives for the report object, appended straight from the arrays. The
   per-row floats come from (and refresh) [text]'s columns; every float
   printed afresh is counted. *)
let add_risk_report (text : Report_text.t) ?interrupt buf ~threshold md
    (report : S.Risk.report) =
  let add_float f =
    text.formatted <- text.formatted + 1;
    Buffer.add_string buf (Json.float_repr f)
  in
  let add_column (c : Report_text.column) values =
    let n = Array.length values in
    Report_text.reserve c n;
    add_items buf n (fun i -> Buffer.add_string buf (Report_text.row text c values i));
    c.filled <- n
  in
  text.formatted <- 0;
  let risk = report.S.Risk.risk in
  let risky = ref 0 in
  for i = 0 to Array.length risk - 1 do
    if risk.(i) > threshold then incr risky
  done;
  Buffer.add_string buf "{\n  \"dataset\": ";
  Json.add_string buf (S.Microdata.name md);
  Buffer.add_string buf ",\n  \"tuples\": ";
  add_int buf (S.Microdata.cardinal md);
  Buffer.add_string buf ",\n  \"measure\": ";
  Json.add_string buf (S.Risk.measure_to_string report.S.Risk.measure);
  Buffer.add_string buf ",\n  \"threshold\": ";
  add_float threshold;
  Buffer.add_string buf ",\n  \"global_risk\": ";
  add_float (S.Risk.global_risk report);
  Buffer.add_string buf ",\n  \"risky_count\": ";
  add_int buf !risky;
  Buffer.add_string buf ",\n  \"risky\": ";
  let next = ref 0 in
  add_items buf !risky (fun _ ->
      while not (risk.(!next) > threshold) do
        incr next
      done;
      add_int buf !next;
      incr next);
  Buffer.add_string buf ",\n  \"risk\": ";
  add_column text.risk risk;
  Buffer.add_string buf ",\n  \"freq\": ";
  let freq = report.S.Risk.freq in
  add_items buf (Array.length freq) (fun i -> add_int buf freq.(i));
  Buffer.add_string buf ",\n  \"weight_sum\": ";
  add_column text.weight_sum report.S.Risk.weight_sum;
  Option.iter
    (fun i ->
      Buffer.add_string buf ",\n  \"degraded\": true,\n  \"partial\": ";
      Json.to_buffer ~indent:true ~depth:1 buf (interrupt_json i))
    interrupt;
  Buffer.add_string buf "\n}\n"

(* A cold render fills fresh columns: every float is printed once. *)
let risk_report_string ?(text = Report_text.create ()) ?interrupt ~threshold md
    report =
  let size =
    if text.Report_text.bytes > 0 then text.Report_text.bytes + 1024
    else 256 + (64 * Array.length report.S.Risk.risk)
  in
  let buf = Buffer.create size in
  add_risk_report text ?interrupt buf ~threshold md report;
  text.Report_text.bytes <- Buffer.length buf;
  Buffer.contents buf

let anonymize_outcome_json ?audit md (outcome : S.Cycle.outcome) =
  ignore md;
  Json.Obj
    ([
       ("dataset", Json.Str (S.Microdata.name outcome.S.Cycle.anonymized));
       ("rounds", Json.Int outcome.S.Cycle.rounds);
       ("converged", Json.Bool outcome.S.Cycle.converged);
       ("nulls_injected", Json.Int outcome.S.Cycle.nulls_injected);
       ("recoded_cells", Json.Int outcome.S.Cycle.recoded_cells);
       ("risky_initial", Json.Int outcome.S.Cycle.risky_initial);
       ( "unresolved",
         Json.List (List.map (fun i -> Json.Int i) outcome.S.Cycle.unresolved)
       );
       ("info_loss", Json.Float outcome.S.Cycle.info_loss);
       ("actions", Json.Int (List.length outcome.S.Cycle.trace));
       ( "csv",
         Json.Str
           (R.Csv.write_string (S.Microdata.relation outcome.S.Cycle.anonymized))
       );
     ]
    (* The opt-in audit trail rides along as the same event objects the
       CLI's --audit JSONL writes, one per round. *)
    @ (match audit with
      | None -> []
      | Some events ->
        [ ("audit", Json.List (List.map S.Audit.event_to_json events)) ])
    @
    (* Degraded markers only when the budget interrupted the cycle: an
       unbudgeted outcome renders exactly as before. *)
    match outcome.S.Cycle.interrupted with
    | None -> []
    | Some reason ->
      [
        ("degraded", Json.Bool true);
        ("interrupt_reason", Json.Str (Vadasa_base.Budget.reason_code reason));
      ])

let categorize_result_json (result : S.Categorize.result) =
  Json.Obj
    [
      ( "assigned",
        Json.List
          (List.map
             (fun (a : S.Categorize.assignment) ->
               Json.Obj
                 [
                   ("attr", Json.Str a.S.Categorize.attr);
                   ( "category",
                     Json.Str
                       (S.Microdata.category_to_string a.S.Categorize.category)
                   );
                   ("matched", Json.Str a.S.Categorize.matched);
                   ("score", Json.Float a.S.Categorize.score);
                 ])
             result.S.Categorize.assigned) );
      ( "unresolved",
        Json.List
          (List.map (fun s -> Json.Str s) result.S.Categorize.unresolved) );
      ( "conflicts",
        Json.List
          (List.map
             (fun (c : S.Categorize.conflict) ->
               Json.Obj
                 [
                   ("attr", Json.Str c.S.Categorize.conflict_attr);
                   ( "candidates",
                     Json.List
                       (List.map
                          (fun (cat, name, score) ->
                            Json.Obj
                              [
                                ( "category",
                                  Json.Str (S.Microdata.category_to_string cat)
                                );
                                ("via", Json.Str name);
                                ("score", Json.Float score);
                              ])
                          c.S.Categorize.candidates) );
                 ])
             result.S.Categorize.conflicts) );
    ]

let reason_json ?interrupt ~cached ~warded ~threshold md risks =
  let n = Array.length risks in
  let risky = ref [] in
  for i = n - 1 downto 0 do
    if risks.(i) > threshold then risky := i :: !risky
  done;
  Json.Obj
    ([
       ("dataset", Json.Str (S.Microdata.name md));
       ("tuples", Json.Int (S.Microdata.cardinal md));
       ("threshold", Json.Float threshold);
       ("program_cache_hit", Json.Bool cached);
       ("warded", Json.Bool warded);
       ("risky_count", Json.Int (List.length !risky));
       ("risky", Json.List (List.map (fun i -> Json.Int i) !risky));
       ("risk", float_list risks);
     ]
    @ match interrupt with None -> [] | Some i -> degrade_fields i)
