module Value = Vadasa_base.Value
module Error = Vadasa_base.Error
module Telemetry = Vadasa_telemetry.Telemetry
module Faultpoint = Vadasa_resilience.Faultpoint

let parse_line line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let rec plain i =
    if i >= n then flush_field ()
    else
      match line.[i] with
      | ',' ->
        flush_field ();
        plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then flush_field ()
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !fields

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let add_field buf s =
  if needs_quoting s then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

let render_line fields =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i field ->
      if i > 0 then Buffer.add_char buf ',';
      add_field buf field)
    fields;
  Buffer.contents buf

let add_rows buf rel =
  Relation.iter
    (fun t ->
      for i = 0 to Array.length t - 1 do
        if i > 0 then Buffer.add_char buf ',';
        add_field buf (Value.to_string t.(i))
      done;
      Buffer.add_char buf '\n')
    rel

(* Non-empty lines paired with their original 1-based line number, so
   diagnostics stay accurate when blank lines are skipped. *)
let lines_of_string s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l ->
         let l =
           if String.length l > 0 && l.[String.length l - 1] = '\r' then
             String.sub l 0 (String.length l - 1)
           else l
         in
         (i + 1, l))
  |> List.filter (fun (_, l) -> String.length l > 0)

let ragged_row ~name ~line ~found ~expected =
  (* column = 1-based index of the first extra or missing field *)
  let column = min found expected + 1 in
  Error.fail ~code:"csv.ragged_row" Error.Parse
    (Printf.sprintf "row at line %d has %d fields, expected %d" line found
       expected)
    ~context:
      [
        ("dataset", name);
        ("line", string_of_int line);
        ("column", string_of_int column);
        ("found", string_of_int found);
        ("expected", string_of_int expected);
      ]

let read_string_body ?(header = true) ~name doc =
  match lines_of_string doc with
  | [] -> Relation.create (Schema.of_names ~name [])
  | (_, first) :: rest ->
    let first_fields = parse_line first in
    let names, data_lines =
      if header then (first_fields, rest)
      else
        ( List.mapi (fun i _ -> "c" ^ string_of_int i) first_fields,
          (1, first) :: rest )
    in
    let schema = Schema.of_names ~name names in
    let rel = Relation.create schema in
    let arity = Schema.arity schema in
    List.iter
      (fun (lineno, line) ->
        let fields = parse_line line in
        let found = List.length fields in
        if found <> arity then
          ragged_row ~name ~line:lineno ~found ~expected:arity;
        Relation.add rel (Array.of_list (List.map Value.of_literal fields)))
      data_lines;
    rel

let read_string ?header ~name doc =
  Telemetry.span "csv.read" (fun () ->
      Faultpoint.hit "csv.read";
      let rel = read_string_body ?header ~name doc in
      if Telemetry.enabled () then begin
        Telemetry.count "csv.read.rows" (Relation.cardinal rel);
        Telemetry.count "csv.read.bytes" (String.length doc)
      end;
      rel)

let write_string rel =
  Faultpoint.hit "csv.write";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (render_line (Schema.attribute_names (Relation.schema rel)));
  Buffer.add_char buf '\n';
  add_rows buf rel;
  let doc = Buffer.contents buf in
  if Telemetry.enabled () then begin
    Telemetry.count "csv.write.rows" (Relation.cardinal rel);
    Telemetry.count "csv.write.bytes" (String.length doc)
  end;
  doc

let load ?header ~name path =
  Telemetry.span "csv.load" (fun () ->
      let doc =
        try
          let ic = open_in path in
          let len = in_channel_length ic in
          let doc = really_input_string ic len in
          close_in ic;
          doc
        with Sys_error msg ->
          Error.fail ~code:"io.read" Error.Io msg ~context:[ ("file", path) ]
      in
      try read_string ?header ~name doc
      with Error.Error e ->
        raise (Error.Error (Error.add_context e [ ("file", path) ])))

let save rel path =
  Telemetry.span "csv.save" (fun () ->
      let oc = open_out path in
      output_string oc (write_string rel);
      close_out oc)
