(* Minimal HTTP/1.1 on top of the Unix module, for both directions: one
   buffered message reader driven by a [read] function (requests on the
   server, responses in the client), deterministic serializers, and a
   one-request-per-connection client. No chunked transfer encoding
   (501), no keep-alive (every response carries [Connection: close]) —
   exactly what the SDC service daemon and its CLI need, with hard limits
   on request line, header block and body so a misbehaving client cannot
   exhaust the server. *)

type meth = GET | POST | HEAD | PUT | DELETE | Other of string

let meth_of_string = function
  | "GET" -> GET
  | "POST" -> POST
  | "HEAD" -> HEAD
  | "PUT" -> PUT
  | "DELETE" -> DELETE
  | m -> Other m

let meth_to_string = function
  | GET -> "GET"
  | POST -> "POST"
  | HEAD -> "HEAD"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | Other m -> m

type request = {
  meth : meth;
  target : string;  (* raw request target, e.g. "/v1/risk?k=3" *)
  path : string;  (* decoded path component *)
  query : (string * string) list;  (* decoded, document order *)
  version : string;
  headers : (string * string) list;  (* names lowercased, document order *)
  body : string;
  mutable deadline : float option;
      (* absolute Clock time by which the response should be written;
         set by the server once the request is parsed, read by
         handlers to derive a work budget *)
}

type error =
  | Bad_request of string  (* 400 *)
  | Payload_too_large of int  (* 413; carries the limit in bytes *)
  | Not_implemented of string  (* 501 *)
  | Timeout  (* 408: the socket read deadline expired mid-request *)
  | Closed  (* peer closed before sending a complete request *)

type limits = {
  max_request_line : int;
  max_header_bytes : int;
  max_body_bytes : int;
}

let default_limits =
  {
    max_request_line = 8 * 1024;
    max_header_bytes = 64 * 1024;
    max_body_bytes = 16 * 1024 * 1024;
  }

(* ---- readers ----------------------------------------------------------- *)

type reader = bytes -> int -> int -> int

exception Read_timeout

let reader_of_fd fd : reader =
 fun buf off len ->
  try Unix.read fd buf off len with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* SO_RCVTIMEO expiry surfaces as EAGAIN. *)
    raise Read_timeout
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0

let reader_of_string s : reader =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length s - !pos) in
    if n > 0 then begin
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n
    end;
    n

(* ---- percent decoding and target splitting ----------------------------- *)

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      match (hex_digit s.[!i + 1], hex_digit s.[!i + 2]) with
      | Some hi, Some lo ->
        Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
        i := !i + 2
      | _ -> Buffer.add_char buf '%')
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let split_target target =
  let path, query_string =
    match String.index_opt target '?' with
    | None -> (target, "")
    | Some i ->
      ( String.sub target 0 i,
        String.sub target (i + 1) (String.length target - i - 1) )
  in
  let query =
    if query_string = "" then []
    else
      String.split_on_char '&' query_string
      |> List.filter_map (fun pair ->
             if pair = "" then None
             else
               match String.index_opt pair '=' with
               | None -> Some (percent_decode pair, "")
               | Some i ->
                 Some
                   ( percent_decode (String.sub pair 0 i),
                     percent_decode
                       (String.sub pair (i + 1) (String.length pair - i - 1))
                   ))
  in
  (percent_decode path, query)

(* ---- request parsing --------------------------------------------------- *)

let header req name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name req.headers

let query_param req name = List.assoc_opt name req.query

let trim = String.trim

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> Error (Bad_request ("malformed header line: " ^ line))
  | Some i ->
    let name = String.lowercase_ascii (trim (String.sub line 0 i)) in
    let value = trim (String.sub line (i + 1) (String.length line - i - 1)) in
    if name = "" then Error (Bad_request "empty header name")
    else Ok (name, value)

let parse_request_line ~limits line =
  if String.length line > limits.max_request_line then
    Error (Bad_request "request line too long")
  else
    match String.split_on_char ' ' line with
    | [ meth; target; version ]
      when meth <> "" && target <> ""
           && (String.equal version "HTTP/1.1" || String.equal version "HTTP/1.0")
      ->
      Ok (meth_of_string meth, target, version)
    | _ -> Error (Bad_request ("malformed request line: " ^ line))

(* Index of the first "\r\n\r\n" in [s], if any. *)
let find_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let split_lines s =
  (* header block lines are CRLF-separated *)
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let n = String.length line in
         if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)

(* The framing both directions share: accumulate up to the blank line,
   parse the start line with [start] and the header lines (names
   lowercased), then read exactly [Content-Length] body bytes. *)
let read_message ~limits (read : reader) start =
  let chunk = Bytes.create 8192 in
  let acc = Buffer.create 1024 in
  let read_more () =
    match read chunk 0 (Bytes.length chunk) with
    | exception Read_timeout -> Error Timeout
    | exception Unix.Unix_error (_, _, _) -> Error Closed
    | 0 -> Error Closed
    | n ->
      Buffer.add_subbytes acc chunk 0 n;
      Ok ()
  in
  let ( let* ) = Result.bind in
  (* 1. accumulate until the header terminator *)
  let rec fill_headers () =
    match find_header_end (Buffer.contents acc) with
    | Some i ->
      if i > limits.max_header_bytes then
        Error (Bad_request "header block too large")
      else Ok i
    | None ->
      if Buffer.length acc > limits.max_header_bytes then
        Error (Bad_request "header block too large")
      else
        let* () =
          match read_more () with
          | Error Closed when Buffer.length acc > 0 ->
            Error (Bad_request "truncated message")
          | r -> r
        in
        fill_headers ()
  in
  let* header_end = fill_headers () in
  let head = String.sub (Buffer.contents acc) 0 header_end in
  let* start_line, header_lines =
    match split_lines head with
    | [] | [ "" ] -> Error (Bad_request "empty message")
    | line :: rest -> Ok (line, rest)
  in
  let* first = start start_line in
  let* headers =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* h = parse_header_line line in
        Ok (h :: acc))
      (Ok []) header_lines
    |> Result.map List.rev
  in
  let find name = List.assoc_opt name headers in
  let* () =
    match find "transfer-encoding" with
    | Some enc -> Error (Not_implemented ("transfer-encoding: " ^ enc))
    | None -> Ok ()
  in
  let* content_length =
    match find "content-length" with
    | None -> Ok 0
    | Some v -> (
      match int_of_string_opt (trim v) with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (Bad_request ("invalid content-length: " ^ v)))
  in
  let* () =
    if content_length > limits.max_body_bytes then
      Error (Payload_too_large limits.max_body_bytes)
    else Ok ()
  in
  (* 2. the body: whatever followed the terminator, then the rest *)
  let body_start = header_end + 4 in
  let rec fill_body () =
    if Buffer.length acc - body_start >= content_length then Ok ()
    else
      let* () =
        match read_more () with
        | Error Closed -> Error (Bad_request "truncated body")
        | r -> r
      in
      fill_body ()
  in
  let* () = fill_body () in
  Ok (first, headers, Buffer.sub acc body_start content_length)

let read_request ?(limits = default_limits) read =
  Result.map
    (fun ((meth, target, version), headers, body) ->
      let path, query = split_target target in
      { meth; target; path; query; version; headers; body; deadline = None })
    (read_message ~limits read (parse_request_line ~limits))

(* ---- responses --------------------------------------------------------- *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

let reason_phrase = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | s -> if s >= 200 && s < 300 then "OK" else "Error"

let response ?(content_type = "application/json") ?(headers = []) ~status body =
  { status; resp_headers = ("content-type", content_type) :: headers; resp_body = body }

let json_body fields = Vadasa_base.Json.to_string (Vadasa_base.Json.Obj fields)

(* Default error codes when the producer did not pick a more precise
   one — every error body carries a stable machine-readable code. *)
let code_of_status = function
  | 400 -> "http.bad_request"
  | 404 -> "http.not_found"
  | 405 -> "http.method_not_allowed"
  | 408 -> "http.timeout"
  | 413 -> "http.body_too_large"
  | 422 -> "http.invalid"
  | 501 -> "http.not_implemented"
  | 503 -> "http.unavailable"
  | _ -> "internal"

let json_error ~status ?code message =
  let code = match code with Some c -> c | None -> code_of_status status in
  response ~status
    (json_body
       [
         ( "error",
           Vadasa_base.Json.Obj
             [
               ("code", Vadasa_base.Json.Str code);
               ("message", Vadasa_base.Json.Str message);
             ] );
       ])

let error_response = function
  | Bad_request msg -> json_error ~status:400 ~code:"http.bad_request" msg
  | Payload_too_large limit ->
    json_error ~status:413 ~code:"http.body_too_large"
      (Printf.sprintf "request body exceeds the %d-byte limit" limit)
  | Not_implemented msg ->
    json_error ~status:501 ~code:"http.not_implemented" (msg ^ " not supported")
  | Timeout ->
    json_error ~status:408 ~code:"http.timeout" "timed out reading the request"
  | Closed ->
    json_error ~status:400 ~code:"http.closed" "connection closed mid-request"

(* One wire form for both directions: start line, headers,
   [content-length], [connection: close] (one message per connection
   either way), blank line, body. *)
let serialize start_line headers body =
  let buf = Buffer.create (String.length body + 256) in
  Buffer.add_string buf start_line;
  Buffer.add_string buf "\r\n";
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_string buf ": ";
      Buffer.add_string buf value;
      Buffer.add_string buf "\r\n")
    headers;
  Buffer.add_string buf
    (Printf.sprintf "content-length: %d\r\n" (String.length body));
  Buffer.add_string buf "connection: close\r\n\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf

let response_to_string r =
  serialize
    (Printf.sprintf "HTTP/1.1 %d %s" r.status (reason_phrase r.status))
    r.resp_headers r.resp_body

let request_to_string r =
  serialize
    (Printf.sprintf "%s %s %s" (meth_to_string r.meth) r.target r.version)
    r.headers r.body

(* "HTTP/1.1 200 OK": the version, a three-digit status, any phrase. *)
let parse_status_line line =
  match String.split_on_char ' ' line with
  | version :: code :: _
    when String.starts_with ~prefix:"HTTP/" version
         && String.length code = 3
         && String.for_all (fun c -> c >= '0' && c <= '9') code ->
    Ok (int_of_string code)
  | _ -> Error (Bad_request ("malformed status line: " ^ line))

(* A client trusts the server it chose to call: responses are not
   bounded by the body limit that protects the server. *)
let read_response read =
  Result.map
    (fun (status, resp_headers, resp_body) -> { status; resp_headers; resp_body })
    (read_message
       ~limits:{ default_limits with max_body_bytes = max_int }
       read parse_status_line)

(* Writes [s] and returns the bytes written; a peer that hung up
   (EPIPE/ECONNRESET) ends the write early. *)
let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  (try
     while !written < n do
       written := !written + Unix.write_substring fd s !written (n - !written)
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  !written

let write_response fd r =
  (* An armed [http.write:fail] simulates a client that vanished; the
     caller treats the raised typed error like a broken pipe. *)
  Vadasa_resilience.Faultpoint.hit "http.write";
  write_all fd (response_to_string r)

(* ---- client -------------------------------------------------------------- *)

let client_io fmt =
  Vadasa_base.Error.failf ~code:"client.io" Vadasa_base.Error.Io fmt

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      client_io "cannot resolve host %s" host
    | { Unix.h_addr_list; _ } -> h_addr_list.(0))

let call ~host ~port ~meth ~target ?(headers = []) ?(body = "") () =
  let addr = Unix.ADDR_INET (resolve host, port) in
  let unreachable err =
    client_io "cannot connect to %s:%d: %s" host port (Unix.error_message err)
  in
  match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) -> unreachable err
  | fd -> (
    let path, query = split_target target in
    let request =
      {
        meth;
        target;
        path;
        query;
        version = "HTTP/1.1";
        headers = ("host", host) :: headers;
        body;
        deadline = None;
      }
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    (* A server that refuses the request (413 on an oversized body)
       answers and closes while we are still writing: [write_all] stops
       there and the response it managed to send is still read. *)
    match
      Unix.connect fd addr;
      ignore (write_all fd (request_to_string request));
      read_response (reader_of_fd fd)
    with
    | Ok response -> response
    | Error Closed -> client_io "empty response from %s:%d" host port
    | Error (Bad_request msg | Not_implemented msg) ->
      client_io "bad response from %s:%d: %s" host port msg
    | Error (Payload_too_large _ | Timeout) ->
      client_io "bad response from %s:%d" host port
    | exception Unix.Unix_error (err, _, _) -> unreachable err)
