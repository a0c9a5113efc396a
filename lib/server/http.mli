(** Minimal, dependency-free HTTP/1.1 over [Unix] file descriptors, for
    both the server and its clients.

    One request per connection: the reader parses a single message
    (start line, headers, [Content-Length] body) — a request on the
    server, a response in {!call} — and the response serializer always
    answers with [Connection: close]. Chunked transfer encoding is
    rejected with 501; request line, header block and body size are
    bounded by {!limits} (413 on an oversized body, 400 on everything
    malformed). The reader is pure over a {!reader} function, so tests
    drive it from strings while the server and client drive it from
    sockets. *)

type meth = GET | POST | HEAD | PUT | DELETE | Other of string

val meth_of_string : string -> meth

val meth_to_string : meth -> string

type request = {
  meth : meth;
  target : string;  (** raw request target, e.g. ["/v1/risk?k=3"] *)
  path : string;  (** decoded path component *)
  query : (string * string) list;  (** decoded key–value pairs *)
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
  mutable deadline : float option;
      (** absolute {!Vadasa_base.Clock} time by which the response
          should be written; [None] until the server stamps it after
          parsing — handlers derive their work budget from it *)
}

type error =
  | Bad_request of string  (** 400 *)
  | Payload_too_large of int  (** 413; carries the limit in bytes *)
  | Not_implemented of string  (** 501 (chunked transfer encoding) *)
  | Timeout  (** 408: socket read deadline expired mid-request *)
  | Closed  (** peer closed before sending a complete request *)

type limits = {
  max_request_line : int;
  max_header_bytes : int;
  max_body_bytes : int;
}

val default_limits : limits
(** 8 KiB request line, 64 KiB header block, 16 MiB body. *)

type reader = bytes -> int -> int -> int
(** [read buf off len] semantics of [Unix.read]: 0 at end of input. *)

exception Read_timeout
(** Raised by {!reader_of_fd} when [SO_RCVTIMEO] expires. *)

val reader_of_fd : Unix.file_descr -> reader

val reader_of_string : string -> reader

val read_request : ?limits:limits -> reader -> (request, error) result

val request_to_string : request -> string
(** Wire form: request line, headers as given, [content-length],
    [connection: close], body. [path] and [query] are ignored (the
    [target] carries them). *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query_param : request -> string -> string option

val percent_decode : string -> string

type response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response :
  ?content_type:string ->
  ?headers:(string * string) list ->
  status:int ->
  string ->
  response
(** Defaults to [application/json]. *)

val json_error : status:int -> ?code:string -> string -> response
(** [{"error": {"code": …, "message": …}}] with the given status.
    Without [code] a stable default derived from the status is used
    (e.g. 404 → ["http.not_found"]); see [docs/RESILIENCE.md] for the
    code registry. *)

val error_response : error -> response

val reason_phrase : int -> string

val response_to_string : response -> string
(** Full wire form: status line, headers, [content-length],
    [connection: close], body. *)

val read_response : reader -> (response, error) result
(** The inverse of {!response_to_string}, through the same header and
    body reader as {!read_request}; header names come back lowercased.
    {!default_limits} apply except for the body, which is unbounded. A
    garbled status line, a malformed header or a body shorter than its
    [Content-Length] is [Bad_request]; no bytes at all is [Closed]. *)

val call :
  host:string ->
  port:int ->
  meth:meth ->
  target:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  unit ->
  response
(** One request on a fresh connection to [host] (a dotted address or a
    resolvable name) and its response. A [host] header is added. If the
    server answers and closes before the body is fully written (413 on
    an oversized upload), writing stops and that response is returned.
    Resolution, connection and framing failures raise the typed
    [client.io] error (category Io); no [Unix_error] escapes. Callers
    that write to sockets should ignore [SIGPIPE]. *)

val write_response : Unix.file_descr -> response -> int
(** Write the wire form, swallowing [EPIPE]/[ECONNRESET] (the client may
    have gone away); returns the bytes written. Fault point
    ["http.write"]: when armed to fail it raises the injected typed
    error before writing anything. *)
