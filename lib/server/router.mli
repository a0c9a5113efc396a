(** Request routing for the service daemon.

    Route paths are exact ("/v1/risk") or patterns whose [{name}]
    segments match exactly one non-empty path segment
    ("/v1/datasets/{id}"). The first route whose pattern matches wins. *)

type handler = Http.request -> Http.response

type t

val create : (Http.meth * string * handler) list -> t

val add : t -> meth:Http.meth -> path:string -> handler -> t
(** Appends a route (used by tests to graft synthetic endpoints onto the
    standard surface). *)

val routes : t -> (Http.meth * string) list

val endpoint_path : t -> string -> string option
(** The route pattern serving [path] (any method) — ["/v1/datasets/{id}"]
    for ["/v1/datasets/band42"]. The server keys telemetry on this so
    metric/span names only ever come from the route table, never from
    client-controlled request paths (a dataset id must not mint a new
    histogram). *)

val path_param : pattern:string -> string -> string -> string option
(** [path_param ~pattern path name] — the (percent-decoded) path segment
    bound to [{name}] when [path] is laid against [pattern];
    [path_param ~pattern:"/v1/datasets/{id}" "/v1/datasets/x%20y" "id"]
    is [Some "x y"]. *)

val dispatch : t -> Http.request -> Http.response
(** Runs the handler of the first route matching method and path; 404 on
    unknown paths, 405 (with an [allow] header) on known paths with the
    wrong method. *)
