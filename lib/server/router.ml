(* Path routing: the endpoint surface is small and flat, so a simple
   association list beats a radix tree. Route paths are either exact
   ("/v1/risk") or patterns with parameter segments ("/v1/datasets/{id}"):
   a [{name}] segment matches exactly one non-empty path segment. Unknown
   paths get 404; known paths with the wrong method get 405 with an
   Allow header.

   Patterns exist for the dataset registry's per-resource endpoints; the
   pattern string — not the concrete request path — is what telemetry
   keys on ([endpoint_path]), so client-chosen dataset ids never mint
   new metric or span names. *)

type handler = Http.request -> Http.response

type t = { routes : (Http.meth * string * handler) list }

let create routes = { routes }

let add t ~meth ~path handler = { routes = t.routes @ [ (meth, path, handler) ] }

let routes t = List.map (fun (m, p, _) -> (m, p)) t.routes

let segments path = List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let is_param seg =
  String.length seg >= 2 && seg.[0] = '{' && seg.[String.length seg - 1] = '}'

(* [matches pattern path]: segment-wise equality, with [{name}] pattern
   segments matching any single non-empty segment. *)
let matches pattern path =
  let rec go = function
    | [], [] -> true
    | p :: ps, s :: ss -> (is_param p || String.equal p s) && go (ps, ss)
    | _ -> false
  in
  if String.contains pattern '{' then go (segments pattern, segments path)
  else String.equal pattern path

let endpoint_path t path =
  List.find_map
    (fun (_, pattern, _) -> if matches pattern path then Some pattern else None)
    t.routes

let path_param ~pattern path name =
  let target = "{" ^ name ^ "}" in
  let rec go = function
    | p :: _, s :: _ when String.equal p target -> Some (Http.percent_decode s)
    | _ :: ps, _ :: ss -> go (ps, ss)
    | _ -> None
  in
  go (segments pattern, segments path)

let dispatch t (req : Http.request) =
  let matching_path =
    List.filter (fun (_, pattern, _) -> matches pattern req.path) t.routes
  in
  match
    List.find_opt (fun (meth, _, _) -> meth = req.meth) matching_path
  with
  | Some (_, _, handler) -> handler req
  | None -> (
    match matching_path with
    | [] ->
      Http.json_error ~status:404 ~code:"http.not_found"
        (Printf.sprintf "no such endpoint: %s" req.path)
    | methods ->
      let allow =
        String.concat ", "
          (List.map (fun (m, _, _) -> Http.meth_to_string m) methods)
      in
      {
        (Http.json_error ~status:405 ~code:"http.method_not_allowed"
           (Printf.sprintf "%s not allowed on %s (allow: %s)"
              (Http.meth_to_string req.meth) req.path allow))
        with
        Http.resp_headers = [ ("content-type", "application/json"); ("allow", allow) ];
      })
