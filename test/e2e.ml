(* The end-to-end harness and fixtures shared by the server suites: an
   in-process server on an ephemeral loopback port, [Http.call] with the
   method spelled as a string, and the Figure 6 CSV documents. *)

module Srv = Vadasa_server
module Http = Srv.Http
module Json = Vadasa_base.Json

let config =
  {
    Srv.Server.default_config with
    Srv.Server.port = 0;
    domains = 2;
    request_timeout = 60.0;
  }

(* [k server port] against a started server; the server and its
   handlers are shut down afterwards. *)
let with_server ?(config = config) ?(handlers = Srv.Handlers.create ()) k =
  let server = Srv.Server.create ~config handlers in
  Srv.Server.start server;
  Fun.protect
    ~finally:(fun () ->
      Srv.Server.shutdown server;
      Srv.Handlers.shutdown handlers)
    (fun () -> k server (Srv.Server.port server))

let http_call_full ~port ~meth ~target ?headers ?body () =
  Http.call ~host:"127.0.0.1" ~port ~meth:(Http.meth_of_string meth) ~target
    ?headers ?body ()

let http_call ~port ~meth ~target ?headers ?body () =
  let r = http_call_full ~port ~meth ~target ?headers ?body () in
  (r.Http.status, r.Http.resp_body)

let json_of body =
  match Json.of_string body with
  | Ok json -> json
  | Error m -> Alcotest.failf "body is JSON: %s (%s)" m body

let error_code body =
  Option.bind (Json.member "error" (json_of body)) (fun e ->
      Option.bind (Json.member "code" e) Json.to_string_opt)

(* A scaled-down Figure 6 dataset (R6A4U shape, ~300 tuples) as CSV,
   with its name: pass it as [?name=] so server reports match the
   CLI's. *)
let figure6 =
  lazy
    (let md = Vadasa_datagen.Suite.load ~scale:0.05 "R6A4U" in
     ( Vadasa_relational.Csv.write_string (Vadasa_sdc.Microdata.relation md),
       Vadasa_sdc.Microdata.name md ))

let figure6_csv = lazy (fst (Lazy.force figure6))

(* header + rows[lo, hi) as a standalone CSV document *)
let csv_slice csv lo hi =
  match String.split_on_char '\n' csv with
  | header :: rows ->
    let rows = List.filter (fun r -> r <> "") rows in
    let keep = List.filteri (fun i _ -> i >= lo && i < hi) rows in
    header ^ "\n" ^ String.concat "\n" keep ^ "\n"
  | [] -> assert false

let csv_rows csv =
  match String.split_on_char '\n' csv with
  | _ :: rows -> List.length (List.filter (fun r -> r <> "") rows)
  | [] -> 0

let md_of_csv csv =
  match
    Srv.Codec.microdata_of_payload
      { Srv.Codec.csv; options = Srv.Codec.default_options }
  with
  | Ok md -> md
  | Error e -> Alcotest.failf "microdata: %s" (Vadasa_base.Error.to_string e)
