(* Content negotiation for /metrics: the Accept-header sniffing that
   selects the Prometheus exposition body, and its media type. The text
   itself is written by [Telemetry.Prometheus.render]. *)

let content_type = "text/plain; version=0.0.4; charset=utf-8"

(* The exposition body is chosen when the client asks for a plain-text
   or OpenMetrics media type; a bare [*/*] (curl's default) keeps the
   JSON body, so browsers and existing scrapes are unaffected.

   The Accept header is parsed, not substring-matched: entries split on
   ',', the media type is the token before the first ';', and an entry
   whose parameters carry [q=0] means "explicitly not acceptable"
   (RFC 9110 §12.4.2) — so [text/html, text/plain;q=0] keeps JSON, and
   a media type merely containing "text/plain" does not match. *)
let accept_entry_matches entry =
  match String.split_on_char ';' entry with
  | [] -> false
  | media :: params ->
    let media = String.trim media in
    let q_zero =
      List.exists
        (fun p ->
          match String.index_opt p '=' with
          | None -> false
          | Some i ->
            String.trim (String.sub p 0 i) = "q"
            &&
            let v = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
            (match float_of_string_opt v with
            | Some q -> q <= 0.0
            | None -> false))
        params
    in
    (not q_zero)
    && (media = "text/plain" || media = "application/openmetrics-text")

let wants_prometheus req =
  match Http.header req "accept" with
  | None -> false
  | Some accept ->
    String.split_on_char ',' (String.lowercase_ascii accept)
    |> List.exists accept_entry_matches
