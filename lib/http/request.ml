type t = {
  meth : Meth.t;
  path : string;
  query : (string * string) list;
  headers : Headers.t;
  body : Cm_json.Json.t option;
}

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun pair ->
           match String.index_opt pair '=' with
           | Some i ->
             Some
               ( String.sub pair 0 i,
                 String.sub pair (i + 1) (String.length pair - i - 1) )
           | None -> if pair = "" then None else Some (pair, ""))

let make ?(query = []) ?(headers = Headers.empty) ?body meth target =
  let path, parsed_query =
    match String.index_opt target '?' with
    | Some i ->
      ( String.sub target 0 i,
        parse_query (String.sub target (i + 1) (String.length target - i - 1))
      )
    | None -> (target, [])
  in
  { meth; path; query = parsed_query @ query; headers; body }

let path_segments req =
  List.filter (fun s -> s <> "") (String.split_on_char '/' req.path)

let query_param name req = List.assoc_opt name req.query
let auth_token req = Headers.auth_token req.headers

let with_auth_token token req =
  { req with headers = Headers.with_auth_token token req.headers }

let pp ppf req =
  Fmt.pf ppf "%a %s" Meth.pp req.meth req.path;
  if req.query <> [] then
    Fmt.pf ppf "?%s"
      (String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) req.query))

let to_curl req =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "curl -X ";
  Buffer.add_string buf (Meth.to_string req.meth);
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf (Printf.sprintf " -H '%s: %s'" name value))
    (Headers.to_list req.headers);
  (match req.body with
   | Some body ->
     Buffer.add_string buf
       (Printf.sprintf " -d '%s'" (Cm_json.Printer.to_string body))
   | None -> ());
  Buffer.add_char buf ' ';
  Buffer.add_string buf "http://127.0.0.1:8000";
  Buffer.add_string buf req.path;
  if req.query <> [] then begin
    Buffer.add_char buf '?';
    Buffer.add_string buf
      (String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) req.query))
  end;
  Buffer.contents buf
