type t = int

let ok = 200
let created = 201
let accepted = 202
let no_content = 204
let bad_request = 400
let unauthorized = 401
let forbidden = 403
let not_found = 404
let method_not_allowed = 405
let conflict = 409
let request_entity_too_large = 413
let internal_server_error = 500
let bad_gateway = 502
let service_unavailable = 503
let gateway_timeout = 504

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 401 -> "Unauthorized"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 413 -> "Request Entity Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 502 -> "Bad Gateway"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | code -> Printf.sprintf "Status %d" code

let is_success code = code >= 200 && code <= 299
let is_client_error code = code >= 400 && code <= 499
let is_server_error code = code >= 500 && code <= 599

let known =
  [ 200; 201; 202; 204; 400; 401; 403; 404; 405; 409; 413; 500; 501; 502;
    503; 504
  ]

let pp ppf code = Fmt.pf ppf "%d %s" code (reason_phrase code)
