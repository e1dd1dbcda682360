type conformance =
  | Conform
  | Conform_denied
  | Security_unauthorized_allowed
  | Security_authorized_denied
  | Functional_wrongly_rejected
  | Functional_wrongly_accepted
  | Functional_bad_status
  | Post_violated
  | Undefined of string
  | Degraded of string
  | Monitor_error of string
  | Not_monitored

let is_violation = function
  | Security_unauthorized_allowed | Security_authorized_denied
  | Functional_wrongly_rejected | Functional_wrongly_accepted
  | Functional_bad_status | Post_violated -> true
  | Conform | Conform_denied | Undefined _ | Degraded _ | Monitor_error _
  | Not_monitored -> false

let is_definite = function
  | Undefined _ | Degraded _ | Monitor_error _ -> false
  | Conform | Conform_denied | Security_unauthorized_allowed
  | Security_authorized_denied | Functional_wrongly_rejected
  | Functional_wrongly_accepted | Functional_bad_status | Post_violated
  | Not_monitored -> true

let conformance_to_string = function
  | Conform -> "conform"
  | Conform_denied -> "conform-denied"
  | Security_unauthorized_allowed -> "SECURITY:unauthorized-request-allowed"
  | Security_authorized_denied -> "SECURITY:authorized-request-denied"
  | Functional_wrongly_rejected -> "FUNCTIONAL:wrongly-rejected"
  | Functional_wrongly_accepted -> "FUNCTIONAL:wrongly-accepted"
  | Functional_bad_status -> "FUNCTIONAL:unexpected-success-status"
  | Post_violated -> "FUNCTIONAL:postcondition-violated"
  | Undefined hint -> "undefined: " ^ hint
  | Degraded detail -> "degraded: " ^ detail
  | Monitor_error detail -> "monitor-error: " ^ detail
  | Not_monitored -> "not-monitored"

let conformance_of_string text =
  let fixed =
    [ Conform; Conform_denied; Security_unauthorized_allowed;
      Security_authorized_denied; Functional_wrongly_rejected;
      Functional_wrongly_accepted; Functional_bad_status; Post_violated;
      Not_monitored
    ]
  in
  let strip prefix =
    let plen = String.length prefix in
    if String.length text >= plen && String.sub text 0 plen = prefix then
      Some (String.sub text plen (String.length text - plen))
    else None
  in
  match
    List.find_opt (fun c -> conformance_to_string c = text) fixed
  with
  | Some c -> Some c
  | None ->
    (match strip "undefined: " with
     | Some hint -> Some (Undefined hint)
     | None ->
       (match strip "degraded: " with
        | Some detail -> Some (Degraded detail)
        | None ->
          (match strip "monitor-error: " with
           | Some detail -> Some (Monitor_error detail)
           | None -> None)))

let pp_conformance ppf c = Fmt.string ppf (conformance_to_string c)

type t = {
  request : Cm_http.Request.t;
  response : Cm_http.Response.t;
  cloud_response : Cm_http.Response.t option;
  conformance : conformance;
  pre_verdict : Cm_ocl.Eval.verdict option;
  post_verdict : Cm_ocl.Eval.verdict option;
  covered_requirements : string list;
  contract_requirements : string list;
  snapshot_bytes : int;
  detail : string;
}

let pp ppf outcome =
  Fmt.pf ppf "%a -> %d: %a%s"
    Cm_http.Request.pp outcome.request
    outcome.response.Cm_http.Response.status pp_conformance
    outcome.conformance
    (if outcome.detail = "" then "" else " (" ^ outcome.detail ^ ")")
