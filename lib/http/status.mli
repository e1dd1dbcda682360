(** HTTP status codes.

    The monitor's workflow (Fig. 2 of the paper) is driven by response
    codes: 200 means the request succeeded, 404 that the resource does not
    exist, 403 that the request was forbidden — the paper's state
    invariants are defined over exactly these observations. *)

type t = int
(** A status code; only the codes in {!known} carry a reason phrase but
    any integer in 100–599 is accepted. *)

val ok : t (** 200 *)

val created : t (** 201 *)

val accepted : t (** 202 *)

val no_content : t (** 204 *)

val bad_request : t (** 400 *)

val unauthorized : t (** 401 *)

val forbidden : t (** 403 *)

val not_found : t (** 404 *)

val method_not_allowed : t (** 405 *)

val conflict : t (** 409 *)

val request_entity_too_large : t (** 413 — OpenStack "OverLimit" for quota *)

val internal_server_error : t (** 500 *)

val bad_gateway : t (** 502 — transport blip in front of the cloud *)

val service_unavailable : t (** 503 *)

val gateway_timeout : t (** 504 — the monitor gave up waiting on the cloud *)

val reason_phrase : t -> string
val is_success : t -> bool (** 2xx *)

val is_client_error : t -> bool (** 4xx *)

val is_server_error : t -> bool (** 5xx *)

val known : t list
val pp : Format.formatter -> t -> unit
