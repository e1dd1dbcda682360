(** HTTP requests.

    Paths are absolute ("/v3/myproject/volumes/4"); query strings are
    parsed into an association list.  Bodies, when present, are JSON —
    the only media type the cloud APIs under study use. *)

type t = {
  meth : Meth.t;
  path : string;  (** absolute path, no query string *)
  query : (string * string) list;
  headers : Headers.t;
  body : Cm_json.Json.t option;
}

val make :
  ?query:(string * string) list ->
  ?headers:Headers.t ->
  ?body:Cm_json.Json.t ->
  Meth.t ->
  string ->
  t
(** [make meth target] parses [target] as [path?query]. *)

val path_segments : t -> string list
(** Path split on ['/'], empty segments removed. *)

val query_param : string -> t -> string option
val auth_token : t -> string option
val with_auth_token : string -> t -> t
val pp : Format.formatter -> t -> unit

val to_curl : t -> string
(** Render the request as the equivalent cURL command line — the paper
    drives the monitor with cURL, so logs and examples show the same
    surface syntax. *)
