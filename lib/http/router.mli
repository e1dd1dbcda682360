(** Request routing.

    The generated [urls.py] of the paper maps URI patterns to views; this
    router is the executable equivalent: an ordered table of
    (template, method, handler) routes.  Dispatch picks the most specific
    matching template; a path that matches some template but no method
    yields [405 Method Not Allowed] (with the permitted methods in the
    [Allow] header), and an unmatched path yields [404]. *)

type handler = Request.t -> (string * string) list -> Response.t
(** A handler receives the request and the path-parameter bindings. *)

type t

val empty : t

val add : Uri_template.t -> Meth.t -> handler -> t -> t
(** Routes added later win ties on specificity. *)

val of_routes : (string * Meth.t * handler) list -> t
(** Build from template strings; raises [Invalid_argument] on a bad
    template. *)

val dispatch : t -> Request.t -> Response.t
(** Route and run the handler.  Handler exceptions become 500 responses —
    a cloud must answer every request. *)

val allowed_methods : t -> string -> Meth.t list
(** Methods routable for a concrete path. *)

val routes : t -> (Uri_template.t * Meth.t) list
(** All registered routes (template, method) — the monitor enumerates
    these to audit URI coverage. *)
