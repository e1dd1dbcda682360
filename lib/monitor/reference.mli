(** The reference monitor: §V's workflow (Fig. 2) written out naively, as
    the executable semantics the production monitor is tested against.

    Per request it classifies the URI against every template
    {!Cm_uml.Paths.derive} yields (the most specific wins); observes the
    whole state with plain GETs (the context document with its listings,
    singleton children, every item the URI's parameters address, token
    introspection, the request body); evaluates Pre(m) with
    {!Cm_ocl.Eval}; forwards; observes again and evaluates Post(m)
    against the whole pre-state ({!Cm_contracts.Snapshot.check_post_full});
    and maps the verdicts to an {!Outcome.t} with a table of its own.
    It shares only the models, the contract generator and the OCL
    interpreter with production.  It assumes a reliable transport: a
    backend exception escapes {!handle}. *)

type mode =
  | Enforce  (** block a failing Pre(m) (403), hide a failing Post(m) (500) *)
  | Oracle  (** forward everything and classify the exchange *)

type t

val create :
  ?mode:mode ->
  service_token:string ->
  ?service_token_for:(string -> string option) ->
  security:Cm_contracts.Generate.security ->
  Cm_uml.Resource_model.t ->
  Cm_uml.Behavior_model.t ->
  (Cm_http.Request.t -> Cm_http.Response.t) ->
  (t, string list) result
(** Default mode [Oracle].  [security] supplies the contracts'
    authorization guards; [service_token_for] picks the observation
    credential by project id.  [Error] when the URI table or the
    contracts cannot be derived. *)

val handle : t -> Cm_http.Request.t -> Outcome.t
(** Judge one request and return the exchange.  The reference keeps no
    outcome: the caller collects what [handle] returns. *)

val evals : t -> int
(** Contract checks evaluated so far (pre, covered requirements, auth
    guard, functional pre, snapshot, post): none is memoized. *)
