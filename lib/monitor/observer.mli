(** Deriving the OCL environment from observable cloud state.

    The models define state invariants "as boolean expressions over the
    {e addressable} resources" (§IV-B): every value a contract mentions
    must be obtainable through GET requests.  The observer issues those
    GETs through the same backend the monitored request will travel —
    the monitor never peeks inside the cloud.

    Observation is {e model-driven}: the resource model says which URIs
    exist and how they compose, so the same observer works for any
    service (Cinder volumes, Glance-like images, …):

    - the context resource ({!Cm_uml.Paths.context}: the item contained
      in the root collection, e.g. [project]) is GET and its members
      become the binding of that name; the observer's [project_id] is
      the value of the context's id parameter (e.g. [project_id]) in
      every URI it expands;
    - every collection reachable from it (role [volumes], [images], …)
      is GET and its listing becomes a member of the context binding
      under the role name — a failed listing simply leaves the member
      absent (size 0; a read the monitor's resilience layer could not
      complete is not an answer, and the monitor keeps that phase's
      verdict Undefined);
    - every singleton child (e.g. [quota_sets]) is GET and bound as a
      top-level variable under its definition name;
    - the specific item addressed by the monitored request, when given,
      is GET and bound under its definition name (e.g. [volume]).

    Response bodies are unwrapped from their single-key envelope
    ([{"volume": {...}}], [{"volumes": [...]}]) regardless of the key's
    exact spelling.

    Two per-request cost levers, both optional and both
    verdict-preserving:

    - {!with_footprint} restricts the fetches to a contract's static
      read-set ({!Cm_ocl.Footprint}) — unmentioned roots and members
      are never GET;
    - {!with_cache} reuses observation responses through an
      {!Obs_cache} (invalidated by the monitor on forwarded mutations;
      re-observations pass [~fresh:true] to bypass reads).

    Observation uses a service account (the monitor's own credentials),
    mirroring how OpenStack services authenticate to each other. *)

type backend = Cm_http.Request.t -> Cm_http.Response.t

type t

val create :
  backend:backend ->
  token:string ->
  model:Cm_uml.Resource_model.t ->
  project_id:string ->
  (t, string) result
(** [Error] when the model's URI scheme cannot be derived — a monitor
    that observes nothing would vacuously pass everything, so the
    failure must be surfaced, not swallowed. *)

val create_exn :
  backend:backend ->
  token:string ->
  model:Cm_uml.Resource_model.t ->
  project_id:string ->
  t
(** Raises [Invalid_argument] where {!create} returns [Error]. *)

type shape
(** What the resource model determines for observation: its derived URI
    entries, their lookup index and the tenant context with its id
    parameter.  Immutable, so observers on any domain share one. *)

val shape : model:Cm_uml.Resource_model.t -> Cm_uml.Paths.entry list -> shape
(** Index already-derived path entries (the monitor derives them once
    per generation). *)

val of_shape :
  backend:backend -> token:string -> project_id:string -> shape -> t
(** An observer over a shared shape, with its own interned names and no
    footprint or cache. *)

val with_project : t -> project_id:string -> t
(** Cheap per-request re-targeting; shares entries/index/cache. *)

val with_token : t -> token:string -> t
(** Swap the service credential — clouds scope tokens to one project,
    so multi-tenant monitors resolve a per-project service token. *)

val with_footprint : t -> Cm_ocl.Footprint.t option -> t
(** [Some fp] prunes observation to the footprint; [None] observes
    everything. *)

val with_cache : t -> Obs_cache.t -> t

val observe :
  ?fresh:bool ->
  ?item:string * string ->
  ?bindings:(string * string) list ->
  t ->
  (string * Cm_json.Json.t) list
(** [?item:(resource_def_name, id)] additionally binds that one item.
    [?bindings] are the URI parameters of the monitored request: they
    let the observer reach {e nested} resources (an item whose URI needs
    its ancestors' ids, e.g.
    [/v3/{project_id}/volumes/{volume_id}/snapshots/{snapshot_id}]) —
    every ancestor item on the request's path is bound under its
    definition name, and each bound item additionally carries the
    listings of its own sub-collections as members under the role name.
    The context binding is produced even when the context GET fails
    (with only the members that could be observed).
    [~fresh:true] bypasses cache reads (still refreshing entries) — the
    stability re-observation uses it so the cache can never mask
    concurrent interference. *)

val subject_binding : backend -> token:string -> Cm_json.Json.t option
(** Introspect a {e user's} token into the ["user"] binding
    ([{"name"; "groups"; "roles"; "role"; "id": {"groups": role}}]).
    [None] when the token is invalid. *)

val env :
  ?fresh:bool ->
  ?item:string * string ->
  ?bindings:(string * string) list ->
  ?user_token:string ->
  ?request_body:Cm_json.Json.t ->
  t ->
  Cm_ocl.Eval.env
(** Full pre-/post-state environment: {!observe} plus the ["user"]
    binding when [user_token] is given, and the ["request"] binding
    (the monitored request's JSON body, read by cross-service guards as
    [request.<field>]) when [request_body] is given and some contract's
    footprint mentions it.  A token identity {e definitely} rejects
    (404: revoked or never issued) binds an empty subject — groups and
    roles [[]] — so authorization guards fail definitely instead of
    going Unknown; only transport-level introspection failures leave
    ["user"] unbound. *)
