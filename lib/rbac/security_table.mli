(** The security-requirements table (Table I of the paper).

    Each entry states which roles (and, through the project's role
    assignment, which usergroups) may invoke a method on a resource, and
    carries the requirement identifier used for traceability. *)

type entry = {
  resource : string;  (** resource definition name, e.g. "volume" *)
  req_id : string;  (** e.g. "1.4" *)
  meth : Cm_http.Meth.t;
  roles : string list;  (** roles allowed to perform the request *)
}

type t = entry list

val entry :
  resource:string -> req:string -> Cm_http.Meth.t -> string list -> entry

val find : resource:string -> meth:Cm_http.Meth.t -> t -> entry option
val requirement_ids : t -> string list

val allowed : t -> Role_assignment.t -> resource:string ->
  meth:Cm_http.Meth.t -> Subject.t -> bool
(** The access decision: is some role of the subject among the entry's
    roles?  A (resource, method) pair with no entry is denied —
    fail-closed, every URI must be safeguarded. *)

val auth_guard : entry -> Role_assignment.t -> Cm_ocl.Ast.expr
(** The OCL guard encoding the entry, as a disjunction over the
    usergroups assigned any allowed role:
    [user.groups->includes('proj_administrator') or ...].  This is the
    "authorization information added into the appropriate views" (§VI,
    step 3). *)

val cinder : t
(** Table I: GET (1.1) for admin, member, user; PUT (1.2) and POST (1.3)
    for admin, member; DELETE (1.4) for admin only — on [volume]; plus
    the listing entry for the [Volumes] collection under 1.1. *)

val glance : t
(** The image-service analogue using the 2.x requirement range: GET
    (2.1) for admin, member, user; PUT (2.2) and POST (2.3) for admin,
    member; DELETE (2.4) for admin only — on [image]; plus the listing
    entry for [Images] under 2.1. *)

val cross : t
(** The cross-service table: {!cinder} and {!glance} plus the compute
    surface in the 3.x range — server GET (3.5) for all roles, POST
    (3.5) for admin/member, DELETE (3.6) for admin; the [Servers]
    listing under 3.5; and POST on [attachment] (3.1) / [detachment]
    (3.2) for admin/member, mirroring the cloud's volume:attach and
    volume:detach policy. *)

val cinder_assignment : Role_assignment.t
(** The usergroup/role mapping of Table I: proj_administrator -> admin,
    service_architect -> member, business_analyst -> user. *)

val render : ?resources:string list -> t -> Role_assignment.t -> string
(** Render in the layout of Table I (Resource / SecReq / Request / Role /
    UserGroup), optionally filtered to the given resources. *)
