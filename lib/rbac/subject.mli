(** Authorization subjects: users and their usergroup memberships.

    RBAC in OpenStack (and in the paper's Table I) distinguishes
    {e roles} (admin, member, user) from {e usergroups}
    (proj_administrator, service_architect, business_analyst): users
    belong to groups; a {!Role_assignment.t} maps groups to roles within
    a project. *)

type t = {
  user_name : string;
  groups : string list;  (** usergroup names, e.g. ["proj_administrator"] *)
}

val make : string -> string list -> t

val to_json : t -> Cm_json.Json.t
(** The binding shape contracts evaluate over:
    [{"name": ..., "groups": [...], "role": ..., "id": {"groups": ...}}] —
    [role] and [id.groups] are filled in by {!Role_assignment.enrich}. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
