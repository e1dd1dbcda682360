(** Usergroup-to-role assignments within a project.

    "The projects are created by the cloud administrator using Keystone
    and users or usergroups are assigned the roles in these projects"
    (§IV-B).  This table is the link between what a token proves (group
    membership) and what a policy grants (roles). *)

type t

val empty : t
val assign : group:string -> role:string -> t -> t
val of_list : (string * string) list -> t
(** [(group, role)] pairs. *)

val to_list : t -> (string * string) list

val roles_of_group : string -> t -> string list
val groups_of_role : string -> t -> string list

val roles_of : Subject.t -> t -> string list
(** All roles the subject holds through any of its groups, sorted. *)

val enrich : Subject.t -> t -> Cm_json.Json.t
(** The full [user] binding for contract evaluation: subject fields plus
    ["role"] (the subject's strongest single role for display; contracts
    should use ["roles"]), ["roles"] (all roles) and ["id"] ([{"groups":
    <primary role>}] — the paper's Listing 1 navigates [user.id.groups]
    to reach the role name, so we expose the same path). *)

val pp : Format.formatter -> t -> unit
