(** Model slicing.

    "We are planning to address these limitations in our future work by
    proposing a support for splitting the models into several parts via
    slicing" (§VI-B).  A slice restricts a behavioral model to the
    transitions of interest — by trigger resource, by HTTP method, or by
    security-requirement id — and prunes the states that no retained
    transition touches (the initial state is always kept).

    Slicing is {e contract-preserving} for the retained triggers: a
    trigger whose transitions all survive generates exactly the same
    contract from the slice as from the full model (property-tested in
    [test/test_uml.ml]), because contracts only combine the transitions
    of their own trigger and the invariants of the states those touch. *)

type criterion =
  | By_resources of string list
      (** keep transitions whose trigger resource is listed *)
  | By_methods of Cm_http.Meth.t list
  | By_requirements of string list
      (** keep transitions carrying at least one of the SecReq ids *)
  | Union of criterion list
  | Intersection of criterion list

val keeps : criterion -> Behavior_model.transition -> bool

val behavior : criterion -> Behavior_model.t -> Behavior_model.t
(** The sliced machine: filtered transitions; states restricted to those
    appearing as a source or target of a retained transition, plus the
    initial state.  State invariants are untouched. *)

val resource_model :
  keep:string list -> Resource_model.t -> Resource_model.t
(** Restrict a resource model to the listed resource definitions plus
    everything on their containment paths from the root (a resource is
    only addressable through its ancestors). *)
