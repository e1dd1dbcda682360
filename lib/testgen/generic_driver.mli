(** A model-driven test driver over the simulated cloud.

    The driver derives URIs, item lookup and observation from the
    resource model, so instantiating model-based testing for a service
    takes one {!spec} record (which collection POST bodies to send,
    nothing more). *)

type spec = {
  resources : Cm_uml.Resource_model.t;
  behavior : Cm_uml.Behavior_model.t;
  security : Cm_contracts.Generate.security;
  create_body : string -> Cm_json.Json.t option;
      (** body for [POST] creating the given resource definition;
          [None] when creation is not supported *)
  update_body : string -> Cm_json.Json.t option;
      (** body for [PUT] on an item of the given resource definition *)
}

val cinder_spec : spec
val glance_spec : spec

val driver :
  ?faults:Cm_cloudsim.Faults.set -> spec -> Execute.driver
(** Fresh seeded cloud (the paper's [myProject] plus a service account)
    and an Oracle-mode monitor generated from [spec]'s models.  Requests
    are concretized as:

    - POST on the item's containing collection with [create_body];
    - GET on the collection URI for collection-resource triggers;
    - GET/PUT/DELETE on the lexicographically first existing item
      (discovered by listing through the cloud as the service account);
      [None] when no item exists. *)
