(** URI derivation from the resource model (§VI: "by traversing the tags
    on the associations between the resources, we compose the paths of
    each resource — always starting from the corresponding collection").

    Rules, applied along the containment chain from the root:
    - the root collection lives at the model's [base_path];
    - an item of a collection [C] is addressed by appending
      [/{<item>_id}] where [<item>] is the contained definition's name;
    - a child reached through an association with role [r] appends [/r];
      if the child is a normal resource with a many-multiplicity it is a
      sub-collection and its items get [/{<child>_id}] as above. *)

type entry = {
  resource : string;  (** resource definition name *)
  template : Cm_http.Uri_template.t;
  is_item : bool;
      (** [true] when the template addresses one element of a collection
          (it ends in a parameter), [false] for collection URIs *)
}

val derive : Resource_model.t -> (entry list, string) result
(** Every addressable resource reachable from the root.  A resource
    contained in a collection yields two entries: the collection URI and
    the item URI.  Errors on unreachable resources or on a cycle along
    containment. *)

type index
(** Hashed [(resource, is_item)] lookup over a derived entry list — the
    per-request replacement for scanning the table.  Equivalent to
    [List.find_opt] on the same list (first entry wins), asserted in
    [test/test_uml.ml]. *)

val index : entry list -> index
val find : index -> resource:string -> item:bool -> entry option

val template_for :
  Resource_model.t -> resource:string -> item:bool -> Cm_http.Uri_template.t option
(** Convenience lookup over {!derive}. *)

val id_param : string -> string
(** Parameter name for an item of the given resource definition:
    ["volume" -> "volume_id"]. *)

val context : Resource_model.t -> string
(** The tenant context: the resource definition the root collection
    contains (the Cinder models' [project]).  Every request addressed to
    one tenant binds its {!id_param} ([project_id]), so that parameter
    is the tenant key the monitor classifies, shards and observes by.
    A root that contains nothing (a model {!Validate} rejects) is its
    own context, and no derived template binds its parameter. *)
