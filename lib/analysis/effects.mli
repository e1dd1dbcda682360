(** Static write-effect analysis — the dual of
    {!Cm_ocl.Footprint}.

    A transition's effect expression relates post-state to pre-state;
    the roots and fields its non-frame conjuncts constrain {e outside}
    [pre(...)] are what the trigger mutates.  Frame conjuncts
    ([e = pre(e)], or pre()-free conjuncts the solver proves are already
    implied by [inv(source) /\ guard]) document non-change and
    contribute nothing.  Unsafe methods additionally write their own
    addressed resource, so an under-specified effect still
    over-approximates.  Everything here over-approximates writes — the
    sound direction for event subscription and cache invalidation.

    The event vocabulary is the model's triggers plus one distinguished
    {e identity} pseudo-event (token revocation: [DELETE] on the token
    store), which writes the [user] binding and carries no tenant key. *)

type event = {
  ev_trigger : Cm_uml.Behavior_model.trigger;
  ev_tenant_keyed : bool;
      (** some derived URI template for the resource binds the tenant
          parameter ({!tenant_keyed}) — the event is addressed to one
          tenant *)
  ev_identity : bool;  (** the token-revocation pseudo-event *)
  ev_writes : Cm_ocl.Footprint.t;
}

val identity_resource : string
val identity_trigger : Cm_uml.Behavior_model.trigger
val identity_writes : Cm_ocl.Footprint.t

val conjuncts : Cm_ocl.Ast.expr -> Cm_ocl.Ast.expr list
(** Top-level [and]-split, in source order. *)

val is_frame_conjunct : pre:Cm_ocl.Ast.expr -> Cm_ocl.Ast.expr -> bool
(** Is the conjunct a frame condition under the given transition
    precondition?  {!Solver.Unknown} counts as "no". *)

val post_footprint : Cm_ocl.Ast.expr -> Cm_ocl.Footprint.t
(** Footprint of the conjunct with every [pre(...)] subtree erased —
    the post-state part only. *)

val transition_writes :
  Cm_uml.Behavior_model.t -> Cm_uml.Behavior_model.transition ->
  Cm_ocl.Footprint.t

val events : Input.t -> (event list, string) result
(** One event per distinct trigger (write footprints unioned over its
    transitions), sorted by (resource, method), with the identity
    pseudo-event appended.  [Error] when the resource model's URI table
    cannot be derived. *)

val footprints_interfere : Cm_ocl.Footprint.t -> Cm_ocl.Footprint.t -> bool
(** [footprints_interfere reads writes]: do they meet on some root at
    field granularity ([All] meets anything on the same root)? *)

val tenant_keyed :
  Cm_uml.Resource_model.t -> Cm_uml.Paths.entry list -> string -> bool
(** [tenant_keyed model entries resource]: does some entry for the
    resource bind the model's tenant parameter, the {!Cm_uml.Paths.id_param}
    of {!Cm_uml.Paths.context}?  [entries] is the model's derived URI
    table. *)

val compare_trigger :
  Cm_uml.Behavior_model.trigger -> Cm_uml.Behavior_model.trigger -> int

val event_to_json : event -> Cm_json.Json.t
val to_json : event list -> Cm_json.Json.t
