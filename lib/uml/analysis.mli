(** Bounded semantic analysis of behavioral models.

    Well-formedness ({!Validate}) is syntactic; this module checks the
    {e semantics} of a protocol machine against a sample of concrete
    observable states:

    - {b exclusivity}: no two state invariants hold in the same concrete
      state (a monitor cannot attribute an observation to a unique
      protocol state otherwise);
    - {b coverage}: every sampled state satisfies some invariant (no
      reachable observation falls outside the protocol);
    - {b guard determinism}: for each trigger and each sampled state, at
      most one outgoing transition of the matching source state is
      enabled (otherwise the generated postcondition may demand two
      different effects at once);
    - {b effect satisfiability}: for each transition there exists a
      sampled state pair (pre, post) satisfying
      [inv(source) ∧ guard] before and [inv(target) ∧ effect] after —
      a transition with no witness is vacuous on the sample.

    The sample is supplied by the caller (a list of OCL environments);
    {!cinder_sample} enumerates the Cinder observation space up to a
    bound.  The analysis is sound on the sample only — it is a
    model-debugging aid, not a proof. *)

type finding = {
  check : string;  (** "exclusivity" | "coverage" | "determinism" | "vacuity" *)
  subject : string;  (** states / trigger / transition concerned *)
  detail : string;
}

val pp_finding : Format.formatter -> finding -> unit

val exclusivity : Behavior_model.t -> Cm_ocl.Eval.env list -> finding list
val coverage : Behavior_model.t -> Cm_ocl.Eval.env list -> finding list
val guard_determinism : Behavior_model.t -> Cm_ocl.Eval.env list -> finding list

val vacuity :
  Behavior_model.t ->
  pre_states:Cm_ocl.Eval.env list ->
  post_states:Cm_ocl.Eval.env list ->
  finding list

val analyze :
  Behavior_model.t -> Cm_ocl.Eval.env list -> finding list
(** All checks; for {!vacuity} the same sample is used for pre and post
    states. *)

val cinder_sample : unit -> Cm_ocl.Eval.env list
(** The Cinder observation space: n volumes (each available or in-use),
    quota q, for 1 ≤ q ≤ 4 and n ≤ q, with a [user] in each of the three
    groups. *)
