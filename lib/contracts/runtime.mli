(** Contract checking at run time.

    The monitor uses this module per request: check the precondition in
    the observed pre-state, take a snapshot, let the cloud act, then
    check the postcondition in the observed post-state against the
    snapshot.

    A contract is checked in two parts:
    - its {!plan}: everything that does not depend on the request — the
      snapshot plan (only the values under [pre(...)], as in the paper),
      one {!Cm_ocl.Compile} closure per contract expression over a shared
      slot plan, and the read-set.  {!stage} builds it once, nothing
      writes it afterwards, and every instance shares it, on any domain;
    - an {e instance} ({!prepared}): the memo frame the closures
      evaluate against, with its slot versions, node caches and
      counters.  {!instance} allocates a fresh one; it belongs to one
      monitor and is single-threaded.

    So the per-request work is a frame diff plus direct closure calls or
    memoized replays. *)

type plan
(** A contract with its snapshot plan compiled and its expressions
    staged (do this once, not per request). *)

val stage : Contract.t -> plan

type prepared
(** One instance of a {!plan}: the plan and a memo frame of its own. *)

val instance : plan -> prepared
(** A fresh frame over the plan: no slot observed, no verdict cached,
    every counter zero.  Stages nothing. *)

val prepare : Contract.t -> prepared
(** [instance (stage c)]. *)

val contract : prepared -> Contract.t

val footprint : prepared -> Cm_ocl.Footprint.t
(** Static read-set over all of the contract's expressions (pre,
    functional pre, auth guard, branches, post).  The observer prunes
    its state fetches to this. *)

type observed
(** One observed cloud state: the observer's environment plus its
    one-time projection onto the contract's compiled frame.  Build it
    once per observation and reuse it for every check against that
    state. *)

val observe : prepared -> Cm_ocl.Eval.env -> observed
(** Project an environment.  Returns the contract's one [observed]
    record, updated in place — an earlier observation is not valid
    after the next: every root is value-diffed into the contract's
    persistent frame ({!Cm_ocl.Compile.refresh}). *)

val observed_env : observed -> Cm_ocl.Eval.env

val check_pre : prepared -> Cm_ocl.Eval.env -> Cm_ocl.Eval.verdict
val check_pre_observed : prepared -> observed -> Cm_ocl.Eval.verdict

val covered_requirements : prepared -> Cm_ocl.Eval.env -> string list
(** SecReq ids of the branches active in the pre-state. *)

val covered_requirements_observed : prepared -> observed -> string list

val auth_guard_tri : prepared -> observed -> Cm_ocl.Value.tribool option
(** Truth of the contract's authorization guard in the observed state;
    [None] when the contract has no guard. *)

val functional_pre_tri : prepared -> observed -> Cm_ocl.Value.tribool
(** Truth of the functional (non-authorization) precondition. *)

type snapshot = Snapshot.taken
(** The value of every [pre(...)] subterm of the postcondition, by
    slot — plain data, so the crash-recovery journal persists it as
    the durable pre-image of a forwarded request. *)

val take_snapshot : prepared -> Cm_ocl.Eval.env -> snapshot
val take_snapshot_observed : prepared -> observed -> snapshot
(** Every snapshot slot is evaluated exactly once. *)

val snapshot_bytes : snapshot -> int

val check_post :
  prepared -> snapshot -> Cm_ocl.Eval.env -> Cm_ocl.Eval.verdict

val check_post_observed :
  prepared -> snapshot -> observed -> Cm_ocl.Eval.verdict

(** {2 Incremental-evaluation statistics} *)

type eval_stats = {
  evals : int;  (** top-level expression evaluations *)
  replays : int;  (** top-level memoized verdict replays *)
  node_hits : int;  (** inner connective cache hits *)
  node_evals : int;  (** inner connective evaluations *)
  refreshes : int;  (** frame refreshes (observations) *)
  slots_changed : int;  (** slot values that actually changed *)
}

val eval_stats : prepared -> eval_stats
(** The instance's counters since {!instance}. *)
