(** Contract checking at run time.

    The monitor uses this module per request: check the precondition in
    the observed pre-state, take a snapshot, let the cloud act, then
    check the postcondition in the observed post-state against the
    snapshot.

    {!prepare} stages everything that does not depend on the request —
    the snapshot plan (only the values under [pre(...)], as in the
    paper) and one {!Cm_ocl.Compile} closure per contract expression
    over a shared slot plan — so the per-request work is a frame diff
    plus direct closure calls or memoized replays. *)

type engine =
  | Interpreted
      (** walk the AST with {!Cm_ocl.Eval} on every check — the reference
          semantics the compiled engine is differentially tested
          against *)
  | Compiled
      (** evaluate staged closures ({!Cm_ocl.Compile}) over one
          persistent frame per contract: re-observed values are diffed
          in ({!Cm_ocl.Compile.refresh}) and checks replay memoized
          verdicts whenever their dependency slots are unchanged.
          Verdict-identical to [Interpreted] (diffing is value-based) *)

type subscription = {
  sub_events : (Cm_http.Meth.t * string * bool) list;
      (** the (method, resource, tenant-keyed) events whose write effects
          can change this contract's verdict — lowercased resource names,
          sorted (resource, method) *)
  sub_identity : bool;
      (** subscribed to the identity (token-revocation) pseudo-event *)
  sub_shard_closed : bool;
      (** every subscribed event is tenant-keyed: the contract's verdicts
          are a function of one tenant's event stream *)
}
(** Statically computed event interest.  Produced by the analysis layer
    and threaded in through {!prepare}; the runtime stores and serves
    it. *)

type prepared
(** A contract with its snapshot plan compiled and its expressions
    staged (do this once, not per request). *)

val prepare :
  ?engine:engine -> ?subscription:subscription -> Contract.t -> prepared
(** Defaults: [Compiled], no subscription. *)

val subscription : prepared -> subscription option

val subscribed_to :
  prepared -> meth:Cm_http.Meth.t -> resource:string -> bool
(** Can a request on [(meth, resource)] change this contract's verdict?
    Conservatively [true] when no subscription was supplied. *)

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
    after the next.  Under {!Compiled} every root is value-diffed into
    the persistent frame. *)

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
(** Counters since prepare (or the last reset).  [evals] is also
    maintained under {!Interpreted}, where everything else stays 0, so
    the two engines can be compared on identical workloads. *)

val reset_eval_counters : prepared -> unit
(** Resets [evals]/[replays] (the memo's node counters keep running). *)
