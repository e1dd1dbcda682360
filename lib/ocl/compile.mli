(** Staged compilation of OCL to closures — the monitor's fast path.

    The tree-walking interpreter ({!Eval}) re-dispatches on the AST and
    re-resolves variables through assoc lists on {e every} request.  This
    module stages that work at monitor-creation time: an expression is
    compiled once into an OCaml closure over a {!frame} — a pre-sized
    value array whose slot layout ({!plan}) is fixed at compile time —
    so a request-time check is a direct closure call with array-indexed
    variable access and no environment allocation.

    Staging performed at compile time:
    - constant subexpressions (after {!Simplify.simplify}) are folded to
      their values — every OCL operation is total and pure, so folding
      cannot change verdicts;
    - boolean connectives become short-circuiting closures that preserve
      the Kleene tribool semantics of the interpreter ([False and _],
      [True or _], [False implies _] decide without the right operand);
    - iterator binders get scratch slots in the frame, written in place
      during iteration instead of allocating extended environments.

    Verdict-equivalence with {!Eval} over every generated contract is
    asserted by [test/test_compile.ml].

    {2 Incremental evaluation}

    Every plan stages through a structural common-subexpression table
    and wraps every pure [and]/[or]/[implies] node (and each compiled
    root) in an epoch-stamped cache.  The caches only act on frames
    carrying a {!memo}: a frame from {!frame_of_env} has none, so its
    closures run uncached.  A {!memo} tracks, per slot, the epoch at
    which its value last changed; a node whose dependency slots are all
    unchanged since its last evaluation replays its cached verdict
    without recomputing and without allocating.  {!refresh} diffs a
    persistent frame against a new environment ({!Value.same}), bumping
    epochs only for slots that actually changed — so a request that
    touched nothing a contract reads costs a handful of integer
    comparisons. *)

type plan
(** A slot layout shared by a family of compiled expressions (one plan
    per contract).  Compiling against a plan allocates slots for the
    free context variables it encounters; frames must therefore be
    created {e after} every expression of the family has been
    compiled. *)

val plan : unit -> plan
(** A fresh, empty slot layout. *)

val var_slot : plan -> string -> int
(** Slot index of a free context variable, allocating one if needed —
    used by the snapshot runtime to write captured pre-state values
    directly into a post-state frame. *)

type frame
(** A runtime environment projected onto a plan's slot layout, plus the
    optional pre-state frame that [pre(...)] evaluates against. *)

val frame_of_env : plan -> Eval.env -> frame
(** Project an interpreter environment: every plan variable is looked up
    once ({!Eval.lookup}); missing bindings are [Undef].  The
    environment's own attached pre-state is {e not} carried over —
    attach one explicitly with {!with_pre}. *)

val with_pre : pre:frame -> frame -> frame
(** Attach a pre-state frame (mirrors {!Eval.with_pre}, including the
    idempotence of [pre(...)] inside the pre-state itself).  The
    attached pre copy drops any memo — node caches are keyed by the
    post-state frame. *)

type t
(** A compiled expression: [frame -> Value.t]. *)

val compile : plan -> Ast.expr -> t
(** [Simplify.simplify] then stage.  Total: evaluation never raises;
    failures yield [Value.Undef], exactly as {!Eval.eval}. *)

val compile_raw : plan -> Ast.expr -> t
(** Stage without the simplification pass (differential-testing hook). *)

(** {2 Incremental evaluation} *)

type memo
(** Per-plan change-tracking state: slot versions, node caches, and
    hit/eval counters.  Single-threaded — one memo per monitor shard. *)

val make_memo : plan -> memo
(** Create after {e all} expressions of the plan are compiled (slot and
    node counts must be final). *)

val memo_frame : plan -> memo -> frame
(** A persistent frame bound to [memo], refreshed in place between
    requests instead of re-allocated per observation.  Slots start
    [Undef] at epoch 0. *)

type tracked = private {
  run : t;
  const : bool;
  node : int;
  mask : int;
  impure : bool;
}
(** A compiled expression plus its dependency summary: enough to ask,
    before running it, whether a memoized verdict can be replayed. *)

val compile_tracked : plan -> Ast.expr -> tracked

val strict_disjunction : plan -> tracked list -> tracked
(** Non-short-circuiting Kleene disjunction over compiled disjuncts —
    bit-identical to the staged short-circuiting [or] chain ([tri_or]
    is total and True-absorbing) but evaluates {e every} disjunct, so
    one evaluation stamps each disjunct's memo node for replay by later
    checks of the same observation.  The empty list is [False]; a
    singleton is returned unchanged. *)

val refresh : plan -> memo -> frame -> Eval.env -> sync:(string -> bool) -> int
(** Sync the frame's free slots from the environment, diffing with
    {!Value.same}; only actual changes bump the epoch and slot
    versions.  [sync name = false] skips that free entirely (the
    runtime's snapshot slots).  Returns the number
    of changed slots.  Allocation-free when nothing changed. *)

val write_slot_versioned : frame -> int -> Value.t -> unit
(** A slot write that diffs first and bumps the slot's version on real
    changes — keeps post-condition memos valid across requests whose
    snapshots are identical.  Plain write on frames without a memo. *)

val cached : memo -> tracked -> bool
(** Can this expression replay a cached value without evaluating?
    (Constant, or its root node's dependencies are all clean.) *)

val cached_value : memo -> tracked -> Value.t
(** Only meaningful when {!cached} just returned [true]. *)

val deps_clean : memo -> mask:int -> stamp:int -> bool
(** Were none of the slots in [mask] changed after [stamp]?  Exposed so
    runtimes can validate their own derived caches (snapshot values,
    covered-requirement lists) against the same version vector. *)

val epoch : memo -> int
val memo_hits : memo -> int
val memo_evals : memo -> int

val eval : t -> frame -> Value.t
val check : t -> frame -> Value.tribool

val verdict : t -> frame -> Eval.verdict
(** Like {!Eval.verdict} but without the interpreter's fault-localization
    hint (callers wanting a hint re-run the interpreter on the rare
    [Unknown] path). *)
