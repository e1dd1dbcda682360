(** The cloud monitor: a contract-checking proxy over a private cloud.

    Implements the workflow of Fig. 2.  Each incoming request is matched
    against the URI templates derived from the resource model; the
    matching trigger's contract is evaluated over the observed pre-state;
    the request is forwarded (or blocked, depending on {!mode}); the
    postcondition is evaluated over the observed post-state against the
    snapshot taken before forwarding; and the exchange's conformance
    verdict is returned to the caller, which keeps what it needs.

    Two modes serve the paper's two uses:
    - {b Enforce} — the proxy of Fig. 2: a request whose precondition
      fails is {e not} forwarded (403 with a diagnostic body); a
      postcondition violation turns the response into a 500-class
      diagnostic.  For developers deploying the monitor in front of the
      cloud.
    - {b Oracle} — the automated-testing use (§III-B, user 4): every
      request is forwarded and the monitor classifies the exchange,
      which is how authorization mutants are detected. *)

val log_src : Logs.src
(** The monitor's log source ("cloudmon.monitor"): violations at
    [Warning], every exchange at [Debug].  Enable a {!Logs} reporter in
    the host application to stream verdicts. *)

type mode =
  | Enforce
  | Oracle

type degradation =
  | Fail_closed
      (** when monitoring cannot complete (circuit open), reject the
          request with a 503 — certainty over availability *)
  | Fail_open_logged
      (** forward the request raw and unmonitored, logging the exchange
          as [Degraded] — availability over certainty (the default) *)

type pre_image = {
  pi_pre_verdict : Cm_ocl.Eval.verdict;
  pi_auth : Cm_ocl.Value.tribool option;
      (** authorization guard truth; [None] when the contract has no
          authorization guard *)
  pi_functional : Cm_ocl.Value.tribool;
  pi_covered : string list;
  pi_snapshot : Cm_contracts.Runtime.snapshot;
      (** the values under the postcondition's [pre(...)] subterms *)
}
(** The pre-phase conclusion of a contracted request, in serializable
    form.  A crash-recovery journal persists this {e before} the
    request is forwarded (write-ahead); {!resume} finishes the exchange
    from it after a restart, because once the effect may have been
    applied the pre-state can no longer be observed truthfully. *)

type config = {
  mode : mode;
  service_token : string;  (** the monitor's own cloud credentials *)
  service_token_for : (string -> string option) option;
      (** Per-project service credentials: clouds scope tokens to one
          project, so a monitor serving several tenants resolves the
          observation token from the classified tenant id ({!tenant_of};
          [None] falls back to [service_token]). *)
  resources : Cm_uml.Resource_model.t;
  behavior : Cm_uml.Behavior_model.t;
  security : Cm_contracts.Generate.security option;
  stability_check : bool;
      (** Monitoring is not transactional: another client writing between
          the monitored call and the post-state observation makes a
          correct cloud look like a postcondition violator.  With the
          stability check on, a would-be post violation triggers a second
          observation; if the two observations disagree the verdict is
          downgraded to [Undefined] ("concurrent interference") instead
          of a false alarm.  Off by default (two extra observation GETs
          per violation). *)
  resilience : Resilience.policy option;
      (** When set, every backend call — forwarded requests and
          observation GETs alike — goes through a {!Resilience} layer:
          per-attempt timeouts, bounded retries with deterministic
          backoff, idempotency keys on retried mutations, envelope
          validation on observation reads, and a per-route circuit
          breaker.  An observation read the layer cannot complete
          (retries exhausted, or refused by an open breaker) leaves the
          state unknown, not absent: unless a later read of the same
          path in that observation answered, the phase's verdict is
          [Undefined] ("pre-state unobservable: GET <path>: ..." or
          "post-state ..."), never a definite verdict over state the
          monitor could not see.  [None] (the default) forwards raw, as
          before. *)
  degradation : degradation;
  clock : Cm_core.Clock.t option;
      (** The virtual clock the resilience layer times against.  Pass
          the same clock the (simulated) backend advances; when [None] a
          private clock is created (fine for latency-free backends). *)
  cache : Obs_cache.scope;
      (** Observation-cache scope.  [Per_request] (the default) reuses
          reads only within one exchange — sound under arbitrary
          out-of-band writers between requests.  [Cross_request] also
          reuses across exchanges (invalidated on forwarded mutations) —
          sound under the single-writer-per-tenant discipline the shard
          layer enforces; out-of-band writers must {!flush_cache}.
          Every monitor has a cache; the uncached comparator is the
          reference ({!Reference}). *)
  journal_pre : (pre_image -> unit) option;
      (** Write-ahead hook: called with the pre-phase conclusion of a
          contracted request after evaluation and before forwarding.
          [Cm_journal.Jmonitor] appends the image to its event log
          here. *)
  journal_barrier : (unit -> unit) option;
      (** Called immediately before {e any} backend forward —
          monitored, uncontracted, and fail-open alike.  The journal
          syncs here, establishing the recovery invariant "forwarded
          implies durably journaled". *)
  crash : Cm_core.Crash.t option;
      (** Crash-point injection: when set, the monitor announces the
          sites [monitor.after-forward] and [monitor.after-invalidate]
          to it (the journal layer adds its own).  An armed instance
          kills the current request with [Cm_core.Crash.Crashed], which
          deliberately escapes exception containment. *)
}

val default_config :
  ?mode:mode ->
  ?stability_check:bool ->
  ?resilience:Resilience.policy ->
  ?degradation:degradation ->
  ?clock:Cm_core.Clock.t ->
  ?cache:Obs_cache.scope ->
  ?journal_pre:(pre_image -> unit) ->
  ?journal_barrier:(unit -> unit) ->
  ?crash:Cm_core.Crash.t ->
  service_token:string ->
  ?service_token_for:(string -> string option) ->
  ?security:Cm_contracts.Generate.security ->
  Cm_uml.Resource_model.t ->
  Cm_uml.Behavior_model.t ->
  config
(** Defaults: [Oracle] mode, no stability check, no resilience layer,
    [Fail_open_logged], [Per_request] observation cache.  What is not
    configurable: snapshots hold only the values under [pre(...)] (§V);
    observation GETs are always pruned to the matched contract's static
    read-set ({!Cm_ocl.Footprint}), which is verdict-preserving because
    pruned state is state no contract expression can read; and contracts
    are always checked through staged closures that replay memoized
    verdicts when nothing a check depends on changed
    ({!Cm_contracts.Runtime}).  Nor is what the models determine: the
    tenant is the model's context resource ({!Cm_uml.Paths.context}) and
    its id parameter is the tenant key classification, observation and
    sharding use; the cache-invalidation scopes of a mutation are its
    trigger's write effect ({!Cm_analysis.Effects}).  The executable
    semantics all of this is tested against is {!Reference}, which
    shares none of it. *)

type t
(** A monitor.  It has two parts:
    - the {e derivation}: what the models determine — the URI entries
      and their dispatch table, the tenant parameter, the contracts each
      staged for checking ({!Cm_contracts.Runtime.plan}), the per-trigger
      write scopes of the effect analysis ({!Cm_analysis.Effects}) and
      the observer's path index.  It is generated once per model triple
      and shared by every monitor created over that triple, on any
      domain; nothing writes it;
    - what the monitor owns: its configuration, a memo frame per staged
      contract ({!Cm_contracts.Runtime.instance}), the observation
      cache, the coverage counters, the resilience layer and the
      observer. *)

val create : config -> Observer.backend -> (t, string list) result
(** A monitor over [backend].  The first create over a model triple
    (the physical [resources], [behavior] and [security]'s [table] and
    [assignment]) generates the monitor from it: validates the models,
    derives the URI table, generates, typechecks and stages the
    contracts and runs the write-effect analysis.  All validation
    problems are reported together; a failure of any later step is an
    [Error] too, and is not remembered.  Every later create over the
    same triple finds that generation in a process-wide memo and only
    allocates the new monitor's own state.  The memo holds its models
    weakly: it keeps no model alive that nothing else holds. *)

val handle : t -> Cm_http.Request.t -> Outcome.t
(** Monitor one request.  The outcome's [response] is what the caller
    should see; the outcome is the full exchange, and the monitor keeps
    none of it beyond the {!coverage} counts and the {!Logs} line.

    Never raises (short of resource exhaustion): transport failures that
    escape the resilience layer become [Degraded] outcomes, and any
    internal exception is contained per-request as [Monitor_error] —
    a monitor bug is never reported as a cloud violation. *)

val resume : t -> Cm_http.Request.t -> pre_image -> Outcome.t
(** Crash recovery: finish an exchange whose pre-phase already ran (and
    was journaled as [pre_image]) before the process died.  The request
    is re-forwarded — idempotent when it carries the original
    [X-Request-Id], which the backend dedups — the post-state is
    observed fresh, and the verdict is classified exactly as {!handle}
    would have, using the journaled pre-image in place of a re-run
    pre-phase.  The outcome counts towards {!coverage} like any other
    exchange. *)

val cache_stats : t -> Obs_cache.stats option
(** Hit/miss/invalidation counters of the observation cache.  Always
    [Some]: every monitor has a cache; the [option] stays only because
    the benchmark reads it. *)

val eval_stats : t -> Cm_contracts.Runtime.eval_stats
(** Aggregated incremental-evaluation counters over this monitor's
    memo frames. *)

val flush_cache : t -> unit
(** Drop all cached observations.  Out-of-band writers (anything that
    mutates the cloud without going through {!handle}) must call this
    before the next monitored request under [Cross_request] scope. *)

val tenant_of : t -> Cm_http.Request.t -> string option
(** The tenant id request classification binds: the value of the
    tenant parameter ({!Cm_uml.Paths.context}'s {!Cm_uml.Paths.id_param},
    [project_id] on the shipped models) in the matched URI entry;
    [None] for an unclassified request or one no tenant addresses.
    Reads only the derivation, which nothing writes, so the shard router
    calls it on replica 0 from the dispatching domain while the replica
    serves on another. *)

val handle_response : t -> Cm_http.Request.t -> Cm_http.Response.t
(** [ (handle t req).response ] — lets a monitor instance itself be used
    as a backend (monitors compose). *)

val contracts : t -> Cm_contracts.Contract.t list
(** The generated contracts: the derivation's, shared by every monitor
    over the same models. *)

val uri_table : t -> Cm_uml.Paths.entry list
(** The derived URI entries the monitor classifies against. *)

val entry_for_path : t -> string -> Cm_uml.Paths.entry option
(** The entry request classification selects for a concrete path: the
    most specific matching template (dispatch-table lookup).  Exposed so
    tests can assert the table agrees with the naive match-all + sort. *)

val configuration : t -> config

val trigger_for :
  t -> Cm_uml.Paths.entry -> Cm_http.Meth.t -> Cm_uml.Behavior_model.trigger
(** The trigger a request on the entry's URI with the method maps to
    (POST on a collection resolves to the contained item, as in request
    classification). *)

val contract_for_trigger :
  t -> Cm_uml.Behavior_model.trigger -> Cm_contracts.Contract.t option

val coverage : t -> (string * int) list
(** Requirement id -> number of exchanges that exercised it (the
    traceability view of §IV-C), including ids never exercised (count
    0), sorted by id.  One counter per requirement of every contract,
    owned by this monitor, made at {!create} and bumped by every
    {!handle} and {!resume}. *)

val reset_log : t -> unit
(** Zero the {!coverage} counters. *)
