(** The validation workloads.

    Deterministic request sequences by the three users of the paper's
    setup (admin alice, member bob, plain-user carol), defined
    symbolically in {!Cm_workload.Workload} and executed here through
    {!Cm_workload.Exec} against a fresh simulated cloud.  The standard
    workload covers every security requirement of Table I and every
    behavioural edge of the Cinder state machine; the cross workload
    extends it over the compute and image services (attachment
    integrity, image-backed volumes, token revocation).  Run against a
    correct cloud they produce no violations; run against a mutant they
    produce the violation that kills it. *)

type ctx = {
  cloud : Cm_cloudsim.Cloud.t;
  monitor : Cm_monitor.Monitor.t;
  tokens : (string * string) list;  (** user name -> token *)
  clock : Cm_core.Clock.t;
      (** the virtual clock shared by cloud, chaos layer and monitor *)
  chaos : Cm_cloudsim.Chaos.t option;  (** the transport wrapper, if any *)
}

val setup :
  ?mode:Cm_monitor.Monitor.mode ->
  ?engine:Cm_contracts.Runtime.engine ->
  ?faults:Cm_cloudsim.Faults.set ->
  ?chaos:Cm_cloudsim.Chaos.profile ->
  ?chaos_seed:int ->
  ?resilience:Cm_monitor.Resilience.policy ->
  ?degradation:Cm_monitor.Monitor.degradation ->
  ?stability_check:bool ->
  ?cache:Cm_monitor.Obs_cache.scope ->
  unit ->
  (ctx, string list) result
(** Fresh simulated cloud seeded with the paper's [myProject] (three
    users, quota of 3 volumes), a service account for the monitor, the
    given faults activated, and a monitor over the Cinder models in the
    given mode (default [Oracle]) with the given contract engine
    (default [Compiled] — the fuzzer's differential oracle runs the
    same trace under both engines).

    [chaos] interposes an unreliable transport between monitor and
    cloud (seeded by [chaos_seed]); [resilience] makes the monitor
    forward through the retry/timeout/breaker layer; all three share
    one virtual clock.  Logins during setup bypass the chaos layer. *)

val setup_cross :
  ?mode:Cm_monitor.Monitor.mode ->
  ?engine:Cm_contracts.Runtime.engine ->
  ?faults:Cm_cloudsim.Faults.set ->
  ?chaos:Cm_cloudsim.Chaos.profile ->
  ?chaos_seed:int ->
  ?resilience:Cm_monitor.Resilience.policy ->
  ?degradation:Cm_monitor.Monitor.degradation ->
  ?stability_check:bool ->
  ?cache:Cm_monitor.Obs_cache.scope ->
  unit ->
  (ctx, string list) result
(** Like {!setup} but monitoring over the cross-service models
    ({!Cm_uml.Cross_model}) and the extended security table
    ({!Cm_rbac.Security_table.cross}) — volumes, servers, attachments
    and images in one specification. *)

val request :
  ctx ->
  user:string ->
  Cm_http.Meth.t ->
  string ->
  ?body:Cm_json.Json.t ->
  unit ->
  Cm_monitor.Outcome.t
(** One request through the monitor, authenticated as the user. *)

val created_volume_id : Cm_monitor.Outcome.t -> string option
(** Extract the new volume's id from a creation outcome. *)

val exec_env : ctx -> Cm_workload.Exec.env
(** The execution environment binding the workload DSL's roles to the
    paper's users (admin alice, member bob, user carol), resolving
    requests through the monitor, re-authenticating on
    [Relogin] steps and churning throwaway projects out-of-band on
    [Churn_project] steps (with a cache flush after). *)

val run_trace : ctx -> Cm_workload.Workload.trace -> int
(** Execute a workload trace through the monitor; returns the number
    of monitored requests issued.  Outcomes accumulate in the
    monitor's log. *)

val standard : ctx -> unit
(** Run the standard 16-step workload ({!Cm_workload.Workload.standard_trace});
    outcomes accumulate in the monitor's log. *)

val cross : ctx -> unit
(** Run the cross-service workload ({!Cm_workload.Workload.cross_trace});
    requires a {!setup_cross} context — under {!setup}'s single-service
    models the compute/image steps are merely unclassified. *)

(** {2 Journaled contexts}

    The same scenario with the monitor wrapped in
    {!Cm_journal.Jmonitor}: every exchange goes through the durable
    write-ahead journal, crash points can be armed, and the context can
    be crashed and recovered mid-trace.  The cloud, clock and chaos
    transport survive a recovery (only the monitor process "dies"). *)

type jctx = {
  jcloud : Cm_cloudsim.Cloud.t;
  mutable jmon : Cm_journal.Jmonitor.t;
      (** replaced in place by {!jrecover} *)
  jtokens : (string * string) list;
  jclock : Cm_core.Clock.t;
  jdevice : Cm_journal.Device.t;
  jmake : Cm_journal.Jmonitor.make;
  jbatch : int;
  jcrash : Cm_core.Crash.t option;
}

val setup_journaled :
  ?cross:bool ->
  ?mode:Cm_monitor.Monitor.mode ->
  ?engine:Cm_contracts.Runtime.engine ->
  ?faults:Cm_cloudsim.Faults.set ->
  ?chaos:Cm_cloudsim.Chaos.profile ->
  ?chaos_seed:int ->
  ?resilience:Cm_monitor.Resilience.policy ->
  ?batch:int ->
  ?journal_seed:int ->
  ?crash:Cm_core.Crash.t ->
  unit ->
  (jctx, string list) result
(** {!setup} (or {!setup_cross} with [~cross:true]) plus a journal
    device on the shared clock and a journaled monitor over it.
    [journal_seed] seeds the device's torn-tail draw; [crash] arms
    deterministic crash-point injection. *)

val jrecover : jctx -> (Cm_journal.Jmonitor.recovery, string list) result
(** Restart the monitor after {!Cm_journal.Device.crash}: scans the
    journal, finishes the in-flight exchange, and installs the new
    instance into [jctx.jmon]. *)

val jexec_env : jctx -> Cm_workload.Exec.env
(** Like {!exec_env} over the journaled monitor, with two twists: each
    monitored request is tagged with the deterministic idempotency key
    [stp-<n>], and a request whose key already has a journaled verdict
    returns the {e recorded} response without re-issuing — which is
    what makes "re-run the trace after recovery" exactly-once. *)

val jrun_trace : jctx -> Cm_workload.Workload.trace -> int

val journal_events : jctx -> Cm_journal.Event.t list
(** The clean events currently on the context's device. *)

val replay_journal :
  ?cross:bool ->
  ?mode:Cm_monitor.Monitor.mode ->
  ?engine:Cm_contracts.Runtime.engine ->
  Cm_journal.Event.t list ->
  (string list, string list) result
(** Re-execute a recorded journal against a {e fresh} same-seed cloud:
    requests verbatim (tokens and ids are deterministic), marks
    re-performed out-of-band.  Returns the replayed verdict lines,
    which must be bit-identical to
    [Cm_journal.Jmonitor.journaled_verdict_lines] of the recording. *)
