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
  ?faults:Cm_cloudsim.Faults.set ->
  ?chaos:Cm_cloudsim.Chaos.profile ->
  ?chaos_seed:int ->
  ?resilience:Cm_monitor.Resilience.policy ->
  ?cache:Cm_monitor.Obs_cache.scope ->
  unit ->
  (ctx, string list) result
(** Fresh simulated cloud seeded with the paper's [myProject] (three
    users, quota of 3 volumes), a service account for the monitor, the
    given faults activated, and a monitor over the Cinder models in the
    given mode (default [Oracle]).

    [chaos] interposes an unreliable transport between monitor and
    cloud (seeded by [chaos_seed]); [resilience] makes the monitor
    forward through the retry/timeout/breaker layer; all three share
    one virtual clock.  Logins during setup bypass the chaos layer. *)

val setup_cross :
  ?mode:Cm_monitor.Monitor.mode ->
  ?faults:Cm_cloudsim.Faults.set ->
  ?chaos:Cm_cloudsim.Chaos.profile ->
  ?chaos_seed:int ->
  ?resilience:Cm_monitor.Resilience.policy ->
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

val run_trace :
  ctx -> Cm_workload.Workload.trace -> Cm_monitor.Outcome.t list
(** Execute a workload trace through the monitor and return the
    outcome of every monitored request, in order.  The workload DSL's
    roles are the paper's users (admin alice, member bob, user carol);
    [Relogin] steps re-authenticate and [Churn_project] steps churn
    throwaway projects out-of-band (with a cache flush after).  The
    standard 16-step workload is {!Cm_workload.Workload.standard_trace};
    the cross-service one, {!Cm_workload.Workload.cross_trace}, needs a
    {!setup_cross} context — under {!setup}'s single-service models its
    compute/image steps are merely unclassified. *)

(** {2 Reference contexts}

    The same fresh cloud judged by {!Cm_monitor.Reference} instead of
    the production monitor: the executable semantics the differential
    tests and the [monitor] fuzz oracle compare production against.
    Fault-free transport only (the reference has no resilience
    layer). *)

type rctx = {
  rcloud : Cm_cloudsim.Cloud.t;
  reference : Cm_monitor.Reference.t;
  rtokens : (string * string) list;  (** user name -> token *)
}

val setup_reference :
  ?cross:bool ->
  ?mode:Cm_monitor.Monitor.mode ->
  ?faults:Cm_cloudsim.Faults.set ->
  unit ->
  (rctx, string list) result
(** {!setup} (or {!setup_cross} with [~cross:true]) with the reference
    monitor in the given mode in place of the production monitor. *)

val run_reference :
  rctx -> Cm_workload.Workload.trace -> Cm_monitor.Outcome.t list
(** {!run_trace} through the reference. *)

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
  ?faults:Cm_cloudsim.Faults.set ->
  ?chaos:Cm_cloudsim.Chaos.profile ->
  ?chaos_seed:int ->
  ?resilience:Cm_monitor.Resilience.policy ->
  ?batch:int ->
  ?crash:Cm_core.Crash.t ->
  unit ->
  (jctx, string list) result
(** {!setup} (or {!setup_cross} with [~cross:true]) plus a journal
    device on the shared clock and a journaled monitor over it.
    The device's torn-tail draw is seeded with 7; [crash] arms
    deterministic crash-point injection. *)

val jrecover : jctx -> (Cm_journal.Jmonitor.recovery, string list) result
(** Restart the monitor after {!Cm_journal.Device.crash}: scans the
    journal, finishes the in-flight exchange, and installs the new
    instance into [jctx.jmon]. *)

val jrun_trace :
  jctx -> Cm_workload.Workload.trace -> Cm_monitor.Outcome.t list
(** {!run_trace} over the journaled monitor, with two twists: each
    monitored request is tagged with the deterministic idempotency key
    [stp-<n>], and a request whose key already has a journaled verdict
    gets the {e recorded} response without reaching the monitor —
    which is what makes "re-run the trace after recovery"
    exactly-once.  Such a step yields no outcome: the result holds the
    outcomes of the requests the monitor handled, in order. *)

val journal_events : jctx -> Cm_journal.Event.t list
(** The clean events currently on the context's device. *)

val replay_journal :
  ?cross:bool ->
  ?mode:Cm_monitor.Monitor.mode ->
  Cm_journal.Event.t list ->
  (string list, string list) result
(** Re-execute a recorded journal against a {e fresh} same-seed cloud
    through a fresh journaled monitor: requests verbatim (tokens and
    ids are deterministic), marks re-performed out-of-band.  Returns
    the replayed verdict lines, which must be bit-identical to
    [Cm_journal.Jmonitor.journaled_verdict_lines] of the recording. *)

val replay_reference :
  ?cross:bool ->
  ?mode:Cm_monitor.Monitor.mode ->
  Cm_journal.Event.t list ->
  (string list, string list) result
(** {!replay_journal} through the reference monitor: each recorded
    request's outcome rendered as the verdict line the journal would
    hold under the recorded sequence number and request id. *)
