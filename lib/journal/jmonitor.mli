(** A monitor wrapped in a durable write-ahead event journal.

    Per monitored exchange the wrapper appends (see {!Event}):
    [Request] (synced before any forward), [Pre] (the pre-phase
    conclusion, also synced before the forward — write-ahead), and
    [Verdict] (group-committed: it rides unsynced until the next
    forward's barrier or until [batch] verdicts have accumulated).

    The recovery invariant this buys: {e forwarded implies durably
    journaled}.  After a crash at any point, at most the single
    in-flight exchange lacks a durable verdict, and its journaled
    pre-image suffices to finish it with {!Cm_monitor.Monitor.resume}
    — re-forwarding idempotently by [X-Request-Id] — so every request
    ends with {e exactly one} durable verdict per sequence number, and
    the verdict stream equals the crash-free run's.

    Crash-point injection: when a {!Cm_core.Crash.t} is supplied, the
    wrapper announces the sites [journal.before-request],
    [journal.after-request], [journal.before-pre], [journal.after-pre],
    [journal.before-sync], [journal.after-sync],
    [journal.before-verdict] and [journal.after-verdict] (the monitor
    itself adds [monitor.after-forward] and
    [monitor.after-invalidate]).  An armed crash raises
    [Cm_core.Crash.Crashed] out of {!handle}; the test driver then
    calls {!Device.crash} and {!recover}. *)

val rid_header : string
(** ["X-Request-Id"] — the idempotency key the backend dedups on. *)

type make =
  journal_pre:(Cm_monitor.Monitor.pre_image -> unit) ->
  journal_barrier:(unit -> unit) ->
  crash:Cm_core.Crash.t option ->
  unit ->
  (Cm_monitor.Monitor.t, string list) result
(** Monitor factory: the caller owns backend construction and config;
    the wrapper owns the journal hooks it must be created with. *)

type t

val create :
  ?batch:int ->
  ?crash:Cm_core.Crash.t ->
  Device.t ->
  make ->
  (t, string list) result
(** A journaled monitor on an (empty or recovered) device.  [batch]
    (default 8) is the group-commit threshold: a sync is forced every
    [batch] verdicts even if no forward barrier arrives first. *)

val monitor : t -> Cm_monitor.Monitor.t
val journal : t -> Journal.t
val device : t -> Device.t

val handle : t -> Cm_http.Request.t -> Cm_monitor.Outcome.t
(** Journal, monitor, journal — see the module header.  Requests
    without an [X-Request-Id] header are assigned one ([jrn-<seq>])
    before journaling, so a recovery re-forward always dedups.  Raises
    [Cm_core.Crash.Crashed] when an armed crash point fires. *)

val mark : t -> string -> unit
(** Journal an out-of-band action (relogin, tenant churn) so replays
    can re-perform it in sequence. *)

val sync : t -> unit
(** Explicit durability barrier (e.g. at clean shutdown). *)

val verdicts : t -> Event.verdict_record list
(** Every verdict on the device, oldest first, decoded with
    {!Journal.scan} — after {!recover}, the journaled history followed
    by the resumed verdicts and everything handled since. *)

val verdict_lines : t -> string list
(** {!verdicts} through {!Event.verdict_line}. *)

val verdict_of :
  seq:int -> rid:string -> Cm_monitor.Outcome.t -> Event.verdict_record
(** The verdict record {!handle} journals for an outcome. *)

val verdict_for_rid : t -> string -> Event.verdict_record option
(** Latest verdict for an idempotency key: a table lookup, filled by
    {!handle} and by {!recover} from the journal.  A client that
    crashed mid-call asks this after recovery: [Some v] means the
    exchange completed (use the recorded response); [None] means it is
    safe to re-issue with the same key. *)

type recovery = {
  events_scanned : int;  (** clean events found on the device *)
  discarded_bytes : int;  (** torn/corrupt tail dropped *)
  resumed : int;
      (** pending exchanges finished via [Monitor.resume] (their
          pre-image was durable) *)
  rehandled : int;
      (** pending exchanges re-run from scratch (request durable, no
          pre-image — so nothing was ever forwarded, or the request was
          uncontracted and the re-forward dedups) *)
}

val recover :
  ?batch:int ->
  ?crash:Cm_core.Crash.t ->
  Device.t ->
  make ->
  (t * recovery, string list) result
(** Restart from a crashed device: scan, drop the torn tail, rebuild a
    fresh monitor, finish every request that lacks a durable verdict
    (exactly-once by sequence number), sync.  The returned instance
    continues the journal where the crash left it. *)

(** {2 Replay helpers}

    A scanned journal can be replayed against a fresh backend: re-issue
    each [Request] in order (the recorded ids — tokens, created
    resources — are deterministic, so they stay valid), re-perform each
    [Mark] out-of-band, and compare verdict lines. *)

type step =
  | Replay_request of { seq : int; rid : string; req : Cm_http.Request.t }
  | Replay_mark of string

val replay_plan : Event.t list -> step list
val journaled_verdict_lines : Event.t list -> string list
