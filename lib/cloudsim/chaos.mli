(** Deterministic unreliable-transport simulation.

    Wraps a backend ([Request.t -> Response.t]) in the crash-fault
    classes a proxy deployed in front of a real cloud must survive —
    the infrastructure failures Cotroneo et al. observe cloud runtime
    verifiers themselves hit.  Every decision is drawn from a seeded
    PRNG and all latency is {e virtual} ({!Cm_core.Clock}), so a chaos
    campaign is bit-reproducible and runs with no wall-clock sleeps.

    Fault classes (independent per-request draws):
    - {b latency}: base + jitter, plus rare budget-busting spikes — the
      caller abandoning the wait is what a "timeout" is;
    - {b drop-before}: connection reset before the cloud saw the
      request (safe to retry);
    - {b drop-after}: the cloud {e executed} the request, then the
      connection died (retry only behind an idempotency key);
    - {b 5xx blips}: a gateway answers 502/503 without reaching the
      cloud;
    - {b duplicate}: the request is delivered twice (at-least-once
      transport);
    - {b stale}: a GET is answered from a one-update-old cache;
    - {b corrupt}: a GET body arrives truncated or malformed.

    Mutations are only duplicated, never dropped silently: every
    response the caller receives is either the cloud's answer, a
    well-formed 5xx, a stale/corrupted read, or a raised
    {!Cm_core.Transport} exception. *)

type latency = {
  base_ms : int;
  jitter_ms : int;  (** uniform extra in [\[0, jitter_ms\]] *)
  spike_p : float;  (** probability of a spike of [spike_ms] more *)
  spike_ms : int;
}

val instant : latency
(** Zero latency. *)

type profile = {
  name : string;
  description : string;
  latency : latency;
  drop_before_p : float;
  drop_after_p : float;
  blip_5xx_p : float;
  stale_p : float;  (** GETs only *)
  corrupt_p : float;  (** GETs only *)
  duplicate_p : float;
  route_prefix : string option;
      (** only requests whose path starts with this are affected *)
}

val fault_free : profile
val flaky_network : profile
val slow_backend : profile
val degraded_cloud : profile
val adversarial : profile

val profiles : profile list
(** All named profiles, [fault_free] first. *)

val find_profile : string -> profile option

type t

val create :
  ?seed:int ->
  profile ->
  Cm_core.Clock.t ->
  (Cm_http.Request.t -> Cm_http.Response.t) ->
  t

val backend : t -> Cm_http.Request.t -> Cm_http.Response.t
(** The wrapped transport.  May raise {!Cm_core.Transport.Connection_reset};
    latency is applied by advancing the virtual clock. *)

val stats : t -> (string * int) list
(** Injected-fault counters by class, sorted by name. *)
