(** Fault-tolerant forwarding: the policy engine between the monitor
    and an unreliable cloud.

    Every call the monitor makes — forwarding a monitored request,
    observation GETs, token introspection — goes through {!call}, which
    adds per-attempt timeout budgets, bounded retries with exponential
    backoff and deterministic jitter (all against the virtual clock, so
    tests are instant and bit-reproducible), idempotency-aware retry of
    mutations behind an [X-Request-Id] dedup key, response validation,
    and a per-route circuit breaker.

    Failure semantics matter more than the mechanics: {!call} only
    returns [Error] when the outcome of the request is {e unknown}
    (every retry lane was exhausted — the last attempt may have reached
    the cloud) or when the circuit is open (nothing was sent).  The
    caller maps the first to a three-valued [Undefined] verdict and the
    second to its degradation mode.  A {e persistent} 5xx, by contrast,
    is the backend's actual answer and comes back as [Ok], so verdicts
    under the resilience layer match verdicts without it. *)

type backend = Cm_http.Request.t -> Cm_http.Response.t

type policy = {
  attempt_timeout_ms : int;
      (** give up waiting on a single attempt after this long *)
  total_budget_ms : int;  (** overall budget for one logical call *)
  max_attempts : int;  (** first try + retries *)
  backoff_base_ms : int;
  backoff_multiplier : float;
  backoff_cap_ms : int;
  jitter : float;
      (** fraction of the nominal backoff spread around it (0 = none,
          1 = full jitter); drawn from the seeded PRNG *)
  retry_mutations : bool;
      (** retry POST/PUT/DELETE/PATCH — safe because an [X-Request-Id]
          idempotency key is attached and the backend dedups on it;
          when false only GET/HEAD/OPTIONS are retried *)
  verified_reads : bool;
      (** issue observation GETs twice and keep the later answer —
          defeats one-update-deep stale caches at the cost of doubling
          read traffic *)
  breaker_threshold : int;
      (** consecutive call failures that open a route's circuit;
          0 disables the breaker *)
  breaker_reset_ms : int;  (** open -> half-open after this long *)
  breaker_half_open_probes : int;  (** probes admitted while half-open *)
}

val default : policy
(** 1 s attempt timeout, 10 s budget, 6 attempts, 25 ms base backoff
    doubling to a 1.6 s cap with 50% jitter, mutation retry on,
    verified reads off, breaker at 8 consecutive failures / 30 s
    reset. *)

type failure =
  | Circuit_open of string  (** route; the request was {e not} sent *)
  | Exhausted of {
      route : string;
      attempts : int;
      elapsed_ms : int;
      last_error : string;
    }  (** retries exhausted; the request {e may} have executed *)

val failure_to_string : failure -> string

val executed_possible : failure -> bool
(** Whether the backend may have executed the request — [false] only
    for {!Circuit_open}. *)

type t

val create :
  ?seed:int ->
  ?validate:(Cm_http.Request.t -> Cm_http.Response.t -> bool) ->
  policy ->
  Cm_core.Clock.t ->
  backend ->
  t
(** One circuit breaker per route: method + first two path segments.
    [validate] rejects corrupt
    responses — a successful attempt whose response fails validation is
    retried like a transport failure. *)

val call : t -> Cm_http.Request.t -> (Cm_http.Response.t, failure) result

val call_verified :
  t -> Cm_http.Request.t -> (Cm_http.Response.t, failure) result
(** {!call}, plus the double-read stale defense on GETs when the policy
    has [verified_reads]. *)

val degraded_response : failure -> Cm_http.Response.t
(** The synthetic 503 ({!Circuit_open}) or 504 ({!Exhausted}) that
    stands in for a failed call where a plain response is needed: the
    observer binds any non-success as absent state, so the monitor
    records the failure beside it and keeps the phase's verdict
    Undefined. *)

val request_id_header : string
(** ["X-Request-Id"]. *)

val schedule : policy -> seed:int -> int list
(** The full deterministic backoff schedule a fresh layer with this
    seed would use: pauses after attempts [1 .. max_attempts-1]. *)

(** {1 Introspection} *)

type breaker_state = Closed | Open | Half_open

val breaker_state : t -> string -> breaker_state
(** State of the route's breaker ([Closed] if the route is unknown). *)

val breaker_state_to_string : breaker_state -> string

type route_metrics = {
  calls : int;
  attempts : int;
  retries : int;
  call_failures : int;  (** calls that returned [Error] *)
  short_circuited : int;  (** rejected by an open breaker *)
  breaker_opens : int;
}
(** An immutable snapshot; the live counters are [Atomic]-backed so
    they can be read from any domain while serving. *)

val metrics : t -> (string * route_metrics) list
(** Per-route health counters, sorted by route. *)
