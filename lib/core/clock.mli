(** Virtual monotonic clock (milliseconds).

    All timing in the simulation — injected latency, timeout budgets,
    retry backoff, circuit-breaker reset windows — is measured against a
    shared virtual clock instead of wall time.  Components {e advance}
    the clock to model time passing (a slow backend, a backoff sleep),
    so an entire fault campaign runs in microseconds of real time and is
    bit-reproducible: the "time" a test observes is a pure function of
    the call sequence. *)

type t

val create : unit -> t
(** A fresh clock, at 0. *)

val now : t -> int
(** Current virtual time in ms. *)

val advance : t -> int -> unit
(** Model [ms] of time passing (sleeps, network latency, processing).
    Non-positive amounts are ignored. *)

val set : t -> int -> unit
(** Force the clock to an absolute time.  Used by the resilience layer
    when a caller {e abandons} a slow call at its deadline: the latency
    the transport simulated past the deadline never happened from the
    caller's point of view, so the caller's timeline resumes at
    [start + timeout].  (Single-threaded simulation: no other observer
    saw the rolled-back interval.) *)

val elapsed_since : t -> int -> int
(** [elapsed_since t start] = [now t - start]. *)
