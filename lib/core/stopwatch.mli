(** Phase timing with a pluggable time source.

    Wall time for real benchmarking; the shared virtual {!Clock} for
    chaos/deterministic runs, so per-phase attribution stays meaningful
    (and reproducible) when latency itself is simulated. *)

type source =
  | Wall  (** monotonic-enough wall clock, nanosecond floats *)
  | Virtual of Clock.t  (** the simulation clock, milliseconds -> ns *)

val now_ns : source -> float

val time_ns : source -> (unit -> 'a) -> 'a * float
(** Run the thunk and return its result with the elapsed nanoseconds.
    Exceptions propagate (nothing is recorded for the failed phase). *)

val percentile : float array -> float -> float
(** [percentile samples p] is the [p]-th percentile ([0 <= p <= 100])
    of the samples, linearly interpolated between order statistics (the
    array is not modified).  NaN when [samples] is empty. *)
