(** Latency statistics over timed samples. *)

val percentile : float array -> float -> float
(** [percentile samples p] is the [p]-th percentile ([0 <= p <= 100])
    of the samples, linearly interpolated between order statistics (the
    array is not modified).  NaN when [samples] is empty. *)
