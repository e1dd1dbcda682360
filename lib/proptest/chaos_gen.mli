(** Random bounded chaos profiles for the fuzzer.

    Draws an unreliable-transport profile whose per-class probabilities
    stay inside the envelope a six-attempt retry policy is designed to
    absorb.  The [monitor] oracle's chaos configuration runs a trace
    under the generated profile and judges it against the fault-free
    reference: no definite verdict flips, no violation on a correct
    cloud, no mutant kill lost. *)

val gen_profile : Rng.t -> size:int -> Cm_cloudsim.Chaos.profile
(** Deterministic in the stream; [size] (the generator budget, 2..11)
    scales fault intensity. *)

val describe : Cm_cloudsim.Chaos.profile -> string
(** One-line rendering of the drawn probabilities, for counterexample
    reports. *)

val parse : string -> Cm_cloudsim.Chaos.profile option
(** The inverse of {!describe} on generated profiles, whose per-mille
    probabilities three decimals render exactly. *)
