(** The differential oracles the fuzzer drives.

    - [engine]: random well-typed OCL expressions must evaluate to the
      same value and Kleene verdict under the staged compiler
      ({!Cm_ocl.Compile}, both the simplifying and raw pipelines) and
      the tree-walking interpreter ({!Cm_ocl.Eval}), in every random
      environment, with and without an attached pre-state.
    - [rbac]: on random security tables, role assignments and subjects,
      the generated OCL authorization guard must agree between both
      engines {e and} with the reference access decision
      ({!Cm_rbac.Security_table.allowed}).
    - [codegen]: random expressions and random state-machine models must
      survive the printers — pretty-print/re-parse is the identity, and
      the OCL-to-Python translation of generated contracts never raises.
    - [monitor]: random request traces against the simulated cloud must
      produce bit-identical outcomes (status, full conformance string,
      verdicts with their undefinedness hints, covered requirements,
      detail, snapshot size — no normalization) under the production
      [Compiled] monitor and the [Interpreted] reference monitor, no
      violation on the fault-free cloud, and at least one violation for
      every injected mutant (the randomized generalization of the
      paper's three-mutant experiment).

    Every case is a pure function of [(seed, index, size)]; a failure is
    shrunk greedily and packaged as a replayable {!Corpus.entry}. *)

type failure = {
  oracle : string;
  index : int;
  repr : string;  (** shrunk counterexample, human-readable *)
  detail : string;  (** what disagreed *)
  shrink_steps : int;
  entry : Corpus.entry;  (** replayable record for the corpus *)
}

type verdict = Pass | Fail of failure

type t = {
  name : string;
  weight : int;  (** share of the case budget *)
  run_case : shrink:bool -> seed:int -> index:int -> size:int -> verdict;
  replay : Corpus.entry -> (unit, string) result;
      (** Re-check a corpus entry; [Ok ()] means it passes now. *)
}

val engine : t
val rbac : t
val codegen : t
val monitor : t

val chaos : t
(** Verdict integrity under unreliable transport: a random trace runs
    once fault-free and once under a random bounded chaos profile
    ({!Chaos_gen}) with the monitor's resilience layer on.  Definite
    verdicts must not flip between the two runs, and a mutant the
    fault-free run kills must still be killed under chaos. *)

val workload : t
(** Workload-DSL integrity: compiling the case's (mix, seed) twice must
    yield bit-identical traces, and executing the trace against the
    cross-service monitor must produce the [monitor] oracle's strict
    outcome sequences identically under both engines, with a
    violation-free baseline. *)

val journal : t
(** Durable-journal integrity: the case's workload mix is recorded live
    through the journaled monitor, then the scanned journal is replayed
    against a fresh same-seed cloud under both engines; the replayed
    verdict lines must be bit-identical to the journaled ones. *)

val all : t list
val find : string -> t option
