(** The five differential oracles the fuzzer drives.

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
    - [monitor]: production against the reference monitor
      ({!Cm_monitor.Reference}: naive classification, the full state
      observed with plain GETs, the AST interpreter, its own verdict
      table) on workload traces.  Even cases are probe
      cases on the Cinder models (random noise, the admin draining
      every volume it created, one mutant's killing steps; the ten
      {!Cm_mutation.Mutant.all} in rotation); odd cases run named mixes
      on the cross models: the fixed [standard] and [cross] mixes once
      under each configuration, then the seeded mixes in rotation at a
      derived seed.  Production cycles by case index through Oracle
      mode with a per-request cache, Enforce mode with a cross-request
      cache and Enforce mode through the write-ahead journal (with the
      journaled setup's per-request cache).  Each case demands
      outcomes identical to the reference's in the same mode (no
      normalization), no violation on the fault-free cloud, a journal
      that replays through the reference to the recorded verdict lines,
      a mix that recompiles bit-identically, and a probe's mutant killed
      in Oracle mode with outcomes identical to the reference's on the
      same mutant cloud (which pins the kind of each violation).
      Failures shrink by dropping trace steps and record the trace in
      {!Cm_workload.Workload.to_line} form.
    - [chaos]: verdict integrity under unreliable transport (below).

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

val monitor_schedule : int -> string * string
(** What [monitor] case [index] runs ("probe <mutant>" or "mix <mix>")
    and the production configuration it runs it under
    ("oracle/per-request", "enforce/cross-request" or
    "enforce/journaled"). *)

val monitor_trace : seed:int -> index:int -> size:int -> Cm_workload.Workload.trace
(** The trace [monitor] case [index] runs. *)

val chaos : t
(** Verdict integrity under unreliable transport: a probe case's trace
    (as in [monitor]) runs once fault-free and once under a random
    bounded chaos profile ({!Chaos_gen}) with the monitor's resilience
    layer on.  Definite verdicts must not flip between the two runs,
    and a mutant the fault-free run kills must still be killed under
    chaos. *)

val all : t list
val find : string -> t option
