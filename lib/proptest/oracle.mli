(** The four differential oracles the fuzzer drives.

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
      table), always fault-free and in the same mode, on workload
      traces.  Even cases probe the ten {!Cm_mutation.Mutant.all} in
      rotation on the Cinder models (random noise, the admin draining
      every volume it created, one mutant's killing steps); odd cases
      run named mixes on the cross models.  Production cycles by case
      pair through four configurations: Oracle mode with a per-request
      cache, Enforce mode with a cross-request cache, Enforce mode
      through the write-ahead journal, and Oracle mode under a random
      bounded chaos profile ({!Chaos_gen}) with
      {!Cm_mutation.Campaign.chaos_policy}, alternating the two cache
      scopes.  Fault-free, outcomes must equal the reference's with no
      normalization, a journal must replay through the reference to
      its verdict lines, and a mix must recompile bit-identically.
      Under chaos no definite verdict may flip from the reference's
      ({!Cm_mutation.Campaign.compare_outcomes}).  No configuration may
      report a violation on the correct cloud, and each probe's mutant
      must be killed in Oracle mode, under the case's chaos if any,
      judged the same way against the reference's mutant run.
      Failures shrink by dropping trace steps and record the trace
      ({!Cm_workload.Workload.to_line}) and the configuration, with the
      chaos profile and seed.

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
    ("oracle/per-request", "enforce/cross-request",
    "enforce/journaled", "oracle/chaos/per-request" or
    "oracle/chaos/cross-request"). *)

val monitor_trace : seed:int -> index:int -> size:int -> Cm_workload.Workload.trace
(** The trace [monitor] case [index] runs. *)

val all : t list
val find : string -> t option
