(** Mutation campaigns: run the standard workload against each mutant
    and record whether the monitor killed it.

    "During validation, we were able to kill all three mutants (errors)
    systematically introduced in the cloud implementation" (§VI-D) —
    [run] with {!Mutant.paper_mutants} reproduces exactly that; the
    extended catalog widens the experiment. *)

type result = {
  mutant : Mutant.t option;  (** [None] for the fault-free baseline *)
  killed : bool;  (** at least one violation verdict was raised *)
  exchanges : int;
  violations : Cm_monitor.Outcome.t list;
  first_violation : string option;  (** verdict name of the first kill *)
}

val run_one : Mutant.t option -> (result, string list) Stdlib.result
(** Fresh cloud + monitor, standard workload, collect. *)

val run_cross_one : Mutant.t option -> (result, string list) Stdlib.result
(** Fresh cloud + cross-service monitor ({!Scenario.setup_cross}),
    cross workload, collect. *)

val run : ?domains:int -> Mutant.t list -> (result list, string list) Stdlib.result
(** Baseline first (it must be violation-free), then each mutant.
    Every entry runs in a fresh cloud + monitor, so with [domains > 1]
    (default 1) entries fan out over OCaml domains; results keep the
    job order and are identical at any domain count. *)

val run_cross :
  ?domains:int -> Mutant.t list -> (result list, string list) Stdlib.result
(** The cross-service campaign: baseline + each mutant under the cross
    workload and models.  Run it over {!Mutant.all_extended} for the
    full kill matrix (M1..M10 still killed by the shared standard
    prefix, X1..X8 by the cross-service phases). *)

val run_cross_reference :
  ?domains:int -> Mutant.t list -> (result list, string list) Stdlib.result
(** {!run_cross} judged by the reference monitor
    ({!Scenario.setup_reference}) instead of production: the kill
    matrix must hold under both. *)

val to_json : result list -> Cm_json.Json.t
(** Machine-readable kill matrix for CI gates. *)

val kill_matrix : result list -> string
(** Printable matrix: mutant, killed?, exchanges, first killing
    verdict. *)

val all_killed : result list -> bool
(** Every mutant killed {e and} the baseline clean. *)

(** {1 Chaos campaigns}

    The same mutants, but with an unreliable transport between monitor
    and cloud and the monitor forwarding through its resilience layer.
    Each mutant runs twice — once fault-free through the reference
    monitor ({!Scenario.setup_reference}), once through production under
    chaos — and the two verdict sequences are compared step by step.
    Detection power must survive (every mutant still killed) and
    verdict integrity must hold (no {e flip} between definite verdicts;
    degrading to [Undefined]/[Degraded] is allowed).  The [monitor]
    fuzz oracle's chaos configuration applies the same comparison to
    random bounded profiles over probe traces and workload mixes. *)

val chaos_policy : Cm_monitor.Resilience.policy
(** {!Cm_monitor.Resilience.default} with [verified_reads] on — the
    double-read defense against stale observation caches. *)

type chaos_run = {
  cr_mutant : Mutant.t option;
  cr_profile : string;
  cr_killed : bool;
  cr_exchanges : int;
  cr_comparable : int;
      (** steps where the chaos run and the reference issued the same
          request *)
  cr_flips : (int * string * string) list;
      (** (step, fault-free verdict, chaos verdict) definite
          disagreements — must be empty *)
  cr_indefinite : int;
      (** chaos outcomes that degraded to a non-definite verdict *)
  cr_injected : (string * int) list;  (** chaos fault counters *)
}

val compare_outcomes :
  Cm_monitor.Outcome.t list ->
  Cm_monitor.Outcome.t list ->
  int * (int * string * string) list * int
(** Position-wise comparison of a fault-free run against a chaos run of
    the same trace: ([cr_comparable], [cr_flips], [cr_indefinite]).  A
    step is comparable when both runs issued the same method and path;
    a flip is two definite verdicts that disagree on one. *)

val run_chaos :
  ?cross:bool ->
  ?seed:int ->
  ?domains:int ->
  Cm_cloudsim.Chaos.profile ->
  Mutant.t list ->
  (chaos_run list, string list) Stdlib.result
(** Baseline + each mutant under the profile, each judged against the
    reference's fault-free run of the same trace and mutant.  [cross]
    (default false) uses the cross-service models and workload, which
    the extended mutants X1..X8 need; otherwise the standard workload
    over the Cinder models.  [seed] (default 42) derives a distinct
    chaos seed per run — from the job {e index}, not the schedule — so
    campaigns are reproducible end to end at any [domains] count
    (default 1). *)

val chaos_ok : chaos_run list -> bool
(** No flips anywhere, the baseline clean, every mutant killed. *)

val chaos_matrix : chaos_run list -> string
(** Printable matrix, flips spelled out per run. *)

val chaos_to_json : chaos_run list -> Cm_json.Json.t

(** {1 Crash campaigns}

    Detection power must also survive the monitor {e dying} mid-kill:
    each cell of the crash matrix arms one deterministic crash point,
    runs the workload until the crash fires, tears the journal tail
    ({!Cm_journal.Device.crash}), recovers, and re-runs the trace (steps
    that already concluded are served from the journal — see
    {!Scenario.jexec_env}).  The final journal is then audited for
    exactly-once verdicts and preserved kills. *)

val crash_sites : string list
(** The ten injection sites threaded through the journaled pipeline:
    eight [journal.*] sites around the append/sync points and two
    [monitor.*] sites after the forward and after cache
    invalidation. *)

type crash_run = {
  xr_mutant : Mutant.t option;
  xr_profile : string;  (** chaos profile name, or ["fault-free"] *)
  xr_site : string;
  xr_fired : bool;
      (** whether the armed crash actually fired (a site the workload
          does not reach [nth] times yields a vacuous pass) *)
  xr_killed : bool;
  xr_verdicts : int;
  xr_duplicates : string list;
      (** idempotency keys with more than one journaled verdict — must
          be empty (exactly-once) *)
  xr_lost : string list;
      (** keys the crash-free reference concluded but the crashed run
          never did — must be empty *)
  xr_mismatches : (string * string * string) list;
      (** (key, reference verdict, post-recovery verdict) — compared
          only without chaos, where the transport stream is
          deterministic across the recovery *)
  xr_resumed : int;  (** in-flight exchanges finished via [resume] *)
  xr_rehandled : int;
  xr_discarded_bytes : int;  (** torn tail recovery dropped *)
}

val run_crash_one :
  ?cross:bool ->
  ?seed:int ->
  index:int ->
  site:string ->
  nth:int ->
  Cm_cloudsim.Chaos.profile option ->
  Mutant.t option ->
  (crash_run, string list) Stdlib.result
(** One cell: reference run, crashed+recovered run, audit.  [cross]
    (default true) uses the cross-service models and workload — the
    extended mutants X1..X8 need them. *)

val run_crash_matrix :
  ?cross:bool ->
  ?seed:int ->
  ?domains:int ->
  ?nth:int ->
  Cm_cloudsim.Chaos.profile option list ->
  Mutant.t list ->
  (crash_run list, string list) Stdlib.result
(** The full matrix: every profile x site x (baseline + mutants), each
    cell independent (fresh cloud + journal) and fanned out over
    [domains].  [nth] (default 3) picks which occurrence of the site
    crashes. *)

val crash_ok : crash_run list -> bool
(** Zero duplicates, zero losses, zero mismatches, baseline clean,
    every mutant killed — across every cell. *)

val crash_matrix : crash_run list -> string
val crash_to_json : crash_run list -> Cm_json.Json.t
