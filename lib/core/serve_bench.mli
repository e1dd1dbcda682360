(** Throughput harness for the sharded monitor: replay a seeded
    multi-tenant workload at several domain counts and report req/s
    scaling, observation-cache hit rates, observation GETs per request
    under footprint pruning, and the single-domain handle cost (the CI
    regression gate against BENCH_fastpath.json).

    The workload is a pure function of the spec — round-robin over the
    tenants with a PRNG-chosen mix of listings, item reads, renames,
    creations and deletions against pre-created volumes — so every
    measurement config replays the identical request stream, and the
    harness cross-checks that verdict sequences agree at every domain
    count. *)

type spec = {
  projects : int;  (** tenant count; also the shard count *)
  requests_per_project : int;
  seed : int;
}

val default_spec : spec
(** 8 projects x 50 requests, seed 42. *)

type invalid_reason =
  | Host_single_core
      (** more domains than the host has: the point measures
          oversubscription contention, not parallel speedup *)
  | Gate_failed
      (** the speedup gate was active and this point missed the floor *)

val invalid_reason_to_string : invalid_reason -> string
(** ["host_single_core"] / ["gate_failed"] — the machine-readable
    labels BENCH_throughput.json carries. *)

type scaling_point = {
  sp_domains : int;
  sp_requests : int;
  sp_elapsed_ns : float;
  sp_req_per_s : float;
  sp_hit_rate : float;
  mutable sp_invalid : invalid_reason option;
      (** [None] = the row counts toward [rp_speedup];
          {!check_speedup} may relabel rows after measurement *)
  sp_lock_per_req : float;
      (** instrumented-lock acquisitions per request during this
          serving phase ({!Cm_core.Lockstat} global delta / requests) *)
  sp_verdicts : string list;  (** conformance per request, arrival order *)
}

type latency = {
  lat_rate_per_s : float;  (** offered (open-loop) arrival rate *)
  lat_requests : int;
  lat_achieved_per_s : float;  (** completions over the makespan *)
  lat_p50_ns : float;
  lat_p95_ns : float;
  lat_p99_ns : float;
  lat_max_ns : float;
}
(** Open-loop latency distribution: requests arrive on a fixed schedule
    and latency is completion minus {e scheduled} arrival, so queueing
    delay is measured instead of throttling the offered load. *)

type eval_comparison = {
  ev_full_per_req : float;
      (** contract evaluations per request under the reference monitor
          ({!Cm_monitor.Reference}), which evaluates every check *)
  ev_inc_per_req : float;
      (** same workload through the production shard pool, which
          memoizes *)
  ev_reduction : float;  (** full/incremental — the >= 3x target *)
  ev_replays : int;  (** memoized verdict replays, incremental run *)
  ev_node_hit_rate : float;  (** inner connective cache hit rate *)
  ev_hit_ns : float;  (** one memoized-hit precondition check *)
  ev_hit_minor_words : float;
      (** minor-heap words allocated per such check; target 0 *)
}

type report = {
  rp_projects : int;
  rp_requests_per_project : int;
  rp_seed : int;
  rp_shards : int;
  rp_available_domains : int;
      (** hardware parallelism of the measurement host
          ({!Cm_core.Domain_pool.available}) — on a single-core host
          extra domains only add contention *)
  rp_scaling : scaling_point list;
  rp_speedup : float;
      (** best {e valid} multi-domain req/s over the 1-domain req/s
          (can be below 1.0); 1.0 when no multi-domain point is valid *)
  rp_verdicts_consistent : bool;
      (** verdict sequences identical at every measured domain count *)
  rp_gets_pruned : float;
      (** observation GETs per monitored request without a cache (the
          observer always prunes to the contract's read-set): the
          cross-request run's cache lookups (hits + misses) per request,
          each of which would otherwise have been a GET *)
  rp_gets_cached : float;
      (** backend observation GETs per request with the cross-request
          cache *)
  rp_cache : Cm_monitor.Obs_cache.stats;
  rp_handle_ns : float;  (** single-domain ns per monitored request *)
  rp_latency : latency;
  rp_eval : eval_comparison;
  rp_get_locks_per_req : float;
      (** instrumented-lock acquisitions per request on a monitored
          GET-only stream — [global_lock_acquisitions_per_request] in
          the JSON, the contention gate's subject (target: exactly 0).
          Counted, not timed, so a single-core host measures it just as
          well as a many-core one. *)
  rp_min_speedup : float;  (** the conditional speedup gate's floor *)
  rp_lock_stats : Cm_core.Lockstat.stats list;
      (** per-lock process totals (collapsed by name, setup included) —
          where acquisitions went, not just how many *)
}

val run :
  ?spec:spec ->
  ?domains_list:int list ->
  ?rate:float ->
  ?min_speedup:float ->
  unit ->
  (report, string list) result
(** Fresh cloud + shard pool per measurement (default domain counts
    1, 2 and 4).  [rate] pins the open-loop arrival rate in req/s;
    omitted (or non-positive) it self-calibrates to ~70% of the
    measured closed-loop capacity.  [min_speedup] (default 1.6) is
    recorded as the speedup gate's floor. *)

val check_contention : report -> (unit, string) result
(** The contention gate: fails unless [rp_get_locks_per_req] is exactly
    0 — the monitored read path must be lock-free.  Active on every
    host, single-core included. *)

val check_speedup : report -> (string, string) result
(** The conditional speedup gate: when the host has >= 2 hardware
    domains and a valid multi-domain point exists, [rp_speedup] must
    reach [rp_min_speedup].  [Ok] carries the pass/skip explanation
    (a single-core host skips, explicitly, instead of passing
    vacuously).  On failure the multi-domain rows are relabeled
    [Gate_failed] so a subsequent {!to_json} records the reason. *)

val run_open_loop : spec -> rate_per_s:float -> (latency, string list) result
(** One open-loop pass at a fixed arrival rate (serving is sequential
    in arrival order).  Raises [Invalid_argument] when the rate is not
    positive. *)

val run_eval_comparison : spec -> (eval_comparison, string list) result
(** Replay the workload through the reference monitor and through the
    production shard pool and compare evaluation counts; also runs the
    memoized-hit microbench. *)

val run_resilience_overhead :
  ?spec:spec -> unit -> (float * float * float, string list) result
(** [(off_ns, on_ns, overhead_percent)]: the per-request handle cost of
    the serve workload raw and through the default resilience layer,
    and the relative overhead.  The backend is latency-free, so the
    difference is the layer's pure bookkeeping cost. *)

val measure_hit : ?checks:int -> unit -> float * float
(** [(ns, minor_words)] per memoized-hit precondition check of the
    paper's DELETE(volume) contract against an unchanged observed
    state. *)

val render : report -> string

val to_json : report -> Cm_json.Json.t
(** The BENCH_throughput.json document. *)

val check_resilience_baseline :
  overhead_percent:float ->
  baseline:Cm_json.Json.t ->
  max_overhead_pct:float ->
  (float, string) result
(** Gate a measured resilience overhead against the ceiling (the CI
    gate uses 10%).  The baseline is a BENCH_resilience.json document;
    its recorded [overhead_percent] is returned for drift reporting,
    and a baseline without the field is an error (the gate must never
    pass vacuously). *)

val check_against_baseline :
  report ->
  baseline:Cm_json.Json.t ->
  max_regression_pct:float ->
  (unit, string) result
(** Compare [rp_handle_ns] against the
    [fastpath/cinder-handle-compiled] entry of a BENCH_fastpath.json
    document; when the document also carries an
    [incremental/memoized-hit-check] row, additionally gate the
    memoized-hit check latency ([ns_per_run], +100 ns absolute slack)
    and its allocation rate ([minor_words_per_check], +2 words slack)
    at the same percentage.  Baselines without incremental rows skip
    those gates (back-compatible). *)
