(** Domain-parallel monitor serving: tenant-sharded monitor replicas.

    A shard pool holds [shards] independent {!Monitor.t} replicas of
    the same configuration over the same backend.  Every request is
    assigned to a shard by a deterministic hash of its project/tenant
    id (unclassified requests go to shard 0), so all requests touching
    one tenant's state are serialized on one replica — the
    single-writer-per-tenant discipline that makes per-shard
    [Cross_request] observation caches and the cloudsim's
    shard-ownership store sound.

    {b Determinism.}  The partition is a pure function of the request
    stream and the shard count — never of the domain count or the
    scheduler.  Each shard processes its subsequence in arrival order,
    so per-shard outcome sequences (and therefore verdicts) are
    bit-identical whether the pool runs on 1 domain or [shards]
    domains.  Only the interleaving {e between} shards varies, which
    contracts cannot observe (see DESIGN.md §8). *)

type t

val create :
  ?shards:int -> Monitor.config -> Observer.backend -> (t, string list) result
(** [create ~shards config backend] builds [shards] (default 1) monitor
    replicas.  For cross-exchange observation reuse pass a config with
    [cache = Obs_cache.Cross_request]; each replica's cache only ever
    holds state of the tenants hashed to it. *)

val shards : t -> int

val monitor : t -> int -> Monitor.t
(** The replica serving shard [i] — for per-shard outcome logs,
    coverage, and cache statistics. *)

val shard_of : t -> Cm_http.Request.t -> int
(** The shard that will serve this request: FNV-1a hash of the
    classified project id modulo {!shards}; [0] when classification
    binds no project.  Classification uses a config-derived extractor —
    no monitor replica (in particular not shard 0's) is involved — and
    the hash is memoized per project id.  Admission-side only: call it
    from the dispatching domain, before fan-out. *)

val tenant_keyed : t -> Cm_http.Request.t -> bool
(** Does the static write-effect analysis prove the request's event
    tenant-keyed ({!Monitor.tenant_keyed_classifier})?  [true] means the
    per-shard determinism contract covers it outright; [false] marks
    traffic — identity writes, unmodelled paths — whose verdicts may
    couple shards through shared state.  Config-derived at {!create},
    admission-side, no replica involved. *)

val handle_all :
  ?domains:int -> t -> Cm_http.Request.t list -> Outcome.t array
(** Serve a batch: partition by {!shard_of} preserving arrival order,
    run the shards on [domains] OCaml domains (default 1, clamped to
    [shards]), and return outcomes in the original request order.
    The result is identical for every [domains] value.  Batches run on
    the process-wide persistent {!Cm_core.Domain_pool} — domains are
    spawned on first use and parked between batches, so steady-state
    serving never pays [Domain.spawn]. *)

val outcomes_by_shard : t -> Outcome.t list array
(** Each shard's outcome log, in that shard's processing order. *)

val cache_stats : t -> Obs_cache.stats
(** Pool-wide observation-cache counters, summed over every replica's
    cache. *)

val eval_stats : t -> Cm_contracts.Runtime.eval_stats
(** Pool-wide incremental-evaluation counters, summed over every
    replica's prepared contracts. *)

