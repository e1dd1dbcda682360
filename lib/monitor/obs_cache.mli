(** Observation cache with mutation-overlap invalidation.

    The observer's GETs are pure reads of cloud state; between
    mutations that state cannot change (per-tenant requests are
    serialized within a shard), so responses can be reused.  A
    forwarded POST/PUT/DELETE on path [M] invalidates exactly the
    entries whose path overlaps [M]'s write-set: cached path [P] is
    dropped iff [P] is a segment-prefix of [M] (a container listing or
    ancestor document that now includes/excludes the mutated resource)
    or [M] is a segment-prefix of [P] (the mutated resource itself or
    something beneath it).

    Scopes: [Per_request] reuses observations only within one
    monitored exchange (pre-state -> post-state of the same request) —
    always sound, even with out-of-band writers between requests.
    [Cross_request] keeps entries across exchanges and is sound under
    the single-writer-per-tenant discipline the shard layer enforces.

    Counters are plain (shard-local) ints: a cache belongs to exactly
    one monitor replica, which one domain serves at a time, so shared
    [Atomic]s would only buy cache-line bouncing.  Read {!stats}
    between batches, from the dispatching domain. *)

type scope = Per_request | Cross_request

type t

type stats = { hits : int; misses : int; invalidated : int }

val create : scope -> t

val find : t -> token:string option -> string -> Cm_http.Response.t option

val remember : t -> token:string option -> string -> Cm_http.Response.t -> unit
(** Stores only definite state answers (2xx and 404); transient
    failures (5xx, degraded responses) are never pinned. *)

val invalidate_overlapping : t -> string -> unit
(** Drop every entry whose path segment-prefix-overlaps the mutated
    path, in either direction.  The monitor calls it with the write
    scopes the effect analysis derives for the mutation's trigger, or,
    for a mutation with no URI-table entry, with the tenant scope of
    its path.  That fallback fires on two mutation classes only: token
    revocation ([DELETE /identity/v3/auth/tokens], which must drop
    cached introspections) and the uncontracted volume action
    ([POST /v3/{p}/volumes/{id}/action]).  One 1-second
    [cmbench --seed 42] run per workload counted it on 1952 of 33208
    churn requests (5.9%), 1661 of 28740 journaled (5.8%), 513 of 8208
    campaign (6.3%) and never on read-heavy (0 of 19426). *)

val begin_request : t -> unit
(** Called at the top of each monitored exchange; clears the table
    under [Per_request] scope. *)

val clear : t -> unit
(** Drop all entries (out-of-band writers should call this). *)

val stats : t -> stats
val hit_rate : stats -> float
