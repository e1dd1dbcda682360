(** Interference analysis: read footprints crossed with write effects
    (AN013–AN015).

    Crossing {!Cm_ocl.Footprint} (what a contract reads) with
    {!Effects} (what a trigger writes) yields, per contract, the
    {e minimal event subscription map}: the set of events able to change
    its verdict.  Everything outside the map provably commutes with the
    contract — the dynamic oracle {!Crosscheck.run_subscriptions}
    cross-checks exactly this claim.

    When every subscribed event is tenant-keyed the contract is
    {e shard-closed}: its verdicts are a function of one tenant's event
    stream, so a per-tenant sharded monitor evaluates it bit-identically
    at any domain count.  Auth-guarded contracts subscribe to the
    identity pseudo-event (token revocation carries no tenant key) and
    are therefore reported cross-shard — the static justification for
    the monitor's identity-event broadcast.

    - {b AN013} (error): a safe method's effect writes state.
    - {b AN014} (warning): a functional expression (invariant, guard or
      effect — not the generated auth guard) reads the identity subject.
    - {b AN015} (error): a contract subscribes to a {e model} event
      whose URI carries no tenant key — per-tenant sharding would drop
      another tenant's verdict-changing traffic. *)

type subscription = {
  sub_trigger : Cm_uml.Behavior_model.trigger;
  sub_events : Effects.event list;
      (** events able to change the contract's verdict, in event order
          (sorted by resource then method, identity last) *)
  sub_shard_closed : bool;
}

val contract_reads : Cm_contracts.Contract.t -> Cm_ocl.Footprint.t
(** Read footprint over every expression of the contract (pre,
    functional pre, auth guard, branches, post) — the same set
    {!Cm_contracts.Runtime.footprint} serves at run time. *)

val subscriptions : Input.t -> (subscription list, string) result
(** One subscription per generated contract, in trigger order. *)

val subscription_for :
  subscription list -> Cm_uml.Behavior_model.trigger -> subscription option

val cross_shard_events : subscription -> Effects.event list
(** The subscribed events that are not tenant-keyed (empty iff
    [sub_shard_closed]). *)

val findings : Input.t -> Cm_lint.Lint.finding list
(** AN013/AN014/AN015.  Inputs whose contracts cannot be generated
    yield only the model-level AN013/AN014 findings. *)

val subscription_to_json : subscription -> Cm_json.Json.t

val to_json : subscription list -> Cm_json.Json.t
(** Stable dump — the golden subscription-map format committed under
    [test/golden/]. *)
