(** The design-time analysis rules.

    Satisfiability-based vacuity/dead-code analysis over the behavior
    model, an RBAC coverage audit over the security table, and a
    footprint observability check over the generated contracts.  All
    findings are reported through {!Cm_lint.Lint} under stable [AN00x]
    codes:

    - [AN001] unsatisfiable state invariant (Error)
    - [AN002] dead transition: source invariant and guard jointly
      unsatisfiable (Error) — also the antecedent-unsatisfiable form of
      a vacuous postcondition, reported once at its root cause
    - [AN003] vacuous postcondition: the consequent
      [inv(target) and effect] can never evaluate to false (Error)
    - [AN004] guard-overlap nondeterminism: two same-trigger transitions
      from one state with a satisfiable guard conjunction but different
      targets or effects (Error, with witness)
    - [AN005] trigger with no security-table row: the generated
      contract is fail-closed and rejects every request (Error)
    - [AN006] security row references a role with no usergroup
      assignment (Error)
    - [AN007] dangling security row: unknown resource, or a
      (resource, method) pair no transition exercises (Warning)
    - [AN008] role-unreachable transition: functionally satisfiable but
      unsatisfiable once the authorization guard is conjoined (Error)
    - [AN009] footprint blind spot: a generated contract reads state the
      observer never binds (Error) or a member no resource-model path
      produces (Warning)
    - [AN010] unsnapshotable pre(): an iterator binder captured under
      pre() — non-monitorable by any observer (Error, {!Monitorability})
    - [AN011] pre() in a guard or state invariant (Error,
      {!Monitorability})
    - [AN012] undischarged fresh-read obligation under path-prefix cache
      invalidation (Warning, {!Monitorability}; only with a
      [Path_prefix] visibility)
    - [AN013] mutating safe method (Error, {!Interference})
    - [AN014] identity read in a functional expression (Warning,
      {!Interference})
    - [AN015] cross-tenant interference: subscription to a
      non-tenant-keyed model event (Error, {!Interference})

    Rules that depend on the solver treat {!Solver.Unknown}
    conservatively: no finding. *)

type input = Input.t = {
  resources : Cm_uml.Resource_model.t;
  behavior : Cm_uml.Behavior_model.t;
  security : Cm_contracts.Generate.security option;
}

val catalogue : Cm_lint.Lint.rule list
(** Metadata for AN001..AN015 (see {!Cm_uml.Validate.catalogue} for the
    VAL side). *)

val full_catalogue : Cm_lint.Lint.rule list
(** [catalogue] plus the well-formedness VAL rules — everything
    `cmonitor analyze` can emit. *)

val analyze :
  ?visibility:Monitorability.visibility -> input -> Cm_lint.Lint.finding list
(** Run every rule, after the {!Cm_uml.Validate} well-formedness
    findings so one report covers both layers.
    [visibility] (default {!Monitorability.default_visibility}, the
    shipped observer) parameterises the AN010–AN012 monitorability
    pass. *)
