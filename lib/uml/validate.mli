(** Well-formedness checks for design models.

    The paper's workflow has a security analyst drawing the models by
    hand; the generator refuses ill-formed input with a full list of
    problems rather than producing a broken monitor.

    Findings are reported through the unified lint framework
    ({!Cm_lint.Lint}) under stable [VAL00x] rule codes, so `cmonitor
    validate` and `cmonitor analyze` share one reporter. *)

type issue = Cm_lint.Lint.finding
(** An issue is a lint finding: [rule] is a [VAL00x] code, [severity]
    is always {!Cm_lint.Lint.Error} for well-formedness problems,
    [where] names the offending model element and [message] describes
    the problem. *)

val catalogue : Cm_lint.Lint.rule list
(** Metadata for the VAL001..VAL006 well-formedness rules. *)

val resource_model : Resource_model.t -> issue list
(** Checks: unique resource names; association endpoints exist; role
    names unique per source; collections have no attributes and exactly
    one outgoing containment; every resource reachable from the root;
    the root exists and is a collection; attribute names unique;
    derivable URI templates. *)

val behavior_model :
  Resource_model.t -> Behavior_model.t -> issue list
(** Checks: initial state exists; transition endpoints exist; state
    names unique; trigger resources exist in the resource model; every
    state reachable from the initial one; invariants, guards and effects
    typecheck against the resource-model signature; effects may use
    [pre()], invariants and guards may not. *)

val all : Resource_model.t -> Behavior_model.t list -> issue list
