(** Method contracts (Design by Contract, §V of the paper).

    A contract belongs to one trigger — an HTTP method on a resource —
    and combines every state-machine transition fired by that trigger:

    - the precondition is the disjunction over transitions of
      [invariant(source) and guard], each conjoined with the
      authorization guard derived from the security table;
    - the postcondition is the conjunction over transitions of
      [pre(invariant(source) and guard) implies
       (invariant(target) and effect)] — the implication antecedent
      refers to the state {e before} the call. *)

type branch = {
  source : string;
  target : string;
  branch_pre : Cm_ocl.Ast.expr;  (** inv(source) ∧ guard ∧ auth *)
  branch_post : Cm_ocl.Ast.expr;  (** inv(target) ∧ effect *)
  branch_requirements : string list;
}

type t = {
  trigger : Cm_uml.Behavior_model.trigger;
  pre : Cm_ocl.Ast.expr;
  post : Cm_ocl.Ast.expr;
  functional_pre : Cm_ocl.Ast.expr;
      (** the behavioural part alone: ∨ (inv(source) ∧ guard) — what must
          hold for the call to be {e possible} *)
  auth_guard : Cm_ocl.Ast.expr option;
      (** the security part alone: who may make the call ([None] when no
          security table was supplied) *)
  branches : branch list;
  requirements : string list;  (** all SecReq ids the contract covers *)
}

val pre_of_branches : branch list -> Cm_ocl.Ast.expr
val post_of_branches : branch list -> Cm_ocl.Ast.expr

val requirements_of_branches : branch list -> string list
(** The SecReq ids the branches carry, sorted, without duplicates. *)

val active_branches : t -> Cm_ocl.Eval.env -> branch list
(** Branches whose precondition holds in the environment — the
    requirement-coverage signal ("when a state or transition with the
    requirement annotation is traversed, we get an indication which
    security requirement is met", §IV-C). *)

val covered_requirements : t -> Cm_ocl.Eval.env -> string list
(** [requirements_of_branches (active_branches c env)]: the SecReq ids
    a request in this pre-state covers. *)

val pp : Format.formatter -> t -> unit
(** Listing-1 layout: [PreCondition(...)] / [PostCondition(...)]. *)
