module Ast = Cm_ocl.Ast

type branch = {
  source : string;
  target : string;
  branch_pre : Ast.expr;
  branch_post : Ast.expr;
  branch_requirements : string list;
}

type t = {
  trigger : Cm_uml.Behavior_model.trigger;
  pre : Ast.expr;
  post : Ast.expr;
  functional_pre : Ast.expr;
  auth_guard : Ast.expr option;
  branches : branch list;
  requirements : string list;
}

let pre_of_branches branches =
  Ast.disj (List.map (fun b -> b.branch_pre) branches)

let post_of_branches branches =
  Ast.conj
    (List.map
       (fun b -> Ast.Binop (Ast.Implies, Ast.At_pre b.branch_pre, b.branch_post))
       branches)

let requirements_of_branches branches =
  branches
  |> List.concat_map (fun b -> b.branch_requirements)
  |> List.sort_uniq String.compare

let active_branches contract env =
  List.filter
    (fun b -> Cm_ocl.Eval.check env b.branch_pre = Cm_ocl.Value.True)
    contract.branches

let covered_requirements contract env =
  requirements_of_branches (active_branches contract env)

let pp ppf contract =
  Fmt.pf ppf "PreCondition(%a):@.[%s]@.@.PostCondition(%a):@.[%s]"
    Cm_uml.Behavior_model.pp_trigger contract.trigger
    (Cm_ocl.Pretty.to_string_multiline contract.pre)
    Cm_uml.Behavior_model.pp_trigger contract.trigger
    (Cm_ocl.Pretty.to_string_multiline contract.post)
