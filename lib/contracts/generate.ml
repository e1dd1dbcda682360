module Ast = Cm_ocl.Ast
module Behavior_model = Cm_uml.Behavior_model

type security = {
  table : Cm_rbac.Security_table.t;
  assignment : Cm_rbac.Role_assignment.t;
}

let auth_guard_for security (trigger : Behavior_model.trigger) =
  match security with
  | None -> None
  | Some { table; assignment } ->
    (match
       Cm_rbac.Security_table.find ~resource:trigger.resource
         ~meth:trigger.meth table
     with
     | Some entry ->
       Some (Cm_rbac.Security_table.auth_guard entry assignment)
     | None ->
       (* Fail closed: a method with no security entry is forbidden. *)
       Some (Ast.Bool_lit false))

let branch_of_transition machine auth (tr : Behavior_model.transition) =
  let invariant_of name =
    match Behavior_model.find_state name machine with
    | Some s -> s.Behavior_model.invariant
    | None -> Ast.Bool_lit false
  in
  let conjoin parts = Cm_ocl.Simplify.simplify (Ast.conj parts) in
  let pre_parts =
    [ invariant_of tr.source ]
    @ (match tr.guard with Some g -> [ g ] | None -> [])
    @ (match auth with Some a -> [ a ] | None -> [])
  in
  let post_parts =
    [ invariant_of tr.target ]
    @ (match tr.effect with Some e -> [ e ] | None -> [])
  in
  { Contract.source = tr.source;
    target = tr.target;
    branch_pre = conjoin pre_parts;
    branch_post = conjoin post_parts;
    branch_requirements = tr.requirements
  }

let contract_for ?security machine trigger =
  match Behavior_model.transitions_for trigger machine with
  | [] ->
    Error
      (Fmt.str "trigger %a fires no transition" Behavior_model.pp_trigger
         trigger)
  | transitions ->
    let auth = auth_guard_for security trigger in
    let branches = List.map (branch_of_transition machine auth) transitions in
    let functional_branches =
      List.map (branch_of_transition machine None) transitions
    in
    Ok
      { Contract.trigger;
        pre = Cm_ocl.Simplify.simplify (Contract.pre_of_branches branches);
        post = Cm_ocl.Simplify.simplify (Contract.post_of_branches branches);
        functional_pre =
          Cm_ocl.Simplify.simplify
            (Contract.pre_of_branches functional_branches);
        auth_guard = auth;
        branches;
        requirements = Contract.requirements_of_branches branches
      }

let all ?security machine =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | trigger :: rest ->
      (match contract_for ?security machine trigger with
       | Ok contract -> build (contract :: acc) rest
       | Error _ as err -> err)
  in
  build [] (Behavior_model.triggers machine)

let typecheck resources (contract : Contract.t) =
  let signature = Cm_uml.Resource_model.signature resources in
  Cm_ocl.Typecheck.check_boolean signature contract.pre
  @ Cm_ocl.Typecheck.check_boolean signature contract.post
