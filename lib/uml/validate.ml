module Lint = Cm_lint.Lint

type issue = Lint.finding

(* Rule codes for the well-formedness layer.  Severity is always Error:
   the generator refuses ill-formed input outright. *)
let c_duplicate = "VAL001"
let c_dangling = "VAL002"
let c_structure = "VAL003"
let c_unreachable = "VAL004"
let c_typecheck = "VAL005"
let c_prestate = "VAL006"

let catalogue =
  [ Lint.rule ~code:c_duplicate ~title:"duplicate model element name"
      ~severity:Lint.Error
      "Resource, attribute, role and state names must be unique within \
       their scope; duplicates make URI derivation and state lookup \
       ambiguous.";
    Lint.rule ~code:c_dangling ~title:"dangling model reference"
      ~severity:Lint.Error
      "An association endpoint, root, initial state, transition endpoint \
       or trigger resource names a model element that does not exist.";
    Lint.rule ~code:c_structure ~title:"malformed resource structure"
      ~severity:Lint.Error
      "Collections must have no attributes and contain exactly one \
       resource definition; the root must be a collection; URI templates \
       must be derivable.";
    Lint.rule ~code:c_unreachable ~title:"unreachable model element"
      ~severity:Lint.Error
      "Every resource definition must be reachable from the root and \
       every state from the initial state.";
    Lint.rule ~code:c_typecheck ~title:"expression does not typecheck"
      ~severity:Lint.Error
      "Invariants, guards and effects must typecheck as Boolean against \
       the resource-model signature.";
    Lint.rule ~code:c_prestate ~title:"illegal pre-state reference"
      ~severity:Lint.Error
      "Only effects may reference the pre-state via @pre; invariants and \
       guards are single-state predicates."
  ]

let issue ~rule ~where problem =
  Lint.finding ~rule ~severity:Lint.Error ~where problem

let duplicates names =
  let sorted = List.sort String.compare names in
  let rec loop acc = function
    | a :: (b :: _ as rest) ->
      loop (if a = b && not (List.mem a acc) then a :: acc else acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  loop [] sorted

let resource_model (model : Resource_model.t) =
  let open Resource_model in
  let issues = ref [] in
  let add ~rule where problem = issues := issue ~rule ~where problem :: !issues in
  let names = List.map (fun r -> r.def_name) model.resources in
  List.iter
    (fun name -> add ~rule:c_duplicate name "duplicate resource definition name")
    (duplicates names);
  List.iter
    (fun (r : resource_def) ->
      let attr_names = List.map (fun a -> a.attr_name) r.attributes in
      List.iter
        (fun a ->
          add ~rule:c_duplicate r.def_name
            (Printf.sprintf "duplicate attribute %S" a))
        (duplicates attr_names);
      match r.kind with
      | Collection ->
        if r.attributes <> [] then
          add ~rule:c_structure r.def_name
            "collection resource definition has attributes";
        (match outgoing r.def_name model with
         | [ _ ] -> ()
         | [] ->
           add ~rule:c_structure r.def_name
             "collection contains no resource definition"
         | _ :: _ :: _ ->
           add ~rule:c_structure r.def_name
             "collection contains more than one resource definition")
      | Normal -> ())
    model.resources;
  List.iter
    (fun (a : association) ->
      if not (List.mem a.source names) then
        add ~rule:c_dangling a.role
          (Printf.sprintf "association source %S does not exist" a.source);
      if not (List.mem a.target names) then
        add ~rule:c_dangling a.role
          (Printf.sprintf "association target %S does not exist" a.target))
    model.associations;
  (* Role names must be unique per source: they become URI segments. *)
  List.iter
    (fun (r : resource_def) ->
      let roles = List.map (fun (a : association) -> a.role) (outgoing r.def_name model) in
      List.iter
        (fun role ->
          add ~rule:c_duplicate r.def_name
            (Printf.sprintf "duplicate role name %S" role))
        (duplicates roles))
    model.resources;
  (match find_resource model.root model with
   | None ->
     add ~rule:c_dangling model.root "root resource definition does not exist"
   | Some root_def ->
     if root_def.kind <> Collection then
       add ~rule:c_structure model.root
         "root resource definition is not a collection");
  (match Paths.derive model with
   | Error msg -> add ~rule:c_structure model.model_name msg
   | Ok entries ->
     let reachable = List.map (fun (e : Paths.entry) -> e.resource) entries in
     List.iter
       (fun name ->
         if not (List.mem name reachable) then
           add ~rule:c_unreachable name
             "resource definition not reachable from the root")
       names);
  List.rev !issues

let check_expr signature where label allow_pre expr issues =
  let add ~rule problem = issues := issue ~rule ~where problem :: !issues in
  if (not allow_pre) && Cm_ocl.Ast.has_pre expr then
    add ~rule:c_prestate
      (Printf.sprintf "%s must not reference the pre-state" label);
  List.iter
    (fun err ->
      add ~rule:c_typecheck
        (Fmt.str "%s does not typecheck: %a" label Cm_ocl.Typecheck.pp_error err))
    (Cm_ocl.Typecheck.check_boolean signature expr)

let behavior_model (resources : Resource_model.t) (machine : Behavior_model.t) =
  let open Behavior_model in
  let issues = ref [] in
  let add ~rule where problem = issues := issue ~rule ~where problem :: !issues in
  let signature = Resource_model.signature resources in
  let state_names = List.map (fun s -> s.state_name) machine.states in
  List.iter
    (fun name -> add ~rule:c_duplicate name "duplicate state name")
    (duplicates state_names);
  if not (List.mem machine.initial state_names) then
    add ~rule:c_dangling machine.initial "initial state does not exist";
  List.iter
    (fun s ->
      check_expr signature s.state_name "state invariant" false s.invariant
        issues)
    machine.states;
  let resource_names =
    List.map
      (fun (r : Resource_model.resource_def) -> String.lowercase_ascii r.def_name)
      resources.resources
  in
  List.iteri
    (fun i tr ->
      let where =
        Fmt.str "transition #%d %s->%s on %a" i tr.source tr.target pp_trigger
          tr.trigger
      in
      if not (List.mem tr.source state_names) then
        add ~rule:c_dangling where "source state does not exist";
      if not (List.mem tr.target state_names) then
        add ~rule:c_dangling where "target state does not exist";
      if not (List.mem (String.lowercase_ascii tr.trigger.resource) resource_names)
      then
        add ~rule:c_dangling where
          (Printf.sprintf "trigger resource %S not in the resource model"
             tr.trigger.resource);
      (match tr.guard with
       | Some guard -> check_expr signature where "guard" false guard issues
       | None -> ());
      (match tr.effect with
       | Some effect -> check_expr signature where "effect" true effect issues
       | None -> ()))
    machine.transitions;
  (* Reachability from the initial state. *)
  let rec reach visited frontier =
    match frontier with
    | [] -> visited
    | s :: rest ->
      if List.mem s visited then reach visited rest
      else
        let next =
          List.filter_map
            (fun tr -> if tr.source = s then Some tr.target else None)
            machine.transitions
        in
        reach (s :: visited) (next @ rest)
  in
  let reachable = reach [] [ machine.initial ] in
  List.iter
    (fun name ->
      if not (List.mem name reachable) then
        add ~rule:c_unreachable name "state not reachable from the initial state")
    state_names;
  List.rev !issues

let all resources machines =
  resource_model resources
  @ List.concat_map (behavior_model resources) machines
