module BM = Behavior_model
module RM = Resource_model

type criterion =
  | By_resources of string list
  | By_methods of Cm_http.Meth.t list
  | By_requirements of string list
  | Union of criterion list
  | Intersection of criterion list

let rec keeps criterion (tr : BM.transition) =
  match criterion with
  | By_resources resources ->
    List.exists
      (fun r ->
        String.lowercase_ascii r
        = String.lowercase_ascii tr.trigger.BM.resource)
      resources
  | By_methods methods -> List.mem tr.trigger.BM.meth methods
  | By_requirements ids ->
    List.exists (fun id -> List.mem id tr.requirements) ids
  | Union criteria -> List.exists (fun c -> keeps c tr) criteria
  | Intersection criteria -> List.for_all (fun c -> keeps c tr) criteria

let behavior criterion (machine : BM.t) =
  let transitions = List.filter (keeps criterion) machine.transitions in
  let touched =
    List.concat_map (fun (tr : BM.transition) -> [ tr.source; tr.target ]) transitions
  in
  let states =
    List.filter
      (fun (s : BM.state) ->
        s.state_name = machine.initial || List.mem s.state_name touched)
      machine.states
  in
  { machine with
    machine_name = machine.machine_name ^ "_slice";
    states;
    transitions
  }

(* Containment ancestors of a resource definition, via the first
   incoming association each step (the path by which it is addressed). *)
let rec ancestors model name acc =
  if List.mem name acc then acc
  else
    match RM.contained_by name model with
    | Some through -> ancestors model through.RM.source (name :: acc)
    | None -> name :: acc

let resource_model ~keep (model : RM.t) =
  let needed =
    List.fold_left
      (fun acc name -> ancestors model name acc)
      [ model.root ] keep
  in
  let resources =
    List.filter (fun (r : RM.resource_def) -> List.mem r.def_name needed) model.resources
  in
  let associations =
    List.filter
      (fun (a : RM.association) ->
        List.mem a.source needed && List.mem a.target needed)
      model.associations
  in
  { model with
    model_name = model.model_name ^ "_slice";
    resources;
    associations
  }
