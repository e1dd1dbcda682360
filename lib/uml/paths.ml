type entry = {
  resource : string;
  template : Cm_http.Uri_template.t;
  is_item : bool;
}

let id_param name = String.lowercase_ascii name ^ "_id"

let context (model : Resource_model.t) =
  match Resource_model.outgoing model.Resource_model.root model with
  | child :: _ -> child.Resource_model.target
  | [] -> model.Resource_model.root

let ( let* ) r f = Result.bind r f

let derive (model : Resource_model.t) =
  let open Resource_model in
  let entry resource path is_item =
    match Cm_http.Uri_template.parse path with
    | Ok template -> Ok { resource; template; is_item }
    | Error msg -> Error (Printf.sprintf "bad path for %s: %s" resource msg)
  in
  let lookup def_name =
    match find_resource def_name model with
    | Some def -> Ok def
    | None -> Error (Printf.sprintf "unknown resource %s" def_name)
  in
  (* Walk containment from the root, accumulating path text.  [visited]
     guards against cycles in the association graph. *)
  let rec walk acc visited def_name path =
    if List.mem def_name visited then
      Error (Printf.sprintf "containment cycle through %s" def_name)
    else
      let* def = lookup def_name in
      let visited = def_name :: visited in
      match def.kind with
      | Collection ->
        (* The collection itself is addressable, and so is each item of
           every contained resource definition. *)
        let* collection_entry = entry def_name path false in
        let walk_child acc child =
          let item_path = path ^ "/{" ^ id_param child.target ^ "}" in
          walk acc visited child.target item_path
        in
        fold_children (collection_entry :: acc) walk_child
          (outgoing def_name model)
      | Normal ->
        let* item_entry = entry def_name path true in
        let walk_child acc child =
          let child_path = path ^ "/" ^ child.role in
          let* target_def = lookup child.target in
          match target_def.kind with
          | Collection -> walk acc visited child.target child_path
          | Normal ->
            if Multiplicity.is_collection child.multiplicity then begin
              (* A many-association to a normal resource is an implicit
                 sub-collection: the role URI lists it, the
                 id-parameterised URI addresses the items. *)
              let* sub_collection = entry child.target child_path false in
              let item_path =
                child_path ^ "/{" ^ id_param child.target ^ "}"
              in
              let* acc = walk acc visited child.target item_path in
              Ok (sub_collection :: acc)
            end
            else walk acc visited child.target child_path
        in
        fold_children (item_entry :: acc) walk_child
          (outgoing def_name model)
  and fold_children acc f children =
    List.fold_left
      (fun acc_result child ->
        let* acc = acc_result in
        f acc child)
      (Ok acc) children
  in
  let* entries = walk [] [] model.root model.base_path in
  Ok (List.rev entries)

(* Hashed entry lookup: the monitor and the observer resolve entries on
   every request/observation, so a linear scan over the derived table is
   hot-path work.  Keyed by (resource, is_item); first derived entry
   wins, as with [List.find_opt]. *)
type index = (string * bool, entry) Hashtbl.t

let index entries =
  let table = Hashtbl.create (2 * List.length entries + 1) in
  List.iter
    (fun entry ->
      let key = (entry.resource, entry.is_item) in
      if not (Hashtbl.mem table key) then Hashtbl.add table key entry)
    entries;
  table

let find idx ~resource ~item = Hashtbl.find_opt idx (resource, item)

let template_for model ~resource ~item =
  match derive model with
  | Error _ -> None
  | Ok entries ->
    find (index entries) ~resource ~item
    |> Option.map (fun e -> e.template)
