module BM = Cm_uml.Behavior_model
module RM = Cm_uml.Resource_model
module Paths = Cm_uml.Paths
module Cloud = Cm_cloudsim.Cloud
module Request = Cm_http.Request
module Json = Cm_json.Json

type spec = {
  resources : RM.t;
  behavior : BM.t;
  security : Cm_contracts.Generate.security;
  create_body : string -> Json.t option;
  update_body : string -> Json.t option;
}

let project = "myProject"

let cinder_spec =
  { resources = Cm_uml.Cinder_model.resources;
    behavior = Cm_uml.Cinder_model.behavior;
    security =
      { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
        assignment = Cm_rbac.Security_table.cinder_assignment
      };
    create_body =
      (function
        | "volume" ->
          Some
            (Json.obj
               [ ( "volume",
                   Json.obj
                     [ ("name", Json.string "generated"); ("size", Json.int 10) ]
                 )
               ])
        | _ -> None);
    update_body =
      (function
        | "volume" ->
          Some
            (Json.obj
               [ ("volume", Json.obj [ ("name", Json.string "renamed") ]) ])
        | _ -> None)
  }

let glance_spec =
  { resources = Cm_uml.Glance_model.resources;
    behavior = Cm_uml.Glance_model.behavior;
    security =
      { Cm_contracts.Generate.table = Cm_rbac.Security_table.glance;
        assignment = Cm_rbac.Security_table.cinder_assignment
      };
    create_body =
      (function
        | "image" ->
          Some
            (Json.obj
               [ ( "image",
                   Json.obj
                     [ ("name", Json.string "generated"); ("size", Json.int 256) ]
                 )
               ])
        | _ -> None);
    update_body =
      (function
        | "image" ->
          Some
            (Json.obj
               [ ("image", Json.obj [ ("name", Json.string "renamed") ]) ])
        | _ -> None)
  }

let role_user = function
  | "admin" -> Some "alice"
  | "member" -> Some "bob"
  | "user" -> Some "carol"
  | _ -> None

(* The collection entry whose contained item definition is [resource]. *)
let collection_path entries resources resource =
  List.find_map
    (fun (e : Paths.entry) ->
      if e.is_item then None
      else if e.resource = resource then
        Some (Cm_http.Uri_template.to_string e.template)
      else
        match RM.outgoing e.resource resources with
        | child :: _ when child.RM.target = resource ->
          Some (Cm_http.Uri_template.to_string e.template)
        | _ -> None)
    entries

let driver ?(faults = Cm_cloudsim.Faults.none) spec () =
  let cloud = Cloud.create () in
  Cloud.seed cloud Cloud.my_project;
  Cm_cloudsim.Identity.add_user (Cloud.identity cloud) ~password:"svc"
    (Cm_rbac.Subject.make "svc" [ "proj_administrator" ]);
  let login user pw =
    match Cloud.login cloud ~user ~password:pw ~project_id:project with
    | Ok t -> t
    | Error e -> failwith e
  in
  let service_token = login "svc" "svc" in
  let tokens =
    [ ("alice", login "alice" "alice-pw");
      ("bob", login "bob" "bob-pw");
      ("carol", login "carol" "carol-pw")
    ]
  in
  Cloud.set_faults cloud faults;
  let monitor =
    match
      Cm_monitor.Monitor.create
        (Cm_monitor.Monitor.default_config ~service_token
           ~security:spec.security spec.resources spec.behavior)
        (Cloud.handle cloud)
    with
    | Ok m -> m
    | Error msgs -> failwith (String.concat "; " msgs)
  in
  let entries =
    match Paths.derive spec.resources with
    | Ok entries -> entries
    | Error msg -> failwith msg
  in
  let id_param = Cm_uml.Paths.id_param in
  let context_param = id_param (Paths.context spec.resources) in
  let expand template bindings =
    Cm_http.Uri_template.expand_exn template
      ((context_param, project) :: bindings)
  in
  let collection_uri resource =
    Option.map
      (fun path_text ->
        expand (Cm_http.Uri_template.parse_exn path_text) [])
      (collection_path entries spec.resources resource)
  in
  (* First existing item of the resource, via the listing. *)
  let first_item_id resource =
    match collection_uri resource with
    | None -> None
    | Some path ->
      let listing =
        Cloud.handle cloud
          (Request.make Cm_http.Meth.GET path
          |> Request.with_auth_token service_token)
      in
      (match listing.Cm_http.Response.body with
       | Some (Json.Obj [ (_, Json.List (first :: _)) ]) ->
         (match Json.member "id" first with
          | Some (Json.String id) -> Some id
          | _ -> None)
       | _ -> None)
  in
  let item_uri resource id =
    List.find_map
      (fun (e : Paths.entry) ->
        if e.is_item && e.resource = resource then
          Some (expand e.template [ (id_param resource, id) ])
        else None)
      entries
  in
  let token_for_role role =
    Option.bind (role_user role) (fun user -> List.assoc_opt user tokens)
  in
  let request_for (tr : BM.transition) ~role =
    match token_for_role role with
    | None -> None
    | Some token ->
      let with_token r = Some (Request.with_auth_token token r) in
      let resource = tr.trigger.BM.resource in
      let is_collection_resource =
        match RM.find_resource resource spec.resources with
        | Some def -> def.RM.kind = RM.Collection
        | None -> false
      in
      (match tr.trigger.BM.meth with
       | Cm_http.Meth.POST ->
         Option.bind (collection_uri resource) (fun path ->
             Option.bind (spec.create_body resource) (fun body ->
                 with_token (Request.make ~body Cm_http.Meth.POST path)))
       | Cm_http.Meth.GET when is_collection_resource ->
         Option.bind (collection_uri resource) (fun path ->
             with_token (Request.make Cm_http.Meth.GET path))
       | (Cm_http.Meth.GET | Cm_http.Meth.PUT | Cm_http.Meth.DELETE) as meth ->
         Option.bind (first_item_id resource) (fun id ->
             Option.bind (item_uri resource id) (fun path ->
                 match meth with
                 | Cm_http.Meth.PUT ->
                   Option.bind (spec.update_body resource) (fun body ->
                       with_token (Request.make ~body Cm_http.Meth.PUT path))
                 | meth -> with_token (Request.make meth path)))
       | Cm_http.Meth.HEAD | Cm_http.Meth.PATCH | Cm_http.Meth.OPTIONS -> None)
  in
  let observe () =
    let observer =
      Cm_monitor.Observer.create_exn ~backend:(Cloud.handle cloud)
        ~token:service_token ~model:spec.resources ~project_id:project
    in
    (* bind the first item of the behaviour's most specific resource so
       that item guards are decidable *)
    let item =
      List.find_map
        (fun (trigger : BM.trigger) ->
          match RM.find_resource trigger.resource spec.resources with
          | Some def when def.RM.kind = RM.Normal ->
            Option.map
              (fun id -> (trigger.resource, id))
              (first_item_id trigger.resource)
          | _ -> None)
        (BM.triggers spec.behavior)
    in
    Cm_monitor.Observer.env ?item observer
  in
  { Execute.request_for;
    observe;
    handle = Cm_monitor.Monitor.handle monitor
  }
