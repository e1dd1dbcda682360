(* The paper's running example end to end: the Cinder volume lifecycle
   monitored in Enforce mode (the proxy of Fig. 2).

   The full lifecycle is driven through the monitor: create to quota,
   attempt over-quota creation, update, attach, attempt delete-in-use,
   detach, delete — printing the workflow verdict of each exchange and
   the generated contracts that govern them.

   Run with: dune exec examples/cinder_monitoring.exe *)

module C = Cloudmon

let show_contracts monitor =
  print_endline "== contracts generated from the Cinder models (Listing 1) ==";
  List.iter
    (fun contract -> Fmt.pr "@.%a@." C.Contracts.Contract.pp contract)
    (C.Monitor.contracts monitor)

let () =
  let cloud = C.Cloudsim.create () in
  C.Cloudsim.seed cloud C.Cloudsim.my_project;
  C.Identity.add_user (C.Cloudsim.identity cloud) ~password:"svc"
    (C.Rbac.Subject.make "svc" [ "proj_administrator" ]);
  let token user pw =
    match C.Cloudsim.login cloud ~user ~password:pw ~project_id:"myProject" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let service_token = token "svc" "svc" in
  let monitor =
    match
      C.monitor_of_models ~mode:C.Monitor.Enforce ~service_token
        ~security:C.cinder_security C.Uml.Cinder_model.resources
        C.Uml.Cinder_model.behavior (C.Cloudsim.handle cloud)
    with
    | Ok m -> m
    | Error msgs ->
      List.iter prerr_endline msgs;
      exit 1
  in
  show_contracts monitor;
  print_endline "";
  print_endline "== monitored volume lifecycle (Enforce mode) ==";
  let alice = token "alice" "alice-pw" in
  let bob = token "bob" "bob-pw" in
  let carol = token "carol" "carol-pw" in
  let outcomes = ref [] in
  let step label user meth path ?body () =
    let req =
      C.Http.Request.make ?body meth path |> C.Http.Request.with_auth_token user
    in
    let outcome = C.Monitor.handle monitor req in
    outcomes := outcome :: !outcomes;
    Fmt.pr "%-44s -> %3d %a@." label
      outcome.C.Outcome.response.C.Http.Response.status
      C.Outcome.pp_conformance outcome.C.Outcome.conformance;
    outcome
  in
  let volume_body name =
    C.Json.obj
      [ ( "volume",
          C.Json.obj [ ("name", C.Json.string name); ("size", C.Json.int 10) ]
        )
      ]
  in
  let base = "/v3/myProject/volumes" in
  let created =
    step "alice creates volume 1" alice C.Http.Meth.POST base
      ~body:(volume_body "data1") ()
  in
  let v1 =
    match created.C.Outcome.cloud_response with
    | Some { C.Http.Response.body = Some body; _ } ->
      (match C.Json.member "volume" body with
       | Some v ->
         (match C.Json.member "id" v with
          | Some (C.Json.String id) -> id
          | _ -> "vol-1")
       | None -> "vol-1")
    | _ -> "vol-1"
  in
  ignore
    (step "alice creates volume 2" alice C.Http.Meth.POST base
       ~body:(volume_body "data2") ());
  ignore
    (step "alice creates volume 3 (fills quota)" alice C.Http.Meth.POST base
       ~body:(volume_body "data3") ());
  ignore
    (step "alice creates volume 4 (over quota, blocked)" alice C.Http.Meth.POST
       base ~body:(volume_body "data4") ());
  ignore (step "bob lists volumes" bob C.Http.Meth.GET base ());
  ignore (step "carol reads volume 1" carol C.Http.Meth.GET (base ^ "/" ^ v1) ());
  ignore
    (step "carol deletes volume 1 (blocked: role)" carol C.Http.Meth.DELETE
       (base ^ "/" ^ v1) ());
  ignore
    (step "bob renames volume 1" bob C.Http.Meth.PUT (base ^ "/" ^ v1)
       ~body:
         (C.Json.obj [ ("volume", C.Json.obj [ ("name", C.Json.string "db") ]) ])
       ());
  ignore
    (step "alice attaches volume 1 (unmodelled URI)" alice C.Http.Meth.POST
       (base ^ "/" ^ v1 ^ "/action")
       ~body:
         (C.Json.obj
            [ ( "os-attach",
                C.Json.obj [ ("instance_uuid", C.Json.string "srv-9") ] )
            ])
       ());
  ignore
    (step "alice deletes volume 1 (blocked: in-use)" alice C.Http.Meth.DELETE
       (base ^ "/" ^ v1) ());
  ignore
    (step "alice detaches volume 1" alice C.Http.Meth.POST
       (base ^ "/" ^ v1 ^ "/action")
       ~body:(C.Json.obj [ ("os-detach", C.Json.obj []) ])
       ());
  ignore
    (step "alice deletes volume 1" alice C.Http.Meth.DELETE (base ^ "/" ^ v1) ());
  print_endline "";
  let summary = C.Report.summarize (List.rev !outcomes) in
  print_string (C.Report.render summary ~coverage:(C.Monitor.coverage monitor))
