(* A multi-service scenario: Cinder volumes interact with Nova-lite
   servers and with nested snapshots.  Attaching a volume to a server
   flips it to in-use, which both the volume-protocol guards (no delete
   while attached) and the snapshot-protocol guards (no snapshot of a
   non-quiesced volume) observe.  Two monitors — one per behavioral
   model — watch the same cloud side by side.

   Run with: dune exec examples/multi_service.exe *)

module C = Cloudmon

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
      C.monitor_of_models ~mode:C.Monitor.Oracle ~service_token
        ~security:C.cinder_security C.Uml.Cinder_model.resources
        C.Uml.Cinder_model.behavior (C.Cloudsim.handle cloud)
    with
    | Ok m -> m
    | Error msgs ->
      List.iter prerr_endline msgs;
      exit 1
  in
  let alice = token "alice" "alice-pw" in
  let carol = token "carol" "carol-pw" in
  (* the Cinder monitor's outcomes, newest first: the summary below
     covers the volume service *)
  let outcomes = ref [] in
  let step label user meth path ?body () =
    let req =
      C.Http.Request.make ?body meth path |> C.Http.Request.with_auth_token user
    in
    let outcome = C.Monitor.handle monitor req in
    outcomes := outcome :: !outcomes;
    Fmt.pr "%-48s -> %3d %a@." label
      outcome.C.Outcome.response.C.Http.Response.status
      C.Outcome.pp_conformance outcome.C.Outcome.conformance;
    outcome
  in
  let json_id member outcome =
    match outcome.C.Outcome.cloud_response with
    | Some { C.Http.Response.body = Some body; _ } ->
      (match C.Json.member member body with
       | Some doc ->
         (match C.Json.member "id" doc with
          | Some (C.Json.String id) -> id
          | _ -> failwith "no id in response")
       | None -> failwith ("no " ^ member ^ " in response"))
    | _ -> failwith "no response body"
  in
  print_endline "== Cinder + Nova-lite: attachment lifecycle ==";
  let volumes = "/v3/myProject/volumes" in
  let servers = "/v3/myProject/servers" in
  let vol =
    json_id "volume"
      (step "create database volume" alice C.Http.Meth.POST volumes
         ~body:
           (C.Json.obj
              [ ( "volume",
                  C.Json.obj
                    [ ("name", C.Json.string "db-disk");
                      ("size", C.Json.int 20)
                    ] )
              ])
         ())
  in
  let srv =
    json_id "server"
      (step "boot application server (Nova, unmodelled)" alice C.Http.Meth.POST
         servers
         ~body:
           (C.Json.obj
              [ ("server", C.Json.obj [ ("name", C.Json.string "app-1") ]) ])
         ())
  in
  ignore
    (step "attach volume to server (Nova, unmodelled)" alice C.Http.Meth.POST
       (servers ^ "/" ^ srv ^ "/attach")
       ~body:(C.Json.obj [ ("volume_id", C.Json.string vol) ])
       ());
  ignore
    (step "volume is now in-use" alice C.Http.Meth.GET (volumes ^ "/" ^ vol) ());
  ignore
    (step "delete attached volume (spec forbids)" alice C.Http.Meth.DELETE
       (volumes ^ "/" ^ vol) ());
  ignore
    (step "tear down the server (detaches)" alice C.Http.Meth.DELETE
       (servers ^ "/" ^ srv) ());
  ignore
    (step "delete volume after detach" alice C.Http.Meth.DELETE
       (volumes ^ "/" ^ vol) ());
  (* --- the snapshot protocol, watched by its own monitor --- *)
  print_endline "";
  print_endline "== nested snapshots under their own monitor ==";
  let snapshot_monitor =
    match
      C.monitor_of_models ~service_token
        ~security:
          { C.Contracts.Generate.table = C.Uml.Snapshot_model.security_table;
            assignment = C.Rbac.Security_table.cinder_assignment
          }
        C.Uml.Snapshot_model.resources C.Uml.Snapshot_model.behavior
        (C.Cloudsim.handle cloud)
    with
    | Ok m -> m
    | Error msgs ->
      List.iter prerr_endline msgs;
      exit 1
  in
  let snap_step label user meth path ?body () =
    let req =
      C.Http.Request.make ?body meth path |> C.Http.Request.with_auth_token user
    in
    let outcome = C.Monitor.handle snapshot_monitor req in
    Fmt.pr "%-48s -> %3d %a@." label
      outcome.C.Outcome.response.C.Http.Response.status
      C.Outcome.pp_conformance outcome.C.Outcome.conformance;
    outcome
  in
  let vol2 =
    json_id "volume"
      (step "create a second volume for snapshotting" alice C.Http.Meth.POST
         volumes
         ~body:
           (C.Json.obj
              [ ( "volume",
                  C.Json.obj
                    [ ("name", C.Json.string "db-disk-2");
                      ("size", C.Json.int 10)
                    ] )
              ])
         ())
  in
  let snaps = volumes ^ "/" ^ vol2 ^ "/snapshots" in
  let snap_body name =
    C.Json.obj [ ("snapshot", C.Json.obj [ ("name", C.Json.string name) ]) ]
  in
  let snap_id =
    json_id "snapshot"
      (snap_step "snapshot the quiesced volume" alice C.Http.Meth.POST snaps
         ~body:(snap_body "pre-upgrade") ())
  in
  ignore
    (snap_step "carol tries to snapshot (forbidden)" carol C.Http.Meth.POST
       snaps ~body:(snap_body "forbidden") ());
  ignore (snap_step "list snapshots" carol C.Http.Meth.GET snaps ());
  ignore
    (snap_step "delete the snapshot" alice C.Http.Meth.DELETE
       (snaps ^ "/" ^ snap_id) ());

  print_endline "";
  let outcomes = List.rev !outcomes in
  let summary = C.Report.summarize outcomes in
  Fmt.pr "%a@." C.Report.pp_summary summary;
  if summary.C.Report.violations = 0 then
    print_endline "cloud conforms to the models across both services"
  else begin
    print_endline "UNEXPECTED VIOLATIONS:";
    List.iter
      (fun o -> Fmt.pr "  %a@." C.Outcome.pp o)
      (C.Report.violations outcomes);
    exit 1
  end
