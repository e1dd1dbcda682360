(* Tests for the second worked example: the Glance-like image service,
   its models, its monitor, and dual-service monitoring. *)

module Cloud = Cm_cloudsim.Cloud
module Identity = Cm_cloudsim.Identity
module Faults = Cm_cloudsim.Faults
module Monitor = Cm_monitor.Monitor
module Outcome = Cm_monitor.Outcome
module Request = Cm_http.Request
module Response = Cm_http.Response
module Meth = Cm_http.Meth
module Json = Cm_json.Json
module Glance = Cm_uml.Glance_model
module BM = Cm_uml.Behavior_model

let glance_security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.glance;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let cinder_security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

(* A Glance observation sample for the semantic analysis. *)
let glance_sample =
  let image i status =
    Json.obj
      [ ("id", Json.string (Printf.sprintf "img-%d" i));
        ("name", Json.string "img");
        ("status", Json.string status);
        ("visibility", Json.string "private");
        ("size", Json.int 512)
      ]
  in
  let states = ref [] in
  for quota = 1 to 3 do
    for n = 0 to quota do
      let mixes =
        if n = 0 then [ [] ]
        else
          [ List.init n (fun i -> image i "queued");
            image 0 "active" :: List.init (n - 1) (fun i -> image (i + 1) "queued")
          ]
      in
      List.iter
        (fun images ->
          states :=
            Cm_ocl.Eval.env_of_bindings
              [ ( "project",
                  Json.obj
                    [ ("id", Json.string "p");
                      ("images", Json.list images)
                    ] );
                ( "quota_sets",
                  Json.obj
                    [ ("id", Json.string "p"); ("images", Json.int quota) ] );
                ( "image",
                  match images with first :: _ -> first | [] -> Json.obj [] );
                ( "user",
                  Json.obj
                    [ ( "groups",
                        Json.list [ Json.string "proj_administrator" ] )
                    ] )
              ]
            :: !states)
        mixes
    done
  done;
  !states

let model_tests =
  [ Alcotest.test_case "glance models are well-formed" `Quick (fun () ->
        let issues = Cm_uml.Validate.all Glance.resources [ Glance.behavior ] in
        if issues <> [] then
          Alcotest.failf "issues: %a"
            Fmt.(list ~sep:(any "; ") Cm_lint.Lint.pp_finding)
            issues);
    Alcotest.test_case "glance model is semantically clean" `Quick (fun () ->
        let findings = Cm_uml.Analysis.analyze Glance.behavior glance_sample in
        if findings <> [] then
          Alcotest.failf "findings: %a"
            Fmt.(list ~sep:(any "; ") Cm_uml.Analysis.pp_finding)
            findings);
    Alcotest.test_case "URI table" `Quick (fun () ->
        match Cm_uml.Paths.derive Glance.resources with
        | Error msg -> Alcotest.fail msg
        | Ok entries ->
          Alcotest.(check bool) "images collection" true
            (List.exists
               (fun (e : Cm_uml.Paths.entry) ->
                 Cm_http.Uri_template.to_string e.template
                 = "/v3/{project_id}/images")
               entries));
    Alcotest.test_case "contracts generate and typecheck" `Quick (fun () ->
        match
          Cm_contracts.Generate.all ~security:glance_security Glance.behavior
        with
        | Error msg -> Alcotest.fail msg
        | Ok contracts ->
          Alcotest.(check int) "five triggers" 5 (List.length contracts);
          List.iter
            (fun c ->
              Alcotest.(check (list string)) "no type errors" []
                (List.map
                   (Fmt.str "%a" Cm_ocl.Typecheck.pp_error)
                   (Cm_contracts.Generate.typecheck Glance.resources c)))
            contracts)
  ]

(* ---- a monitored glance deployment ---- *)

type fixture = {
  cloud : Cloud.t;
  monitor : Monitor.t;
  alice : string;
  bob : string;
  carol : string;
}

let fixture ?(mode = Monitor.Oracle) () =
  let cloud = Cloud.create () in
  Cloud.seed cloud Cloud.my_project;
  Identity.add_user (Cloud.identity cloud) ~password:"svc"
    (Cm_rbac.Subject.make "svc" [ "proj_administrator" ]);
  let login user pw =
    match Cloud.login cloud ~user ~password:pw ~project_id:"myProject" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let service = login "svc" "svc" in
  let config =
    Monitor.default_config ~mode ~service_token:service
      ~security:glance_security Glance.resources Glance.behavior
  in
  match Monitor.create config (Cloud.handle cloud) with
  | Ok monitor ->
    { cloud;
      monitor;
      alice = login "alice" "alice-pw";
      bob = login "bob" "bob-pw";
      carol = login "carol" "carol-pw"
    }
  | Error msgs -> failwith (String.concat "; " msgs)

let image_body name =
  Json.obj
    [ ("image", Json.obj [ ("name", Json.string name); ("size", Json.int 512) ]) ]

let status_body status =
  Json.obj [ ("image", Json.obj [ ("status", Json.string status) ]) ]

let run fx token meth path ?body () =
  Monitor.handle fx.monitor
    (Request.make ?body meth path |> Request.with_auth_token token)

let conformance_testable =
  Alcotest.testable Outcome.pp_conformance (fun a b -> a = b)

let base = "/v3/myProject/images"

let monitoring_tests =
  [ Alcotest.test_case "image lifecycle conforms" `Quick (fun () ->
        let fx = fixture () in
        let created = run fx fx.alice Meth.POST base ~body:(image_body "web") () in
        Alcotest.check conformance_testable "create" Outcome.Conform
          created.Outcome.conformance;
        let id =
          match created.Outcome.cloud_response with
          | Some { Response.body = Some body; _ } ->
            (match Cm_json.Pointer.get [ Key "image"; Key "id" ] body with
             | Some (Json.String id) -> id
             | _ -> "img-1")
          | _ -> "img-1"
        in
        let path = base ^ "/" ^ id in
        List.iter
          (fun (label, step) ->
            let outcome = step () in
            Alcotest.check conformance_testable label Outcome.Conform
              outcome.Outcome.conformance)
          [ ("list", fun () -> run fx fx.carol Meth.GET base ());
            ("show", fun () -> run fx fx.bob Meth.GET path ());
            ( "activate",
              fun () -> run fx fx.bob Meth.PUT path ~body:(status_body "active") () );
            ( "deactivate",
              fun () ->
                run fx fx.alice Meth.PUT path ~body:(status_body "deactivated") () );
            ("delete", fun () -> run fx fx.alice Meth.DELETE path ())
          ]);
    Alcotest.test_case "active image delete is conform-denied" `Quick (fun () ->
        let fx = fixture () in
        ignore (run fx fx.alice Meth.POST base ~body:(image_body "a") ());
        ignore
          (run fx fx.alice Meth.PUT (base ^ "/img-1")
             ~body:(status_body "active") ());
        let outcome = run fx fx.alice Meth.DELETE (base ^ "/img-1") () in
        Alcotest.check conformance_testable "denied" Outcome.Conform_denied
          outcome.Outcome.conformance);
    Alcotest.test_case "image quota enforced and observed" `Quick (fun () ->
        let fx = fixture () in
        ignore (run fx fx.alice Meth.POST base ~body:(image_body "1") ());
        ignore (run fx fx.alice Meth.POST base ~body:(image_body "2") ());
        let outcome = run fx fx.alice Meth.POST base ~body:(image_body "3") () in
        Alcotest.(check int) "413" 413
          outcome.Outcome.response.Response.status;
        Alcotest.check conformance_testable "denied" Outcome.Conform_denied
          outcome.Outcome.conformance);
    Alcotest.test_case "image listing filters and paginates" `Quick (fun () ->
        let fx = fixture () in
        ignore (run fx fx.alice Meth.POST base ~body:(image_body "a") ());
        ignore (run fx fx.alice Meth.POST base ~body:(image_body "b") ());
        ignore
          (run fx fx.bob Meth.PUT (base ^ "/img-1")
             ~body:(status_body "active") ());
        let count query =
          let resp =
            Cm_cloudsim.Cloud.handle fx.cloud
              (Request.make Meth.GET (base ^ query)
              |> Request.with_auth_token fx.alice)
          in
          match resp.Response.body with
          | Some body ->
            (match Json.member "images" body with
             | Some (Json.List items) -> List.length items
             | _ -> -1)
          | None -> -1
        in
        Alcotest.(check int) "all" 2 (count "");
        Alcotest.(check int) "active only" 1 (count "?status=active");
        Alcotest.(check int) "limit" 1 (count "?limit=1");
        Alcotest.(check int) "private" 2 (count "?visibility=private"));
    Alcotest.test_case "plain user cannot create images" `Quick (fun () ->
        let fx = fixture () in
        let outcome = run fx fx.carol Meth.POST base ~body:(image_body "x") () in
        Alcotest.check conformance_testable "denied" Outcome.Conform_denied
          outcome.Outcome.conformance);
    Alcotest.test_case "image authorization mutant killed" `Quick (fun () ->
        let fx = fixture () in
        ignore (run fx fx.alice Meth.POST base ~body:(image_body "x") ());
        Cloud.set_faults fx.cloud
          (Faults.of_list [ Faults.Skip_policy_check "image:delete" ]);
        let outcome = run fx fx.bob Meth.DELETE (base ^ "/img-1") () in
        Alcotest.check conformance_testable "killed"
          Outcome.Security_unauthorized_allowed outcome.Outcome.conformance);
    Alcotest.test_case "SecReq 2.x coverage" `Quick (fun () ->
        let fx = fixture () in
        ignore (run fx fx.alice Meth.POST base ~body:(image_body "x") ());
        ignore (run fx fx.carol Meth.GET base ());
        let coverage = Monitor.coverage fx.monitor in
        Alcotest.(check (option int)) "2.3" (Some 1)
          (List.assoc_opt "2.3" coverage);
        Alcotest.(check (option int)) "2.1" (Some 1)
          (List.assoc_opt "2.1" coverage);
        Alcotest.(check (option int)) "2.4 uncovered" (Some 0)
          (List.assoc_opt "2.4" coverage))
  ]

let dual_service_tests =
  [ Alcotest.test_case "cinder and glance monitors stack over one cloud"
      `Quick (fun () ->
        let cloud = Cloud.create () in
        Cloud.seed cloud Cloud.my_project;
        Identity.add_user (Cloud.identity cloud) ~password:"svc"
          (Cm_rbac.Subject.make "svc" [ "proj_administrator" ]);
        let login user pw =
          match Cloud.login cloud ~user ~password:pw ~project_id:"myProject" with
          | Ok t -> t
          | Error e -> failwith e
        in
        let service = login "svc" "svc" in
        let glance_monitor =
          match
            Monitor.create
              (Monitor.default_config ~service_token:service
                 ~security:glance_security Glance.resources Glance.behavior)
              (Cloud.handle cloud)
          with
          | Ok m -> m
          | Error msgs -> failwith (String.concat "; " msgs)
        in
        (* the Cinder monitor sits in front, forwarding volume traffic to
           the cloud and image traffic through the Glance monitor *)
        let glance_outcomes = ref [] in
        let cinder_monitor =
          match
            Monitor.create
              (Monitor.default_config ~service_token:service
                 ~security:cinder_security Cm_uml.Cinder_model.resources
                 Cm_uml.Cinder_model.behavior)
              (fun req ->
                let outcome = Monitor.handle glance_monitor req in
                glance_outcomes := outcome :: !glance_outcomes;
                outcome.Outcome.response)
          with
          | Ok m -> m
          | Error msgs -> failwith (String.concat "; " msgs)
        in
        let alice = login "alice" "alice-pw" in
        let through req = Monitor.handle cinder_monitor req in
        let volume =
          through
            (Request.make Meth.POST "/v3/myProject/volumes"
               ~body:
                 (Json.obj
                    [ ( "volume",
                        Json.obj
                          [ ("name", Json.string "v"); ("size", Json.int 1) ]
                      )
                    ])
            |> Request.with_auth_token alice)
        in
        Alcotest.check conformance_testable "volume conform" Outcome.Conform
          volume.Outcome.conformance;
        let image =
          through
            (Request.make Meth.POST base ~body:(image_body "i")
            |> Request.with_auth_token alice)
        in
        (* image traffic is not in the Cinder models: passed through and
           judged by the Glance monitor behind *)
        Alcotest.check conformance_testable "outer: not monitored"
          Outcome.Not_monitored image.Outcome.conformance;
        Alcotest.(check bool) "inner judged it" true
          (List.exists
             (fun (o : Outcome.t) ->
               o.request.Request.path = base
               && o.conformance = Outcome.Conform)
             !glance_outcomes))
  ]

let () =
  Alcotest.run "cm_glance"
    [ ("models", model_tests);
      ("monitoring", monitoring_tests);
      ("dual-service", dual_service_tests)
    ]
