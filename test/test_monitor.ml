(* Tests for the cloud monitor: observation, both modes of the Fig. 2
   workflow, verdicts, coverage, composition. *)

module Cloud = Cm_cloudsim.Cloud
module Identity = Cm_cloudsim.Identity
module Faults = Cm_cloudsim.Faults
module Store = Cm_cloudsim.Store
module Monitor = Cm_monitor.Monitor
module Observer = Cm_monitor.Observer
module Outcome = Cm_monitor.Outcome
module Report = Cm_monitor.Report
module Request = Cm_http.Request
module Response = Cm_http.Response
module Meth = Cm_http.Meth
module Json = Cm_json.Json
module Cinder = Cm_uml.Cinder_model

let security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

type fixture = {
  cloud : Cloud.t;
  monitor : Monitor.t;
  alice : string;
  bob : string;
  carol : string;
  service : string;
}

let fixture ?(mode = Monitor.Oracle) ?cache ?(gets = ref 0) () =
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
    Monitor.default_config ~mode ?cache ~service_token:service
      ~security Cinder.resources Cinder.behavior
  in
  (* [gets] counts the GETs the monitor sends its backend *)
  let backend (req : Request.t) =
    if req.meth = Meth.GET then incr gets;
    Cloud.handle cloud req
  in
  match Monitor.create config backend with
  | Ok monitor ->
    { cloud;
      monitor;
      alice = login "alice" "alice-pw";
      bob = login "bob" "bob-pw";
      carol = login "carol" "carol-pw";
      service
    }
  | Error msgs -> failwith (String.concat "; " msgs)

let volume_body name =
  Json.obj
    [ ("volume", Json.obj [ ("name", Json.string name); ("size", Json.int 10) ]) ]

let run fx token meth path ?body () =
  Monitor.handle fx.monitor
    (Request.make ?body meth path |> Request.with_auth_token token)

let conformance_testable =
  Alcotest.testable Outcome.pp_conformance (fun a b -> a = b)

let observer_tests =
  [ Alcotest.test_case "bindings reflect observable state" `Quick (fun () ->
        let fx = fixture () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        let observer =
          Observer.create_exn ~backend:(Cloud.handle fx.cloud) ~token:fx.service
            ~model:Cinder.resources ~project_id:"myProject"
        in
        let bindings = Observer.observe observer in
        (match List.assoc_opt "project" bindings with
         | Some project ->
           Alcotest.(check (option string)) "project id" (Some "myProject")
             (Option.bind (Json.member "id" project) Json.to_string);
           (match Json.member "volumes" project with
            | Some (Json.List vols) ->
              Alcotest.(check int) "one volume" 1 (List.length vols)
            | _ -> Alcotest.fail "no volumes binding")
         | None -> Alcotest.fail "no project binding");
        (match List.assoc_opt "quota_sets" bindings with
         | Some quota ->
           Alcotest.(check (option int)) "quota" (Some 3)
             (Option.bind (Json.member "volumes" quota) Json.to_int)
         | None -> Alcotest.fail "no quota binding"));
    Alcotest.test_case "volume binding only when id given and exists" `Quick
      (fun () ->
        let fx = fixture () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        let observer =
          Observer.create_exn ~backend:(Cloud.handle fx.cloud) ~token:fx.service
            ~model:Cinder.resources ~project_id:"myProject"
        in
        Alcotest.(check bool) "present" true
          (List.mem_assoc "volume"
             (Observer.observe ~item:("volume", "vol-1") observer));
        Alcotest.(check bool) "absent for ghost" false
          (List.mem_assoc "volume"
             (Observer.observe ~item:("volume", "ghost") observer)));
    Alcotest.test_case "nonexistent project observes as empty" `Quick (fun () ->
        let fx = fixture () in
        let observer =
          Observer.create_exn ~backend:(Cloud.handle fx.cloud) ~token:fx.service
            ~model:Cinder.resources ~project_id:"ghost"
        in
        let env = Observer.env observer in
        Alcotest.(check bool) "invariant of no-project" true
          (Cm_ocl.Eval.check env
             (Cm_ocl.Ocl_parser.parse_exn "project.id->size() = 0")
          = Cm_ocl.Value.True));
    Alcotest.test_case "subject binding from token introspection" `Quick
      (fun () ->
        let fx = fixture () in
        match Observer.subject_binding (Cloud.handle fx.cloud) ~token:fx.bob with
        | Some user ->
          Alcotest.(check (option string)) "role" (Some "member")
            (Option.bind (Json.member "role" user) Json.to_string)
        | None -> Alcotest.fail "no binding");
    Alcotest.test_case "invalid token has no subject binding" `Quick (fun () ->
        let fx = fixture () in
        Alcotest.(check bool) "none" true
          (Observer.subject_binding (Cloud.handle fx.cloud) ~token:"bogus" = None))
  ]

let oracle_tests =
  [ Alcotest.test_case "conform on correct exchange" `Quick (fun () ->
        let fx = fixture () in
        let outcome =
          run fx fx.alice Meth.POST "/v3/myProject/volumes"
            ~body:(volume_body "v") ()
        in
        Alcotest.check conformance_testable "conform" Outcome.Conform
          outcome.Outcome.conformance;
        Alcotest.(check bool) "snapshot small but nonzero" true
          (outcome.Outcome.snapshot_bytes > 0
          && outcome.Outcome.snapshot_bytes < 256));
    Alcotest.test_case "denied unauthorized exchange is conform-denied" `Quick
      (fun () ->
        let fx = fixture () in
        let outcome =
          run fx fx.carol Meth.POST "/v3/myProject/volumes"
            ~body:(volume_body "v") ()
        in
        Alcotest.check conformance_testable "denied" Outcome.Conform_denied
          outcome.Outcome.conformance);
    Alcotest.test_case "security violation when mutant allows" `Quick (fun () ->
        let fx = fixture () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        Cloud.set_faults fx.cloud
          (Faults.of_list [ Faults.Skip_policy_check "volume:delete" ]);
        let outcome = run fx fx.bob Meth.DELETE "/v3/myProject/volumes/vol-1" () in
        Alcotest.check conformance_testable "unauthorized allowed"
          Outcome.Security_unauthorized_allowed outcome.Outcome.conformance);
    Alcotest.test_case "security violation when mutant denies" `Quick (fun () ->
        let fx = fixture () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        (* restrict GET to admin: members/users are wrongly denied while
           the monitor's (admin) observer keeps its view *)
        Cloud.set_faults fx.cloud
          (Faults.of_list
             [ Faults.Policy_override ("volume:get", Cm_rbac.Policy.Role "admin")
             ]);
        let outcome = run fx fx.carol Meth.GET "/v3/myProject/volumes/vol-1" () in
        Alcotest.check conformance_testable "authorized denied"
          Outcome.Security_authorized_denied outcome.Outcome.conformance);
    Alcotest.test_case "post violation on zombie delete" `Quick (fun () ->
        let fx = fixture () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        Cloud.set_faults fx.cloud (Faults.of_list [ Faults.Zombie_delete ]);
        let outcome = run fx fx.alice Meth.DELETE "/v3/myProject/volumes/vol-1" () in
        Alcotest.check conformance_testable "post violated" Outcome.Post_violated
          outcome.Outcome.conformance);
    Alcotest.test_case "bad status flagged" `Quick (fun () ->
        let fx = fixture () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        Cloud.set_faults fx.cloud
          (Faults.of_list [ Faults.Wrong_success_status ("volume:delete", 200) ]);
        let outcome = run fx fx.alice Meth.DELETE "/v3/myProject/volumes/vol-1" () in
        Alcotest.check conformance_testable "bad status"
          Outcome.Functional_bad_status outcome.Outcome.conformance);
    Alcotest.test_case "unmodelled URI is forwarded untouched" `Quick (fun () ->
        let fx = fixture () in
        let outcome =
          run fx fx.alice Meth.GET "/identity/v3/auth/tokens" ()
        in
        Alcotest.check conformance_testable "not monitored"
          Outcome.Not_monitored outcome.Outcome.conformance);
    Alcotest.test_case "method without contract" `Quick (fun () ->
        let fx = fixture () in
        (* DELETE on the quota singleton: modelled URI, no contract *)
        let outcome = run fx fx.alice Meth.DELETE "/v3/myProject/quota_sets" () in
        Alcotest.check conformance_testable "denied by cloud too"
          Outcome.Conform_denied outcome.Outcome.conformance)
  ]

let enforce_tests =
  [ Alcotest.test_case "unauthorized request never reaches the cloud" `Quick
      (fun () ->
        let fx = fixture ~mode:Monitor.Enforce () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        (* open the cloud's policy wide: the monitor must still block *)
        Cloud.set_faults fx.cloud
          (Faults.of_list [ Faults.Skip_policy_check "volume:delete" ]);
        let outcome = run fx fx.carol Meth.DELETE "/v3/myProject/volumes/vol-1" () in
        Alcotest.(check int) "blocked with 403" 403
          outcome.Outcome.response.Response.status;
        Alcotest.(check bool) "cloud never called" true
          (outcome.Outcome.cloud_response = None);
        (* the volume survived because the monitor blocked the call *)
        let show = run fx fx.alice Meth.GET "/v3/myProject/volumes/vol-1" () in
        Alcotest.(check int) "still there" 200
          show.Outcome.response.Response.status);
    Alcotest.test_case "good requests pass through with postcondition check"
      `Quick (fun () ->
        let fx = fixture ~mode:Monitor.Enforce () in
        let outcome =
          run fx fx.alice Meth.POST "/v3/myProject/volumes"
            ~body:(volume_body "v") ()
        in
        Alcotest.(check int) "201" 201 outcome.Outcome.response.Response.status;
        Alcotest.check conformance_testable "conform" Outcome.Conform
          outcome.Outcome.conformance);
    Alcotest.test_case "postcondition violation turns into 500 diagnostic"
      `Quick (fun () ->
        let fx = fixture ~mode:Monitor.Enforce () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        Cloud.set_faults fx.cloud (Faults.of_list [ Faults.Zombie_delete ]);
        let outcome = run fx fx.alice Meth.DELETE "/v3/myProject/volumes/vol-1" () in
        Alcotest.(check int) "500" 500 outcome.Outcome.response.Response.status;
        Alcotest.check conformance_testable "post violated"
          Outcome.Post_violated outcome.Outcome.conformance);
    Alcotest.test_case "method not permitted by the model is 405" `Quick
      (fun () ->
        let fx = fixture ~mode:Monitor.Enforce () in
        let outcome = run fx fx.alice Meth.DELETE "/v3/myProject/quota_sets" () in
        Alcotest.(check int) "405" 405 outcome.Outcome.response.Response.status)
  ]

let reporting_tests =
  [ Alcotest.test_case "coverage counts per requirement" `Quick (fun () ->
        let fx = fixture () in
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        ignore (run fx fx.bob Meth.GET "/v3/myProject/volumes" ());
        let coverage = Monitor.coverage fx.monitor in
        Alcotest.(check (option int)) "1.3 once" (Some 1)
          (List.assoc_opt "1.3" coverage);
        Alcotest.(check (option int)) "1.1 once" (Some 1)
          (List.assoc_opt "1.1" coverage);
        Alcotest.(check (option int)) "1.4 zero" (Some 0)
          (List.assoc_opt "1.4" coverage));
    Alcotest.test_case "summary and render" `Quick (fun () ->
        let fx = fixture () in
        let outcomes =
          [ run fx fx.alice Meth.POST "/v3/myProject/volumes"
              ~body:(volume_body "v") ();
            run fx fx.carol Meth.POST "/v3/myProject/volumes"
              ~body:(volume_body "x") ()
          ]
        in
        let summary = Report.summarize outcomes in
        Alcotest.(check int) "total" 2 summary.Report.total;
        Alcotest.(check int) "conform" 1 summary.Report.conform;
        Alcotest.(check int) "denied" 1 summary.Report.denied;
        Alcotest.(check int) "violations" 0 summary.Report.violations;
        let rendered =
          Report.render summary ~coverage:(Monitor.coverage fx.monitor)
        in
        Alcotest.(check bool) "mentions uncovered" true
          (Astring_contains.contains rendered "NOT COVERED"));
    Alcotest.test_case "summary exports to JSON" `Quick (fun () ->
        let fx = fixture () in
        let outcome =
          run fx fx.alice Meth.POST "/v3/myProject/volumes"
            ~body:(volume_body "v") ()
        in
        let json =
          Report.to_json
            (Report.summarize [ outcome ])
            ~coverage:(Monitor.coverage fx.monitor)
        in
        Alcotest.(check (option int)) "total" (Some 1)
          (Option.bind (Json.member "total" json) Json.to_int);
        (match Json.member "uncovered_requirements" json with
         | Some (Json.List uncovered) ->
           Alcotest.(check int) "1.1 1.2 1.4 uncovered" 3
             (List.length uncovered)
         | _ -> Alcotest.fail "no uncovered list");
        (* and it round-trips through the JSON printer *)
        Alcotest.(check bool) "serializable" true
          (Result.is_ok
             (Cm_json.Parser.parse (Cm_json.Printer.to_string json))));
    Alcotest.test_case "reset_log zeroes coverage" `Quick (fun () ->
        let fx = fixture () in
        ignore (run fx fx.bob Meth.GET "/v3/myProject/volumes" ());
        let ids = List.map fst (Monitor.coverage fx.monitor) in
        Alcotest.(check bool) "exercised" true
          (List.exists (fun (_, n) -> n > 0) (Monitor.coverage fx.monitor));
        Monitor.reset_log fx.monitor;
        Alcotest.(check (list (pair string int)))
          "every requirement back to 0"
          (List.map (fun id -> (id, 0)) ids)
          (Monitor.coverage fx.monitor))
  ]

let composition_tests =
  [ Alcotest.test_case "monitors compose (monitor over monitor)" `Quick
      (fun () ->
        let fx = fixture () in
        let outer_config =
          Monitor.default_config ~service_token:fx.service ~security
            Cinder.resources Cinder.behavior
        in
        match
          Monitor.create outer_config (Monitor.handle_response fx.monitor)
        with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok outer ->
          let outcome =
            Monitor.handle outer
              (Request.make Meth.POST "/v3/myProject/volumes"
                 ~body:(volume_body "v")
              |> Request.with_auth_token fx.alice)
          in
          Alcotest.check conformance_testable "outer conform" Outcome.Conform
            outcome.Outcome.conformance);
    Alcotest.test_case "create rejects broken models with all issues" `Quick
      (fun () ->
        let bad_machine =
          { Cinder.behavior with Cm_uml.Behavior_model.initial = "nowhere" }
        in
        let config =
          Monitor.default_config ~service_token:"t" ~security Cinder.resources
            bad_machine
        in
        match Monitor.create config (fun _ -> Response.no_content) with
        | Error msgs -> Alcotest.(check bool) "has issues" true (msgs <> [])
        | Ok _ -> Alcotest.fail "expected failure")
  ]

(* ---- concurrent interference ---- *)

let interference_tests =
  [ Alcotest.test_case
      "a concurrent writer causes a false alarm without the stability check"
      `Quick (fun () ->
        (* a backend wrapper that sneaks an extra volume into the store on
           every listing GET — a stand-in for another client racing the
           monitor between its observations *)
        let make_noisy_backend cloud =
          let counter = ref 0 in
          fun req ->
            (match Store.find_project (Cloud.store cloud) "myProject" with
             | Some project
               when req.Request.meth = Meth.GET
                    && req.Request.path = "/v3/myProject/volumes" ->
               incr counter;
               ignore
                 (Store.add_volume (Cloud.store cloud) project
                    ~name:(Printf.sprintf "racer-%d" !counter)
                    ~size_gb:1 ())
             | _ -> ());
            Cloud.handle cloud req
        in
        let build ~stability_check =
          let cloud = Cloud.create () in
          Cloud.seed cloud
            { Cloud.my_project with Cm_cloudsim.Cloud.seed_quota_volumes = 100 };
          Identity.add_user (Cloud.identity cloud) ~password:"svc"
            (Cm_rbac.Subject.make "svc" [ "proj_administrator" ]);
          let login user pw =
            match
              Cloud.login cloud ~user ~password:pw ~project_id:"myProject"
            with
            | Ok t -> t
            | Error e -> failwith e
          in
          let service = login "svc" "svc" in
          let config =
            Monitor.default_config ~stability_check ~service_token:service
              ~security Cinder.resources Cinder.behavior
          in
          match Monitor.create config (make_noisy_backend cloud) with
          | Ok monitor -> (cloud, monitor, login "alice" "alice-pw")
          | Error msgs -> failwith (String.concat "; " msgs)
        in
        let delete_under_noise ~stability_check =
          let cloud, monitor, alice = build ~stability_check in
          (* create a volume to delete, directly on the cloud (no noise) *)
          let created =
            Cloud.handle cloud
              (Request.make Meth.POST "/v3/myProject/volumes"
                 ~body:(volume_body "target")
              |> Request.with_auth_token alice)
          in
          let id =
            match created.Response.body with
            | Some body ->
              (match Cm_json.Pointer.get [ Key "volume"; Key "id" ] body with
               | Some (Json.String id) -> id
               | _ -> failwith "no id")
            | None -> failwith "no body"
          in
          Monitor.handle monitor
            (Request.make Meth.DELETE ("/v3/myProject/volumes/" ^ id)
            |> Request.with_auth_token alice)
        in
        (* without the check: the racer makes the count grow, the DELETE
           postcondition (size = pre - 1) fails -> false alarm *)
        let naive = delete_under_noise ~stability_check:false in
        Alcotest.check conformance_testable "false alarm" Outcome.Post_violated
          naive.Outcome.conformance;
        (* with the check: the second observation differs -> undefined *)
        let guarded = delete_under_noise ~stability_check:true in
        (match guarded.Outcome.conformance with
         | Outcome.Undefined _ -> ()
         | other ->
           Alcotest.failf "expected undefined, got %s"
             (Outcome.conformance_to_string other)));
    Alcotest.test_case "stability check is inert on a quiet cloud" `Quick
      (fun () ->
        let fx = fixture () in
        (* rebuild the monitor with the check on, same backend *)
        let config =
          Monitor.default_config ~stability_check:true
            ~service_token:fx.service ~security Cinder.resources
            Cinder.behavior
        in
        match Monitor.create config (Cloud.handle fx.cloud) with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok monitor ->
          let outcome =
            Monitor.handle monitor
              (Request.make Meth.POST "/v3/myProject/volumes"
                 ~body:(volume_body "v")
              |> Request.with_auth_token fx.alice)
          in
          Alcotest.check conformance_testable "conform" Outcome.Conform
            outcome.Outcome.conformance)
  ]

(* ---- attack-surface audit ---- *)

module Audit = Cm_monitor.Audit

let audit_tests =
  [ Alcotest.test_case "cinder surface fully classified, no gaps" `Quick
      (fun () ->
        let fx = fixture () in
        let surface = Audit.surface fx.monitor in
        Alcotest.(check int) "7 URIs x 4 verbs" 28 (List.length surface);
        Alcotest.(check int) "no authorization gaps" 0
          (List.length (Audit.gaps fx.monitor));
        let contracted =
          List.filter
            (fun (c : Audit.cell) ->
              match c.status with Audit.Contracted _ -> true | _ -> false)
            surface
        in
        Alcotest.(check int) "5 contracted cells" 5 (List.length contracted));
    Alcotest.test_case "POST on an item URI is blocked, not the create"
      `Quick (fun () ->
        let fx = fixture () in
        (* via the audit *)
        let cell =
          List.find
            (fun (c : Audit.cell) ->
              c.uri = "/v3/{project_id}/volumes/{volume_id}"
              && c.meth = Meth.POST)
            (Audit.surface fx.monitor)
        in
        Alcotest.(check bool) "blocked" true (cell.status = Audit.Blocked);
        (* and at run time *)
        let outcome =
          run fx fx.alice Meth.POST "/v3/myProject/volumes/vol-1"
            ~body:(volume_body "x") ()
        in
        Alcotest.(check bool) "no contract applied" true
          (outcome.Outcome.conformance = Outcome.Conform_denied
          || outcome.Outcome.conformance = Outcome.Functional_wrongly_accepted));
    Alcotest.test_case "missing security table reported as gaps" `Quick
      (fun () ->
        let fx = fixture () in
        let config =
          Monitor.default_config ~service_token:fx.service Cinder.resources
            Cinder.behavior
        in
        match Monitor.create config (Cloud.handle fx.cloud) with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok unsecured ->
          Alcotest.(check int) "all contracted cells are gaps" 5
            (List.length (Audit.gaps unsecured)));
    Alcotest.test_case "render summarizes" `Quick (fun () ->
        let fx = fixture () in
        let text = Audit.render (Audit.surface fx.monitor) in
        Alcotest.(check bool) "summary line" true
          (Astring_contains.contains text "0 authorization gaps"))
  ]

(* ---- dispatch tables agree with the naive scans they replaced ---- *)

module BM = Cm_uml.Behavior_model
module Uri_template = Cm_http.Uri_template

(* A monitor over a model with a stub backend — [create] never calls the
   backend, and these tests only exercise lookup. *)
let lookup_monitor resources behavior =
  let config = Monitor.default_config ~service_token:"t" resources behavior in
  match
    Monitor.create config (fun _ -> Response.error Cm_http.Status.not_found "")
  with
  | Ok m -> m
  | Error msgs -> failwith (String.concat "; " msgs)

(* The pre-dispatch-table classification: match every entry, keep the
   most specific (stable sort preserves derivation order on ties). *)
let reference_entry entries path =
  let candidates =
    List.filter
      (fun (e : Cm_uml.Paths.entry) ->
        Uri_template.matches e.template path <> None)
      entries
  in
  match
    List.stable_sort
      (fun (a : Cm_uml.Paths.entry) b ->
        Int.compare
          (Uri_template.specificity b.template)
          (Uri_template.specificity a.template))
      candidates
  with
  | [] -> None
  | e :: _ -> Some e

let entry_equal (a : Cm_uml.Paths.entry) (b : Cm_uml.Paths.entry) =
  a.resource = b.resource && a.is_item = b.is_item
  && Uri_template.equal a.template b.template

let sample_paths entries =
  let expanded =
    List.map
      (fun (e : Cm_uml.Paths.entry) ->
        let bindings =
          List.map
            (fun p -> (p, "x-" ^ p))
            (Uri_template.param_names e.template)
        in
        Uri_template.expand_exn e.template bindings)
      entries
  in
  expanded
  @ [ "/"; "/nope"; "/v3"; "/v3/p"; "/v3/p/volumes/v/extra/deep"; "" ]

let dispatch_case name resources behavior =
  Alcotest.test_case name `Quick (fun () ->
      let m = lookup_monitor resources behavior in
      let entries = Monitor.uri_table m in
      (* URI dispatch: table lookup = match-all + sort, on every derived
         URI and on unmatched paths *)
      List.iter
        (fun path ->
          let got = Monitor.entry_for_path m path in
          let expected = reference_entry entries path in
          match got, expected with
          | None, None -> ()
          | Some g, Some e when entry_equal g e -> ()
          | _ ->
            Alcotest.failf "dispatch disagrees on %s: got %s, expected %s"
              path
              (match got with
               | Some (g : Cm_uml.Paths.entry) -> g.resource
               | None -> "none")
              (match expected with
               | Some (e : Cm_uml.Paths.entry) -> e.resource
               | None -> "none"))
        (sample_paths entries);
      (* trigger dispatch: hashed lookup = linear scan over the
         generated contracts, plus misses on foreign triggers *)
      let contracts = Monitor.contracts m in
      let linear trigger =
        List.find_opt
          (fun (c : Cm_contracts.Contract.t) ->
            BM.trigger_equal c.trigger trigger)
          contracts
      in
      let check_trigger trigger =
        let got = Monitor.contract_for_trigger m trigger in
        let expected = linear trigger in
        match got, expected with
        | None, None -> ()
        | Some g, Some e when BM.trigger_equal g.trigger e.trigger -> ()
        | _ ->
          Alcotest.failf "trigger lookup disagrees on %a" BM.pp_trigger
            trigger
      in
      List.iter check_trigger (BM.triggers behavior);
      List.iter check_trigger
        [ { BM.meth = Meth.PATCH; resource = "volume" };
          { BM.meth = Meth.DELETE; resource = "nonexistent" };
          { BM.meth = Meth.POST; resource = "volume:item" }
        ])

let dispatch_tests =
  [ dispatch_case "cinder dispatch tables = naive scans" Cinder.resources
      Cinder.behavior;
    dispatch_case "glance dispatch tables = naive scans"
      Cm_uml.Glance_model.resources Cm_uml.Glance_model.behavior
  ]

(* The reference monitor observes the full state of every exchange
   with plain GETs: no footprint pruning and no observation cache. *)
let reference_tests =
  [ Alcotest.test_case "reference observes the full, uncached state" `Quick
      (fun () ->
        let tokens fx =
          [ ("alice", fx.alice); ("bob", fx.bob); ("carol", fx.carol) ]
        in
        let standard_trace_gets cache =
          let gets = ref 0 in
          let fx = fixture ~cache ~gets () in
          ignore
            (Cm_mutation.Scenario.run_trace
               { cloud = fx.cloud; monitor = fx.monitor; tokens = tokens fx;
                 clock = Cm_core.Clock.create (); chaos = None }
               Cm_workload.Workload.standard_trace);
          !gets
        in
        let reference =
          let fx = fixture () in
          let gets = ref 0 in
          let reference =
            match
              Cm_monitor.Reference.create ~service_token:fx.service ~security
                Cinder.resources Cinder.behavior (fun (req : Request.t) ->
                  if req.meth = Meth.GET then incr gets;
                  Cloud.handle fx.cloud req)
            with
            | Ok r -> r
            | Error msgs -> failwith (String.concat "; " msgs)
          in
          ignore
            (Cm_mutation.Scenario.run_reference
               { rcloud = fx.cloud; reference; rtokens = tokens fx }
               Cm_workload.Workload.standard_trace);
          !gets
        in
        Alcotest.(check int) "reference GETs on the standard trace" 153
          reference;
        List.iter
          (fun (label, scope) ->
            let production = standard_trace_gets scope in
            Alcotest.(check bool)
              (Printf.sprintf "reference GETs (%d) exceed production's (%d, %s)"
                 reference production label)
              true (reference > production))
          [ ("per-request", Cm_monitor.Obs_cache.Per_request);
            ("cross-request", Cm_monitor.Obs_cache.Cross_request)
          ])
  ]

(* ---- the tenant is the model's ----

   The Cinder models with their context resource renamed project ->
   tenant: the resource definition, the associations, the machine's
   context and every OCL variable.  The derived URIs expand to the same
   paths (/v3/{tenant_id}/volumes), so the same cloud serves both, and
   everything keyed on the tenant must follow the model's name. *)

let tenant_name name = if name = "project" then "tenant" else name

(* A fresh copy on every call: the monitor's generation memo is keyed
   on the models' physical identity, so each copy is a triple no earlier
   create has generated. *)
let tenant_models () =
  let resources =
    let open Cm_uml.Resource_model in
    let r = Cinder.resources in
    { r with
      resources =
        List.map (fun d -> { d with def_name = tenant_name d.def_name })
          r.resources;
      associations =
        List.map
          (fun a ->
            { a with
              source = tenant_name a.source;
              target = tenant_name a.target
            })
          r.associations
    }
  in
  let behavior =
    let rename =
      Cm_ocl.Ast.map_vars (fun v -> Cm_ocl.Ast.Var (tenant_name v))
    in
    let b = Cinder.behavior in
    { b with
      BM.context = tenant_name b.BM.context;
      states =
        List.map
          (fun (st : BM.state) -> { st with invariant = rename st.invariant })
          b.states;
      transitions =
        List.map
          (fun (tr : BM.transition) ->
            { tr with
              guard = Option.map rename tr.guard;
              effect = Option.map rename tr.effect
            })
          b.transitions
    }
  in
  (resources, behavior)

let tenant_resources, tenant_behavior = tenant_models ()

let tenant_tests =
  [ Alcotest.test_case "renamed tenant: production = reference" `Quick
      (fun () ->
        let standard_trace run =
          let fx = fixture () in
          let tokens =
            [ ("alice", fx.alice); ("bob", fx.bob); ("carol", fx.carol) ]
          in
          List.map Cm_proptest.Oracle.strict_outcome_key
            (run fx tokens Cm_workload.Workload.standard_trace)
        in
        let production =
          standard_trace (fun fx tokens ->
              let config =
                Monitor.default_config ~service_token:fx.service ~security
                  tenant_resources tenant_behavior
              in
              match Monitor.create config (Cloud.handle fx.cloud) with
              | Error msgs -> Alcotest.fail (String.concat "; " msgs)
              | Ok monitor ->
                Cm_mutation.Scenario.run_trace
                  { cloud = fx.cloud; monitor; tokens;
                    clock = Cm_core.Clock.create (); chaos = None })
        in
        let reference =
          standard_trace (fun fx rtokens ->
              match
                Cm_monitor.Reference.create ~service_token:fx.service
                  ~security tenant_resources tenant_behavior
                  (Cloud.handle fx.cloud)
              with
              | Error msgs -> Alcotest.fail (String.concat "; " msgs)
              | Ok reference ->
                Cm_mutation.Scenario.run_reference
                  { rcloud = fx.cloud; reference; rtokens })
        in
        Alcotest.(check int) "every standard-trace exchange judged"
          (List.length reference) (List.length production);
        List.iteri
          (fun i (want, got) ->
            Alcotest.(check string) (Printf.sprintf "exchange %d" i) want got)
          (List.combine reference production));
    Alcotest.test_case "renamed tenant: shard routing unchanged" `Quick
      (fun () ->
        let route resources behavior =
          match
            Cm_monitor.Shard.create ~shards:4
              (Monitor.default_config ~service_token:"t" ~security resources
                 behavior)
              (fun _ -> Response.error Cm_http.Status.not_found "")
          with
          | Error msgs -> Alcotest.fail (String.concat "; " msgs)
          | Ok pool ->
            List.map
              (fun tenant ->
                Cm_monitor.Shard.shard_of pool
                  (Request.make Meth.GET ("/v3/" ^ tenant ^ "/volumes")))
              [ "tenant-a"; "tenant-b"; "tenant-c" ]
        in
        let original = route Cinder.resources Cinder.behavior in
        Alcotest.(check bool) "the original models spread the tenants" true
          (List.length (List.sort_uniq Int.compare original) >= 2);
        Alcotest.(check (list int)) "renamed models route alike" original
          (route tenant_resources tenant_behavior));
    Alcotest.test_case "renamed tenant: analysis unchanged" `Quick (fun () ->
        let findings resources behavior =
          Cm_analysis.Rules.analyze
            { Cm_analysis.Input.resources; behavior; security = Some security }
          |> List.map (Fmt.str "%a" Cm_lint.Lint.pp_finding)
        in
        Alcotest.(check (list string)) "same findings as the original models"
          (findings Cinder.resources Cinder.behavior)
          (findings tenant_resources tenant_behavior))
  ]

(* ---- one generation per model triple ---- *)

let create_exn config backend =
  match Monitor.create config backend with
  | Ok monitor -> monitor
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)

(* The standard trace on a fresh cloud through [make]'s monitor. *)
let standard_keys make =
  let fx = fixture () in
  let tokens = [ ("alice", fx.alice); ("bob", fx.bob); ("carol", fx.carol) ] in
  Cm_mutation.Scenario.run_trace
    { cloud = fx.cloud;
      monitor = make fx;
      tokens;
      clock = Cm_core.Clock.create ();
      chaos = None
    }
    Cm_workload.Workload.standard_trace
  |> List.map Cm_proptest.Oracle.strict_outcome_key

let zero_stats m =
  Monitor.cache_stats m
  = Some Cm_monitor.Obs_cache.{ hits = 0; misses = 0; invalidated = 0 }
  && Monitor.eval_stats m
     = Cm_contracts.Runtime.
         { evals = 0;
           replays = 0;
           node_hits = 0;
           node_evals = 0;
           refreshes = 0;
           slots_changed = 0
         }
  && List.for_all (fun (_, n) -> n = 0) (Monitor.coverage m)

let serve_volumes fx m =
  ignore
    (Monitor.handle m
       (Request.make Meth.GET "/v3/myProject/volumes"
       |> Request.with_auth_token fx.alice))

let derivation_tests =
  [ Alcotest.test_case "replicas share one derivation" `Quick (fun () ->
        let fx = fixture () in
        let config = Monitor.configuration fx.monitor in
        match
          Cm_monitor.Shard.create ~shards:3 config (Cloud.handle fx.cloud)
        with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok pool ->
          let replica = Cm_monitor.Shard.monitor pool in
          let first = Monitor.contracts (replica 0) in
          for i = 1 to Cm_monitor.Shard.shards pool - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "replica %d's contracts are replica 0's" i)
              true
              (List.for_all2 ( == ) first (Monitor.contracts (replica i)))
          done;
          (* ... and so does every other create over the same models *)
          Alcotest.(check bool) "the fixture's contracts are the pool's" true
            (List.for_all2 ( == ) first (Monitor.contracts fx.monitor));
          (* ... and no run-time state: an exchange on replica 1 leaves
             replica 0's coverage, memo frames and cache untouched *)
          serve_volumes fx (replica 1);
          let exercised m =
            List.exists (fun (_, n) -> n > 0) (Monitor.coverage m)
          in
          Alcotest.(check bool) "replica 1 counted the exchange" true
            (exercised (replica 1));
          Alcotest.(check bool) "replica 0 did not" false
            (exercised (replica 0));
          Alcotest.(check bool) "replica 0's cache is untouched" true
            (Monitor.cache_stats (replica 0)
            = Some
                Cm_monitor.Obs_cache.{ hits = 0; misses = 0; invalidated = 0 });
          Alcotest.(check bool) "replica 0's state is all zero" true
            (zero_stats (replica 0)));
    Alcotest.test_case "independent creates share one generation" `Quick
      (fun () ->
        let fx = fixture () in
        let resources, behavior = tenant_models () in
        let config =
          Monitor.default_config ~service_token:fx.service ~security resources
            behavior
        in
        let backend = Cloud.handle fx.cloud in
        let timed_create () =
          let before = Gc.minor_words () in
          let m = create_exn config backend in
          (m, Gc.minor_words () -. before)
        in
        let first, generated = timed_create () in
        let second, instantiated = timed_create () in
        Alcotest.(check bool) "the second create's contracts are the first's"
          true
          (List.for_all2 ( == ) (Monitor.contracts first)
             (Monitor.contracts second));
        Alcotest.(check bool)
          (Printf.sprintf
             "the second create allocates %.0f words, under 5%% of the \
              first's %.0f"
             instantiated generated)
          true
          (instantiated < 0.05 *. generated);
        serve_volumes fx first;
        Alcotest.(check bool) "the first monitor served" false
          (zero_stats first);
        Alcotest.(check bool)
          "the second's coverage, eval stats and cache are still zero" true
          (zero_stats second));
    Alcotest.test_case "the generation memo pins no model" `Quick (fun () ->
        let fx = fixture () in
        let backend = Cloud.handle fx.cloud in
        let create resources behavior =
          create_exn
            (Monitor.default_config ~service_token:fx.service ~security
               resources behavior)
            backend
        in
        let round () =
          let resources, behavior = tenant_models () in
          serve_volumes fx (create resources behavior)
        in
        let live_words () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        (* one generation's size: a fresh triple and its monitor, held *)
        let generation =
          let base = live_words () in
          let resources, behavior = tenant_models () in
          let monitor = create resources behavior in
          let held = live_words () - base in
          ignore (Sys.opaque_identity (resources, behavior, monitor));
          held
        in
        round ();
        let before = live_words () in
        for _ = 1 to 200 do
          round ()
        done;
        let grown = live_words () - before in
        (* the fixture's own monitor and cloud stay live past the reading *)
        ignore (Sys.opaque_identity fx);
        Alcotest.(check bool)
          (Printf.sprintf
             "live heap grew %d words over 200 generations, under one \
              generation's %d"
             grown generation)
          true (grown < generation));
    Alcotest.test_case "racing creates over one fresh triple" `Quick
      (fun () ->
        let resources, behavior = tenant_models () in
        let make fx =
          create_exn
            (Monitor.default_config ~service_token:fx.service ~security
               resources behavior)
            (Cloud.handle fx.cloud)
        in
        let arrived = Atomic.make 0 in
        let racer () =
          let contracts = ref [] in
          let keys =
            standard_keys (fun fx ->
                Atomic.incr arrived;
                while Atomic.get arrived < 2 do
                  Domain.cpu_relax ()
                done;
                let monitor = make fx in
                contracts := Monitor.contracts monitor;
                monitor)
          in
          (!contracts, keys)
        in
        let domains = List.init 2 (fun _ -> Domain.spawn racer) in
        let raced = List.map Domain.join domains in
        let single = standard_keys make in
        (match raced with
         | [ (first, _); (second, _) ] ->
           Alcotest.(check bool) "the racers share one generation" true
             (List.for_all2 ( == ) first second)
         | _ -> assert false);
        List.iteri
          (fun i (_, keys) ->
            Alcotest.(check (list string))
              (Printf.sprintf "domain %d's outcomes are a single domain's" i)
              single keys)
          raced)
  ]

(* ---- pinned exchange output ----

   Every field of every outcome, one line per exchange, pinned by MD5
   per scenario (as bench/perf/pins.ml pins verdict digests).  The
   [monitor] fuzz oracle compares production with the reference monitor
   on fault-free runs only; these pins also cover what the reference
   does not model (resilience, containment, stability, resume) and
   every field a strict outcome key leaves out.  A pin changes only
   with a deliberate change of monitor output. *)

module Resilience = Cm_monitor.Resilience
module Scenario = Cm_mutation.Scenario
module Mutant = Cm_mutation.Mutant
module Clock = Cm_core.Clock
module Transport = Cm_core.Transport

let render_verdict = function
  | None -> "-"
  | Some verdict -> Fmt.str "%a" Cm_ocl.Eval.pp_verdict verdict

let render_outcome (o : Outcome.t) =
  String.concat " | "
    [ Meth.to_string o.request.Request.meth ^ " " ^ o.request.Request.path;
      Printf.sprintf "%d %s" o.response.Response.status
        (match o.response.Response.body with
         | None -> "-"
         | Some body -> Cm_json.Printer.to_string body);
      Outcome.conformance_to_string o.conformance;
      "pre " ^ render_verdict o.pre_verdict;
      "post " ^ render_verdict o.post_verdict;
      "covered " ^ String.concat "," o.covered_requirements;
      "contract " ^ String.concat "," o.contract_requirements;
      Printf.sprintf "snapshot %d" o.snapshot_bytes;
      "detail " ^ o.detail;
      (match o.cloud_response with
       | None -> "cloud -"
       | Some r -> Printf.sprintf "cloud %d" r.Response.status)
    ]

(* Exhaustive on purpose: a new verdict constructor must be added to
   the coverage check below. *)
let conformance_tag = function
  | Outcome.Conform -> "Conform"
  | Outcome.Conform_denied -> "Conform_denied"
  | Outcome.Security_unauthorized_allowed -> "Security_unauthorized_allowed"
  | Outcome.Security_authorized_denied -> "Security_authorized_denied"
  | Outcome.Functional_wrongly_rejected -> "Functional_wrongly_rejected"
  | Outcome.Functional_wrongly_accepted -> "Functional_wrongly_accepted"
  | Outcome.Functional_bad_status -> "Functional_bad_status"
  | Outcome.Post_violated -> "Post_violated"
  | Outcome.Undefined _ -> "Undefined"
  | Outcome.Degraded _ -> "Degraded"
  | Outcome.Monitor_error _ -> "Monitor_error"
  | Outcome.Not_monitored -> "Not_monitored"

let all_conformance_tags =
  [ "Conform"; "Conform_denied"; "Security_unauthorized_allowed";
    "Security_authorized_denied"; "Functional_wrongly_rejected";
    "Functional_wrongly_accepted"; "Functional_bad_status"; "Post_violated";
    "Undefined"; "Degraded"; "Monitor_error"; "Not_monitored"
  ]

let mode_name = function Monitor.Oracle -> "oracle" | Monitor.Enforce -> "enforce"

(* The standard trace over the Cinder models and the cross trace over
   the cross models, under one mutant's faults (or none). *)
let trace_scenario ~cross ~mode faults () =
  let setup = if cross then Scenario.setup_cross else Scenario.setup in
  match setup ~mode ~faults () with
  | Error msgs -> failwith (String.concat "; " msgs)
  | Ok ctx ->
    Scenario.run_trace ctx
      (if cross then Cm_workload.Workload.cross_trace
       else Cm_workload.Workload.standard_trace)

type step = {
  user : string;
  meth : Meth.t;
  path : string;
  body : Json.t option;
  rid : string option;  (* X-Request-Id *)
}

let step ?body ?rid user meth path = { user; meth; path; body; rid }

(* A Cinder monitor over a seeded cloud whose transport [rig] may slow
   (advancing the virtual clock past the attempt budget), break
   (raising) or race (writing the store) per request before the cloud
   answers.  [forwarded] tells a forwarded request (a user's token)
   from the monitor's own observation reads (the service token). *)
let rigged ?(mode = Monitor.Oracle) ?(degradation = Monitor.Fail_open_logged)
    ?(resilience = Some Resilience.default) ?(stability_check = false)
    ?(faults = Faults.none) ?(quota = 3) ?journal_pre
    ?(rig = fun _ _ ~forwarded:_ _ -> ()) () =
  let clock = Clock.create () in
  let cloud = Cloud.create ~clock () in
  Cloud.seed cloud { Cloud.my_project with Cloud.seed_quota_volumes = quota };
  Identity.add_user (Cloud.identity cloud) ~password:"svc"
    (Cm_rbac.Subject.make "svc" [ "proj_administrator" ]);
  let login user pw =
    match Cloud.login cloud ~user ~password:pw ~project_id:"myProject" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let service = login "svc" "svc" in
  let tokens =
    [ ("alice", login "alice" "alice-pw");
      ("bob", login "bob" "bob-pw");
      ("carol", login "carol" "carol-pw")
    ]
  in
  Cloud.set_faults cloud faults;
  let backend (req : Request.t) =
    rig cloud clock ~forwarded:(Request.auth_token req <> Some service) req;
    Cloud.handle cloud req
  in
  let config =
    Monitor.default_config ~mode ~degradation ?resilience ~stability_check
      ~clock ?journal_pre ~service_token:service ~security Cinder.resources
      Cinder.behavior
  in
  let monitor =
    match Monitor.create config backend with
    | Ok m -> m
    | Error msgs -> failwith (String.concat "; " msgs)
  in
  let request s =
    let headers =
      match s.rid with
      | None -> Cm_http.Headers.empty
      | Some rid -> Cm_http.Headers.replace "X-Request-Id" rid Cm_http.Headers.empty
    in
    Request.make ~headers ?body:s.body s.meth s.path
    |> Request.with_auth_token (List.assoc s.user tokens)
  in
  (config, backend, monitor, request)

let run_steps monitor request steps =
  List.map (fun s -> Monitor.handle monitor (request s)) steps

let fixture_scenario ?mode ?degradation ?resilience ?stability_check ?faults
    ?quota ?rig steps () =
  let _, _, monitor, request =
    rigged ?mode ?degradation ?resilience ?stability_check ?faults ?quota ?rig
      ()
  in
  run_steps monitor request steps

let volumes = "/v3/myProject/volumes"
let vol1 = "/v3/myProject/volumes/vol-1"
let tokens_uri = "/identity/v3/auth/tokens"
let quota_uri = "/v3/myProject/quota_sets"

(* modelled, unmodelled and uncontracted requests by every role *)
let plain_steps =
  [ step "alice" Meth.POST volumes ~body:(volume_body "a");
    step "carol" Meth.POST volumes ~body:(volume_body "c");
    step "bob" Meth.GET volumes;
    step "carol" Meth.GET vol1;
    step "alice" Meth.GET tokens_uri;
    step "alice" Meth.DELETE quota_uri;
    step "alice" Meth.POST vol1 ~body:(volume_body "x");
    step "bob" Meth.DELETE vol1;
    step "alice" Meth.DELETE vol1
  ]

let slow_forward _ clock ~forwarded _ = if forwarded then Clock.advance clock 5_000

(* one forwarded DELETE drops: with one attempt and a breaker threshold
   of one, the next DELETE on the route meets an open circuit *)
let one_dropped_delete () =
  let drops = ref 1 in
  fun _ _ ~forwarded (req : Request.t) ->
    if forwarded && req.Request.meth = Meth.DELETE && !drops > 0 then begin
      decr drops;
      raise Transport.Connection_reset
    end

let one_shot =
  Some
    { Resilience.default with Resilience.max_attempts = 1;
      breaker_threshold = 1
    }

(* [blind_after_forward]: GETs of the project document outlive every
   attempt, from the start or once a forwarded request reached the
   cloud *)
let blind_project ~after_forward () =
  let blind = ref (not after_forward) in
  fun _ clock ~forwarded (req : Request.t) ->
    if forwarded then blind := true;
    if !blind && req.Request.path = "/v3/myProject" then
      Clock.advance clock 5_000

(* another client racing the monitor: a volume appears behind every
   listing read *)
let racer () =
  let n = ref 0 in
  fun cloud _ ~forwarded:_ (req : Request.t) ->
    match Store.find_project (Cloud.store cloud) "myProject" with
    | Some project when req.Request.meth = Meth.GET && req.Request.path = volumes
      ->
      incr n;
      ignore
        (Store.add_volume (Cloud.store cloud) project
           ~name:(Printf.sprintf "racer-%d" !n) ~size_gb:1 ())
    | _ -> ()

(* Crash recovery's re-entry: a second monitor over the same cloud
   finishes every journaled exchange of the first from its pre-image.
   The cloud dedups the re-forward by X-Request-Id. *)
let resume_scenario ~mode () =
  let images = ref [] in
  let current = ref None in
  let _, backend, monitor, request =
    rigged ~mode ~resilience:None
      ~journal_pre:(fun image ->
        images := (Option.get !current, image) :: !images)
      ()
  in
  let steps =
    [ step "alice" Meth.POST volumes ~body:(volume_body "a") ~rid:"r1";
      step "carol" Meth.POST volumes ~body:(volume_body "c") ~rid:"r2";
      step "bob" Meth.GET volumes ~rid:"r3";
      step "alice" Meth.DELETE vol1 ~rid:"r4"
    ]
  in
  let live =
    List.map
      (fun s ->
        let req = request s in
        current := Some req;
        Monitor.handle monitor req)
      steps
  in
  let restarted =
    match
      Monitor.create
        { (Monitor.configuration monitor) with Monitor.journal_pre = None }
        backend
    with
    | Ok m -> m
    | Error msgs -> failwith (String.concat "; " msgs)
  in
  live
  @ List.rev_map
      (fun (req, image) -> Monitor.resume restarted req image)
      !images

let exchange_scenarios =
  let modes = [ Monitor.Oracle; Monitor.Enforce ] in
  let traces =
    List.concat_map
      (fun (trace, cross) ->
        List.concat_map
          (fun mode ->
            List.map
              (fun (name, faults) ->
                ( Printf.sprintf "%s/%s/%s" trace (mode_name mode) name,
                  trace_scenario ~cross ~mode faults ))
              (("baseline", Faults.none)
              :: List.map
                   (fun (m : Mutant.t) -> (m.Mutant.name, m.Mutant.faults))
                   Mutant.all_extended))
          modes)
      [ ("standard", false); ("cross", true) ]
  in
  let per_mode name f =
    List.map (fun mode -> (name ^ "/" ^ mode_name mode, f mode)) modes
  in
  let degradations =
    [ ("fail-open", Monitor.Fail_open_logged);
      ("fail-closed", Monitor.Fail_closed)
    ]
  in
  traces
  @ per_mode "plain" (fun mode ->
        fixture_scenario ~mode ~resilience:None plain_steps)
  @ per_mode "outcome-unknown" (fun mode ->
        fixture_scenario ~mode ~rig:slow_forward plain_steps)
  @ List.concat_map
      (fun (dname, degradation) ->
        per_mode ("circuit-open/" ^ dname) (fun mode () ->
            fixture_scenario ~mode ~degradation ~resilience:one_shot
              ~rig:(one_dropped_delete ())
              [ step "alice" Meth.POST volumes ~body:(volume_body "a");
                step "alice" Meth.DELETE vol1;
                step "alice" Meth.DELETE vol1;
                step "alice" Meth.DELETE quota_uri;
                step "bob" Meth.GET volumes
              ]
              ())
        @ per_mode ("dead/" ^ dname) (fun mode ->
              fixture_scenario ~mode ~degradation ~resilience:one_shot
                ~rig:(fun _ _ ~forwarded:_ _ -> raise Transport.Connection_reset)
                [ step "alice" Meth.GET volumes;
                  step "alice" Meth.GET volumes;
                  step "alice" Meth.GET tokens_uri;
                  step "alice" Meth.DELETE quota_uri;
                  step "alice" Meth.POST volumes ~body:(volume_body "a")
                ]))
      degradations
  @ List.concat_map
      (fun (name, after_forward) ->
        per_mode name (fun mode () ->
            fixture_scenario ~mode ~rig:(blind_project ~after_forward ())
              [ step "alice" Meth.POST volumes ~body:(volume_body "v");
                step "bob" Meth.GET volumes
              ]
              ()))
      [ ("pre-unobservable", false); ("post-unobservable", true) ]
  @ per_mode "contained/observe" (fun mode ->
        fixture_scenario ~mode ~resilience:None
          ~rig:(fun _ _ ~forwarded:_ _ -> failwith "boom")
          [ step "alice" Meth.GET volumes; step "alice" Meth.GET tokens_uri ])
  @ per_mode "contained/forward" (fun mode ->
        fixture_scenario ~mode ~resilience:None
          ~rig:(fun _ _ ~forwarded _ -> if forwarded then failwith "boom")
          [ step "alice" Meth.GET volumes ])
  @ per_mode "contained/transport" (fun mode ->
        fixture_scenario ~mode ~resilience:None
          ~rig:(fun _ _ ~forwarded:_ _ -> raise Transport.Connection_reset)
          [ step "alice" Meth.GET volumes ])
  @ List.concat_map
      (fun stability_check ->
        let label = if stability_check then "on" else "off" in
        per_mode ("stability-" ^ label ^ "/racer") (fun mode () ->
            fixture_scenario ~mode ~resilience:None ~stability_check
              ~quota:100 ~rig:(racer ())
              [ step "alice" Meth.POST volumes ~body:(volume_body "a");
                step "alice" Meth.DELETE vol1;
                step "bob" Meth.GET volumes
              ]
              ())
        @ per_mode ("stability-" ^ label ^ "/zombie") (fun mode ->
              fixture_scenario ~mode ~resilience:None ~stability_check
                ~faults:(Faults.of_list [ Faults.Zombie_delete ])
                [ step "alice" Meth.POST volumes ~body:(volume_body "a");
                  step "alice" Meth.DELETE vol1
                ]))
      [ false; true ]
  @ per_mode "resume" (fun mode -> resume_scenario ~mode)

(* scenario name, MD5 of its rendered exchanges *)
let exchange_pins =
  {|
standard/oracle/baseline cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/M1-delete-privilege-escalation 14cba1fb5886ebad87aeda0abf2feac8
standard/oracle/M2-update-check-missing 3ff9f6c231db43d1c43ed31e5727cbd6
standard/oracle/M3-get-wrongly-denied 16f061513a02a6ad39009877c5a1cead
standard/oracle/M4-quota-ignored e8b80507d7110b5704e63723b114c6c2
standard/oracle/M5-delete-in-use-allowed 72d3e6229e46fe6f36153460800c8929
standard/oracle/M6-wrong-delete-status 6ea8d3cbd35450b426f9e953526af992
standard/oracle/M7-phantom-create d8cbdb32f8fa26d0930bd6544f7da25a
standard/oracle/M8-zombie-delete 6f5766b6b813d321994685b91c1a5be7
standard/oracle/M9-create-open-to-all 46ce8e68160fc45f52edcea847d061c5
standard/oracle/M10-list-wrongly-denied bc91abcefadc8556afd60c22166ec90c
standard/oracle/X1-attach-missing-volume-ok cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/X2-attach-busy-volume-ok cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/X3-attach-ghost-server-ok cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/X4-detach-noop cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/X5-image-backing-unchecked cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/X6-image-delete-backing-allowed cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/X7-zombie-token cb44a1dbaa1ca3fd7370c270f7d8754d
standard/oracle/X8-server-delete-leaks-attachments cb44a1dbaa1ca3fd7370c270f7d8754d
standard/enforce/baseline 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/M1-delete-privilege-escalation 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/M2-update-check-missing 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/M3-get-wrongly-denied 6a36396f2730bb97b7dbf4ce54bd739d
standard/enforce/M4-quota-ignored 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/M5-delete-in-use-allowed 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/M6-wrong-delete-status f9b14635dbf4efe4dffe7e60509d8a20
standard/enforce/M7-phantom-create 28d451e7e7afd2012c849c4462f86bef
standard/enforce/M8-zombie-delete 88ab9c7b82be29fe7b5a6e39e8b8d022
standard/enforce/M9-create-open-to-all 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/M10-list-wrongly-denied a658f7f8662533961cddad57bfcfda02
standard/enforce/X1-attach-missing-volume-ok 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/X2-attach-busy-volume-ok 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/X3-attach-ghost-server-ok 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/X4-detach-noop 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/X5-image-backing-unchecked 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/X6-image-delete-backing-allowed 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/X7-zombie-token 104fbed452e0e5a8f1e1bc527752587a
standard/enforce/X8-server-delete-leaks-attachments 104fbed452e0e5a8f1e1bc527752587a
cross/oracle/baseline af8f0cc2b85f34c03e6afbb6946bf4d0
cross/oracle/M1-delete-privilege-escalation 4e4b64583b13ac6b6f37a52240e1de8a
cross/oracle/M2-update-check-missing 72fe8120e91662b6a5457cf5a411bdeb
cross/oracle/M3-get-wrongly-denied 2adebd9a17730484f07b118a160a4b8a
cross/oracle/M4-quota-ignored 14661170e380dac4436624a84959f0b8
cross/oracle/M5-delete-in-use-allowed 8c5e5ab177ce7bda2e2bab86a3a493fc
cross/oracle/M6-wrong-delete-status 1008878612bbd179e528eb0094883d2f
cross/oracle/M7-phantom-create 1859229f05bf9d2fa4db70250515c7a5
cross/oracle/M8-zombie-delete 02a990e3c841c0333f8cde090df18460
cross/oracle/M9-create-open-to-all e0be6afdfb93e1ded1755547a25a5412
cross/oracle/M10-list-wrongly-denied c7936eec4f5ce50a5fb78a80c0d71dbe
cross/oracle/X1-attach-missing-volume-ok cfa53f12c29eb7f9ea9467e17fadbe91
cross/oracle/X2-attach-busy-volume-ok 0c6708addd484ae5447ad66febccc7f3
cross/oracle/X3-attach-ghost-server-ok 89e868eb905761dd410c136c5f6abb53
cross/oracle/X4-detach-noop ef575b5d1ae8aad847253ce97bc17c1c
cross/oracle/X5-image-backing-unchecked e85d4a1416ea32455a8b64974ea25b73
cross/oracle/X6-image-delete-backing-allowed 7f9c3ec7ff68bb95abdd199df333b293
cross/oracle/X7-zombie-token 909dcca326734bc71dfde280a40ebf98
cross/oracle/X8-server-delete-leaks-attachments 9837282b2a53795b77a7b3ad0a687f3d
cross/enforce/baseline 3ba990a61f266c62776fd860c9f133b1
cross/enforce/M1-delete-privilege-escalation 3ba990a61f266c62776fd860c9f133b1
cross/enforce/M2-update-check-missing 3ba990a61f266c62776fd860c9f133b1
cross/enforce/M3-get-wrongly-denied 2057e5137c31f749def59e18a6e648dd
cross/enforce/M4-quota-ignored 3ba990a61f266c62776fd860c9f133b1
cross/enforce/M5-delete-in-use-allowed 3ba990a61f266c62776fd860c9f133b1
cross/enforce/M6-wrong-delete-status 195eca1b30249139ff80301d657831d0
cross/enforce/M7-phantom-create 76776d7931da552d7bae743ca3b4b7e0
cross/enforce/M8-zombie-delete c2b37ebcf4e5ea8b18f7e1c1a564e7a5
cross/enforce/M9-create-open-to-all 3ba990a61f266c62776fd860c9f133b1
cross/enforce/M10-list-wrongly-denied fdeb5c622e3ef2bf5f4f84eb609125df
cross/enforce/X1-attach-missing-volume-ok 3ba990a61f266c62776fd860c9f133b1
cross/enforce/X2-attach-busy-volume-ok 3ba990a61f266c62776fd860c9f133b1
cross/enforce/X3-attach-ghost-server-ok 3ba990a61f266c62776fd860c9f133b1
cross/enforce/X4-detach-noop 5db2991062aaf2d1c5e5d943108e7a3e
cross/enforce/X5-image-backing-unchecked 3ba990a61f266c62776fd860c9f133b1
cross/enforce/X6-image-delete-backing-allowed 3ba990a61f266c62776fd860c9f133b1
cross/enforce/X7-zombie-token 3ba990a61f266c62776fd860c9f133b1
cross/enforce/X8-server-delete-leaks-attachments edcbb64c20358fd6569bd7c210a697a7
plain/oracle 84c1007a247b3199c27d8b13316998f8
plain/enforce d928bbcd977476b9ea5d930c71030e0b
outcome-unknown/oracle 9e152aa49a91dc1367c9224e7da3e284
outcome-unknown/enforce a3d0fd52c2054da7701024cc8ee35bf8
circuit-open/fail-open/oracle 1555fb82158c098119f2fcd253003e32
circuit-open/fail-open/enforce 34a3dd6772dcbc036b938bea59405538
dead/fail-open/oracle fac1a4c0e9a2fe350700eadbd4c7a34f
dead/fail-open/enforce d10ab17e4bda3333e5cb12b0d44e152c
circuit-open/fail-closed/oracle bf436d8c448169f3f3125d1bbaea480f
circuit-open/fail-closed/enforce a52ecaa68abf3ab8cbf9c2b9ab730be9
dead/fail-closed/oracle 84551939888714a9e9c5ec0b5713eea0
dead/fail-closed/enforce 3ddd11f3a82ab41f2c9c39b616b576d0
pre-unobservable/oracle ac32a5e5056210f20efdcd1541727a55
pre-unobservable/enforce b3952cd0bc9c3cd3fb74a05459401f3e
post-unobservable/oracle 4d24ded2275fa3c6ccc3abc4fc50d7a3
post-unobservable/enforce 54943569f2e0582e9447f22423ba5e23
contained/observe/oracle cfb1d9c09d61151d15ccd2db497a6b3b
contained/observe/enforce cfb1d9c09d61151d15ccd2db497a6b3b
contained/forward/oracle a89ac99fc0b868a3365c2aa3e9f67be0
contained/forward/enforce a89ac99fc0b868a3365c2aa3e9f67be0
contained/transport/oracle d4090061e29a59319d0ea0fe60ab8eb1
contained/transport/enforce d4090061e29a59319d0ea0fe60ab8eb1
stability-off/racer/oracle 7d786a5c3e4573e1a2f1f27473a03b1f
stability-off/racer/enforce cd7572189641f49616ade3cd967b8381
stability-off/zombie/oracle 0f4def77e1aa8f375fba22e63e620fc3
stability-off/zombie/enforce 3b183b7d2cbdde7fe719d224e06c451c
stability-on/racer/oracle b4fc94fc6ed23435e25e54c6a8a73f37
stability-on/racer/enforce 0753941ec48ce6e932d4a9f276b6ca71
stability-on/zombie/oracle 0f4def77e1aa8f375fba22e63e620fc3
stability-on/zombie/enforce 3b183b7d2cbdde7fe719d224e06c451c
resume/oracle 459eb46f985ed16faf6885b4869a09ad
resume/enforce 2a05912d8af7007e47258878acc3ce3c
|}
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; digest ] -> Some (name, digest)
         | _ -> None)

let exchange_runs =
  lazy
    (List.map
       (fun (name, run) -> (name, run ()))
       exchange_scenarios)

let exchange_pin_tests =
  List.map
    (fun (name, _) ->
      Alcotest.test_case name `Quick (fun () ->
          let outcomes = List.assoc name (Lazy.force exchange_runs) in
          let lines = List.map render_outcome outcomes in
          let digest = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
          match List.assoc_opt name exchange_pins with
          | Some pin when pin = digest -> ()
          | pin ->
            Alcotest.failf "%s: digest %s, pinned %s; exchanges:\n%s" name
              digest
              (Option.value pin ~default:"none")
              (String.concat "\n" lines)))
    exchange_scenarios
  @ [ Alcotest.test_case "every verdict constructor is pinned" `Quick
        (fun () ->
          let seen =
            List.concat_map
              (fun (_, outcomes) ->
                List.map
                  (fun (o : Outcome.t) -> conformance_tag o.Outcome.conformance)
                  outcomes)
              (Lazy.force exchange_runs)
          in
          List.iter
            (fun tag ->
              Alcotest.(check bool) (tag ^ " appears") true (List.mem tag seen))
            all_conformance_tags)
    ]

(* The monitor holds no per-exchange state: under reads whose answers
   do not grow, its live heap stays flat however much traffic it
   serves.  The caller drops every outcome. *)
let memory_tests =
  [ Alcotest.test_case "monitor memory does not grow with traffic" `Quick
      (fun () ->
        let ctx =
          match
            Scenario.setup_cross ~mode:Monitor.Enforce
              ~cache:Cm_monitor.Obs_cache.Cross_request ()
          with
          | Ok ctx -> ctx
          | Error msgs -> failwith (String.concat "; " msgs)
        in
        let reads =
          [| volumes; "/v3/myProject/volumes/vol-ghost";
             "/v3/myProject/servers"
          |]
        in
        let serve n =
          for i = 1 to n do
            ignore
              (Scenario.request ctx ~user:"alice" Meth.GET
                 reads.(i mod Array.length reads) ())
          done
        in
        let live_bytes () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
        in
        let requests = 8_000 in
        serve 2_000;
        let before = live_bytes () in
        serve requests;
        let after = live_bytes () in
        (* one more request keeps the monitor reachable past the second
           reading, so the collector cannot free it, and whatever it
           holds, before that reading *)
        serve 1;
        let per_request =
          float_of_int (after - before) /. float_of_int requests
        in
        Alcotest.(check bool)
          (Printf.sprintf "live heap growth %.1f B per request < 64"
             per_request)
          true (per_request < 64.))
  ]

let () =
  Alcotest.run "cm_monitor"
    [ ("observer", observer_tests);
      ("oracle", oracle_tests);
      ("enforce", enforce_tests);
      ("reporting", reporting_tests);
      ("composition", composition_tests);
      ("interference", interference_tests);
      ("audit", audit_tests);
      ("dispatch", dispatch_tests);
      ("reference", reference_tests);
      ("tenant", tenant_tests);
      ("derivation", derivation_tests);
      ("exchanges", exchange_pin_tests);
      ("memory", memory_tests)
    ]
