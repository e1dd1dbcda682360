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

let fixture ?(mode = Monitor.Oracle) ?engine ?cache ?(gets = ref 0) () =
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
    Monitor.default_config ~mode ?engine ?cache ~service_token:service
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
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        ignore
          (run fx fx.carol Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "x") ());
        let summary = Report.summarize (Monitor.outcomes fx.monitor) in
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
        ignore
          (run fx fx.alice Meth.POST "/v3/myProject/volumes"
             ~body:(volume_body "v") ());
        let json =
          Report.to_json
            (Report.summarize (Monitor.outcomes fx.monitor))
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
    Alcotest.test_case "reset_log clears outcomes" `Quick (fun () ->
        let fx = fixture () in
        ignore (run fx fx.bob Meth.GET "/v3/myProject/volumes" ());
        Monitor.reset_log fx.monitor;
        Alcotest.(check int) "empty" 0 (List.length (Monitor.outcomes fx.monitor)))
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

(* The reference observes the full state of every exchange: no
   footprint pruning and no observation cache, whatever the scope. *)
let reference_tests =
  [ Alcotest.test_case "reference observes the full, uncached state" `Quick
      (fun () ->
        let standard_trace_gets engine cache =
          let gets = ref 0 in
          let fx = fixture ~engine ~cache ~gets () in
          let tokens =
            [ ("alice", fx.alice); ("bob", fx.bob); ("carol", fx.carol) ]
          in
          ignore
            (Cm_mutation.Scenario.run_trace
               { cloud = fx.cloud; monitor = fx.monitor; tokens;
                 clock = Cm_core.Clock.create (); chaos = None }
               Cm_workload.Workload.standard_trace);
          !gets
        in
        let reference = standard_trace_gets Cm_contracts.Runtime.Interpreted in
        let per_request = reference Cm_monitor.Obs_cache.Per_request in
        let production =
          standard_trace_gets Cm_contracts.Runtime.Compiled
            Cm_monitor.Obs_cache.Per_request
        in
        Alcotest.(check bool)
          (Printf.sprintf "reference GETs (%d) exceed production's (%d)"
             per_request production)
          true (per_request > production);
        Alcotest.(check int) "the cache scope does not apply to the reference"
          per_request
          (reference Cm_monitor.Obs_cache.Cross_request))
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
      ("reference", reference_tests)
    ]
