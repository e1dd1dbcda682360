(* Tests for model-based test generation: plans, adaptive execution, and
   the generated suite's bug-finding power. *)

module Plan = Cm_testgen.Plan
module Case = Cm_testgen.Case
module Execute = Cm_testgen.Execute
module Driver = Cm_testgen.Generic_driver
module Mutant = Cm_mutation.Mutant
module BM = Cm_uml.Behavior_model
module Meth = Cm_http.Meth
module Cinder = Cm_uml.Cinder_model

let table = Cm_rbac.Security_table.cinder
let assignment = Cm_rbac.Security_table.cinder_assignment

let plan_tests =
  [ Alcotest.test_case "shortest paths" `Quick (fun () ->
        (match Plan.shortest_path Cinder.behavior ~to_state:Cinder.s_no_volume with
         | Some [] -> ()
         | _ -> Alcotest.fail "initial state should need no steps");
        (match Plan.shortest_path Cinder.behavior ~to_state:Cinder.s_full with
         | Some path ->
           (* the direct quota=1 POST edge makes it one abstract step *)
           Alcotest.(check int) "one abstract step" 1 (List.length path)
         | None -> Alcotest.fail "full state unreachable");
        (match
           Plan.shortest_path_from Cinder.behavior ~from:Cinder.s_full
             ~to_state:Cinder.s_no_volume
         with
         | Some path ->
           Alcotest.(check int) "back down" 2 (List.length path)
         | None -> Alcotest.fail "no path down"));
    Alcotest.test_case "unreachable states reported" `Quick (fun () ->
        Alcotest.(check (list string)) "none in cinder" []
          (Plan.unreachable Cinder.behavior);
        let machine =
          { Cinder.behavior with
            BM.states =
              Cinder.behavior.BM.states
              @ [ BM.state "island" (Cm_ocl.Ast.Bool_lit false) ]
          }
        in
        Alcotest.(check (list string)) "island" [ "island" ]
          (Plan.unreachable machine));
    Alcotest.test_case "positive cases: one per transition x allowed role"
      `Quick (fun () ->
        let cases = Plan.positive_cases Cinder.behavior ~table ~assignment in
        (* 14 transitions; roles per trigger: POST 2, DELETE 1, GET(volume) 3,
           GET(Volumes) 3, PUT 2 *)
        let expected =
          (4 * 2) (* POST *) + (3 * 1) (* DELETE *) + (2 * 3)
          (* GET volume *) + (3 * 3) (* GET Volumes *) + (2 * 2)
          (* PUT *)
        in
        Alcotest.(check int) "count" expected (List.length cases);
        Alcotest.(check bool) "all Allowed" true
          (List.for_all (fun c -> c.Case.expectation = Case.Allowed) cases));
    Alcotest.test_case "negative cases: forbidden roles per trigger" `Quick
      (fun () ->
        let cases = Plan.negative_cases Cinder.behavior ~table ~assignment in
        (* POST: user; DELETE: member,user; GET: none; PUT: user *)
        Alcotest.(check int) "count" 4 (List.length cases);
        Alcotest.(check bool) "all denials" true
          (List.for_all
             (fun c -> c.Case.expectation = Case.Denied_authorization)
             cases));
    Alcotest.test_case "boundary cases: trigger not enabled in state" `Quick
      (fun () ->
        let cases = Plan.boundary_cases Cinder.behavior ~table ~assignment in
        (* POST in s_full; GET(volume)/PUT/DELETE in s_no_volume *)
        Alcotest.(check int) "count" 4 (List.length cases);
        Alcotest.(check bool) "POST at full quota present" true
          (List.exists
             (fun c ->
               c.Case.target.BM.trigger.meth = Meth.POST
               && c.Case.target.BM.source = Cinder.s_full)
             cases))
  ]

let execution_tests =
  [ Alcotest.test_case "correct cloud: all cases pass or skip" `Quick (fun () ->
        let cases = Plan.all Cinder.behavior ~table ~assignment in
        let report =
          Execute.run ~table ~machine:Cinder.behavior Driver.(driver cinder_spec) cases
        in
        Alcotest.(check int) "no bugs" 0 report.Execute.bugs;
        Alcotest.(check int) "no unexpected" 0 report.Execute.unexpected;
        Alcotest.(check int) "passes" 35 report.Execute.passed;
        Alcotest.(check int) "skips (unconcretizable boundaries)" 3
          report.Execute.skipped);
    Alcotest.test_case "adaptive driving reaches the full-quota state" `Quick
      (fun () ->
        (* the abstract path to s_full has 2 edges but needs 3 POSTs; a
           passing DELETE-from-full case proves the driver got there *)
        let cases =
          Plan.positive_cases Cinder.behavior ~table ~assignment
          |> List.filter (fun c ->
                 c.Case.target.BM.trigger.meth = Meth.DELETE
                 && c.Case.target.BM.source = Cinder.s_full)
        in
        Alcotest.(check int) "one such case" 1 (List.length cases);
        let report =
          Execute.run ~table ~machine:Cinder.behavior Driver.(driver cinder_spec) cases
        in
        Alcotest.(check int) "passed" 1 report.Execute.passed);
    Alcotest.test_case "generated suite kills the paper mutants" `Slow
      (fun () ->
        let cases = Plan.all Cinder.behavior ~table ~assignment in
        List.iter
          (fun m ->
            let report =
              Execute.run ~table ~machine:Cinder.behavior
                Driver.(driver ~faults:m.Mutant.faults cinder_spec)
                cases
            in
            Alcotest.(check bool) (m.Mutant.name ^ " killed") true
              (report.Execute.bugs > 0))
          Mutant.paper_mutants);
    Alcotest.test_case "generated suite kills the quota mutant (boundary)"
      `Slow (fun () ->
        match Mutant.find "M4-quota-ignored" with
        | None -> Alcotest.fail "missing mutant"
        | Some m ->
          let cases = Plan.boundary_cases Cinder.behavior ~table ~assignment in
          let report =
            Execute.run ~table ~machine:Cinder.behavior
              Driver.(driver ~faults:m.Mutant.faults cinder_spec)
              cases
          in
          Alcotest.(check bool) "killed" true (report.Execute.bugs > 0));
    Alcotest.test_case "render mentions failures" `Quick (fun () ->
        match Mutant.find "M1-delete-privilege-escalation" with
        | None -> Alcotest.fail "missing mutant"
        | Some m ->
          let cases = Plan.negative_cases Cinder.behavior ~table ~assignment in
          let report =
            Execute.run ~table ~machine:Cinder.behavior
              Driver.(driver ~faults:m.Mutant.faults cinder_spec)
              cases
          in
          Alcotest.(check bool) "bug found" true (report.Execute.bugs > 0);
          Alcotest.(check bool) "rendered" true
            (Astring_contains.contains (Execute.render report) "CLOUD BUG"))
  ]

let generic_driver_tests =
  [ Alcotest.test_case "generic driver reproduces the Cinder results" `Slow
      (fun () ->
        let cases = Plan.all Cinder.behavior ~table ~assignment in
        let report =
          Execute.run ~table ~machine:Cinder.behavior
            (Cm_testgen.Generic_driver.driver Cm_testgen.Generic_driver.cinder_spec)
            cases
        in
        Alcotest.(check int) "no bugs" 0 report.Execute.bugs;
        Alcotest.(check int) "passes" 35 report.Execute.passed);
    Alcotest.test_case "generated campaign runs on the Glance models too"
      `Slow (fun () ->
        let glance_table = Cm_rbac.Security_table.glance in
        let machine = Cm_uml.Glance_model.behavior in
        let cases = Plan.all machine ~table:glance_table ~assignment in
        Alcotest.(check bool) "cases generated" true (List.length cases > 20);
        let report =
          Execute.run ~table:glance_table ~machine
            (Cm_testgen.Generic_driver.driver Cm_testgen.Generic_driver.glance_spec)
            cases
        in
        Alcotest.(check int) "no bugs" 0 report.Execute.bugs;
        Alcotest.(check int) "no unexpected" 0 report.Execute.unexpected;
        Alcotest.(check bool) "mostly passing" true
          (report.Execute.passed > 20));
    Alcotest.test_case "generic driver kills an image mutant" `Slow (fun () ->
        let glance_table = Cm_rbac.Security_table.glance in
        let machine = Cm_uml.Glance_model.behavior in
        let cases = Plan.negative_cases machine ~table:glance_table ~assignment in
        let faults =
          Cm_cloudsim.Faults.of_list
            [ Cm_cloudsim.Faults.Skip_policy_check "image:delete" ]
        in
        let report =
          Execute.run ~table:glance_table ~machine
            (Cm_testgen.Generic_driver.driver ~faults
               Cm_testgen.Generic_driver.glance_spec)
            cases
        in
        Alcotest.(check bool) "killed" true (report.Execute.bugs > 0))
  ]

let () =
  Alcotest.run "cm_testgen"
    [ ("plan", plan_tests);
      ("execute", execution_tests);
      ("generic-driver", generic_driver_tests)
    ]
