(* Tests for the mutation experiment (§VI-D): the paper's three mutants
   are killed, the baseline is clean, the extended catalog is killed. *)

module Mutant = Cm_mutation.Mutant
module Campaign = Cm_mutation.Campaign
module Scenario = Cm_mutation.Scenario
module Outcome = Cm_monitor.Outcome

let catalog_tests =
  [ Alcotest.test_case "three paper mutants" `Quick (fun () ->
        Alcotest.(check int) "three" 3 (List.length Mutant.paper_mutants);
        List.iter
          (fun m -> Alcotest.(check bool) m.Mutant.name true m.Mutant.from_paper)
          Mutant.paper_mutants);
    Alcotest.test_case "names are unique" `Quick (fun () ->
        let names = List.map (fun m -> m.Mutant.name) Mutant.all in
        Alcotest.(check int) "no dups" (List.length names)
          (List.length (List.sort_uniq String.compare names)));
    Alcotest.test_case "find" `Quick (fun () ->
        Alcotest.(check bool) "found" true
          (Mutant.find "M1-delete-privilege-escalation" <> None);
        Alcotest.(check bool) "absent" true (Mutant.find "M99" = None))
  ]

let baseline_tests =
  [ Alcotest.test_case "baseline run is violation-free" `Quick (fun () ->
        match Campaign.run_one None with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok result ->
          Alcotest.(check bool) "clean" false result.Campaign.killed;
          Alcotest.(check bool) "ran the workload" true
            (result.Campaign.exchanges > 10));
    Alcotest.test_case "baseline covers every requirement" `Quick (fun () ->
        match Scenario.setup () with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok ctx ->
          ignore
            (Scenario.run_trace ctx Cm_workload.Workload.standard_trace);
          let coverage =
            Cm_monitor.Monitor.coverage ctx.Scenario.monitor
          in
          List.iter
            (fun (req_id, count) ->
              Alcotest.(check bool) ("SecReq " ^ req_id) true (count > 0))
            coverage)
  ]

let paper_result_tests =
  [ Alcotest.test_case "all three paper mutants killed (the paper's result)"
      `Slow (fun () ->
        match Campaign.run Mutant.paper_mutants with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok results ->
          Alcotest.(check bool) "all killed, baseline clean" true
            (Campaign.all_killed results));
    Alcotest.test_case "authorization mutants die by security verdicts" `Slow
      (fun () ->
        let expected =
          [ ("M1-delete-privilege-escalation", "SECURITY:unauthorized-request-allowed");
            ("M2-update-check-missing", "SECURITY:unauthorized-request-allowed");
            ("M3-get-wrongly-denied", "SECURITY:authorized-request-denied")
          ]
        in
        List.iter
          (fun (name, expected_verdict) ->
            match Mutant.find name with
            | None -> Alcotest.failf "mutant %s missing" name
            | Some m ->
              (match Campaign.run_one (Some m) with
               | Error msgs -> Alcotest.fail (String.concat "; " msgs)
               | Ok result ->
                 Alcotest.(check bool) (name ^ " killed") true result.Campaign.killed;
                 Alcotest.(check bool)
                   (name ^ " has verdict " ^ expected_verdict)
                   true
                   (List.exists
                      (fun (o : Outcome.t) ->
                        Outcome.conformance_to_string o.conformance
                        = expected_verdict)
                      result.Campaign.violations)))
          expected)
  ]

let extended_tests =
  [ Alcotest.test_case "extended catalog killed" `Slow (fun () ->
        match Campaign.run Mutant.extended_mutants with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok results ->
          List.iter
            (fun (r : Campaign.result) ->
              match r.mutant with
              | None -> Alcotest.(check bool) "baseline clean" false r.killed
              | Some m ->
                Alcotest.(check bool) (m.Mutant.name ^ " killed") true r.killed)
            results);
    Alcotest.test_case "campaign exports to JSON" `Slow (fun () ->
        match Campaign.run Mutant.paper_mutants with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok results ->
          let json = Campaign.to_json results in
          Alcotest.(check (option bool)) "all killed" (Some true)
            (Option.bind
               (Cm_json.Json.member "all_killed" json)
               Cm_json.Json.to_bool);
          (match Cm_json.Json.member "runs" json with
           | Some (Cm_json.Json.List runs) ->
             Alcotest.(check int) "baseline + 3" 4 (List.length runs)
           | _ -> Alcotest.fail "no runs"));
    Alcotest.test_case "kill matrix renders every row" `Slow (fun () ->
        match Campaign.run Mutant.paper_mutants with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok results ->
          let matrix = Campaign.kill_matrix results in
          List.iter
            (fun m ->
              Alcotest.(check bool) m.Mutant.name true
                (Astring_contains.contains matrix m.Mutant.name))
            Mutant.paper_mutants;
          Alcotest.(check bool) "baseline row" true
            (Astring_contains.contains matrix "baseline"))
  ]

let oracle_independence_tests =
  [ Alcotest.test_case "enforce mode also blocks what oracle flags" `Quick
      (fun () ->
        (* Under M1, oracle mode flags the escalation; enforce mode must
           prevent it outright. *)
        match Mutant.find "M1-delete-privilege-escalation" with
        | None -> Alcotest.fail "mutant missing"
        | Some m ->
          (match
             Scenario.setup ~mode:Cm_monitor.Monitor.Enforce
               ~faults:m.Mutant.faults ()
           with
           | Error msgs -> Alcotest.fail (String.concat "; " msgs)
           | Ok ctx ->
             let outcomes =
               Scenario.run_trace ctx Cm_workload.Workload.standard_trace
             in
             (* No security violation can be *observed* because the
                monitor blocks the forbidden calls before the cloud. *)
             Alcotest.(check bool) "no unauthorized-allowed observed" true
               (not
                  (List.exists
                     (fun (o : Outcome.t) ->
                       o.conformance = Outcome.Security_unauthorized_allowed)
                     outcomes))))
  ]

let explorer_tests =
  [ Alcotest.test_case "random walk on a correct cloud never violates" `Slow
      (fun () ->
        List.iter
          (fun seed ->
            match
              Cm_mutation.Explorer.run
                ~config:{ Cm_mutation.Explorer.seed; steps = 120 }
                ()
            with
            | Error msgs -> Alcotest.fail (String.concat "; " msgs)
            | Ok result ->
              Alcotest.(check int)
                (Printf.sprintf "seed %d clean" seed)
                0
                (List.length result.Cm_mutation.Explorer.violations);
              Alcotest.(check bool) "walk did something" true
                (result.Cm_mutation.Explorer.exchanges > 50))
          [ 1; 7; 42 ]);
    Alcotest.test_case "random walk is deterministic in its seed" `Quick
      (fun () ->
        let run () =
          match
            Cm_mutation.Explorer.run
              ~config:{ Cm_mutation.Explorer.seed = 5; steps = 60 }
              ()
          with
          | Ok r -> (r.Cm_mutation.Explorer.exchanges, r.verdict_counts, r.actions_tried)
          | Error msgs -> failwith (String.concat "; " msgs)
        in
        Alcotest.(check bool) "same trace summary" true (run () = run ()));
    Alcotest.test_case "random walk finds the escalation mutant" `Slow
      (fun () ->
        match Mutant.find "M1-delete-privilege-escalation" with
        | None -> Alcotest.fail "missing mutant"
        | Some m ->
          (match
             Cm_mutation.Explorer.run
               ~config:{ Cm_mutation.Explorer.seed = 3; steps = 200 }
               ~faults:m.Mutant.faults ()
           with
           | Error msgs -> Alcotest.fail (String.concat "; " msgs)
           | Ok result ->
             Alcotest.(check bool) "violations found" true
               (result.Cm_mutation.Explorer.violations <> [])))
  ]

let () =
  Alcotest.run "cm_mutation"
    [ ("catalog", catalog_tests);
      ("baseline", baseline_tests);
      ("paper-result", paper_result_tests);
      ("extended", extended_tests);
      ("enforce", oracle_independence_tests);
      ("explorer", explorer_tests)
    ]
