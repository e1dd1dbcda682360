(* Tests for trace serialization and fault localization. *)

module Trace = Cm_monitor.Trace
module Outcome = Cm_monitor.Outcome
module Scenario = Cm_mutation.Scenario
module Mutant = Cm_mutation.Mutant

let outcomes_of faults =
  match Scenario.setup ~faults () with
  | Error msgs -> failwith (String.concat "; " msgs)
  | Ok ctx -> Scenario.run_trace ctx Cm_workload.Workload.standard_trace

let trace_tests =
  [ Alcotest.test_case "jsonl round-trip preserves the analyzed fields" `Quick
      (fun () ->
        let outcomes = outcomes_of Cm_cloudsim.Faults.none in
        match Trace.of_jsonl (Trace.to_jsonl outcomes) with
        | Error msg -> Alcotest.fail msg
        | Ok decoded ->
          Alcotest.(check int) "count" (List.length outcomes)
            (List.length decoded);
          List.iter2
            (fun (a : Outcome.t) (b : Outcome.t) ->
              Alcotest.(check string) "conformance"
                (Outcome.conformance_to_string a.conformance)
                (Outcome.conformance_to_string b.conformance);
              Alcotest.(check int) "status" a.response.Cm_http.Response.status
                b.response.Cm_http.Response.status;
              Alcotest.(check string) "path" a.request.Cm_http.Request.path
                b.request.Cm_http.Request.path;
              Alcotest.(check (list string)) "requirements"
                a.covered_requirements b.covered_requirements)
            outcomes decoded);
    Alcotest.test_case "tokens never leak into traces" `Quick (fun () ->
        let outcomes = outcomes_of Cm_cloudsim.Faults.none in
        let text = Trace.to_jsonl outcomes in
        Alcotest.(check bool) "no token text" false
          (Astring_contains.contains text "tok-"));
    Alcotest.test_case "malformed jsonl reported with line number" `Quick
      (fun () ->
        match Trace.of_jsonl "{\"method\": \"GET\"}\nnot json\n" with
        | Error msg ->
          Alcotest.(check bool) "line number" true
            (Astring_contains.contains msg "line 1"
            || Astring_contains.contains msg "line 2")
        | Ok _ -> Alcotest.fail "expected error")
  ]

let localize_tests =
  [ Alcotest.test_case "clean run localizes nothing" `Quick (fun () ->
        let outcomes = outcomes_of Cm_cloudsim.Faults.none in
        Alcotest.(check int) "no suspects" 0
          (List.length (Trace.localize outcomes)));
    Alcotest.test_case "mutant violations group by request shape" `Quick
      (fun () ->
        match Mutant.find "M1-delete-privilege-escalation" with
        | None -> Alcotest.fail "missing mutant"
        | Some m ->
          let outcomes = outcomes_of m.Mutant.faults in
          let suspects = Trace.localize outcomes in
          Alcotest.(check bool) "at least one suspect" true (suspects <> []);
          let first = List.hd suspects in
          Alcotest.(check bool) "DELETE implicated" true
            (Astring_contains.contains first.Trace.trigger "DELETE");
          Alcotest.(check bool) "ids abstracted" true
            (Astring_contains.contains first.Trace.trigger "{id}");
          Alcotest.(check bool) "requirement traced" true
            (List.mem "1.4" first.Trace.requirements);
          Alcotest.(check bool) "rendered" true
            (Astring_contains.contains
               (Trace.render_localization suspects)
               "DELETE"))
  ]

let () =
  Alcotest.run "cm_trace"
    [ ("serialization", trace_tests); ("localization", localize_tests) ]
