(* Model-based test generation (§III: "we can use several existing
   model-based testing approaches"): the behavioral model and security
   table are compiled into an executable test campaign — transition
   coverage, authorization probes, and behavioural boundary cases — with
   the cloud monitor acting as the oracle (§III-B, user 4).

   The campaign runs twice: against the correct cloud (everything
   passes) and against a mutated cloud (the generated probes find the
   bug), finishing with the fault-localization report produced from the
   monitoring trace.

   Run with: dune exec examples/generated_tests.exe *)

module C = Cloudmon

let machine = C.Uml.Cinder_model.behavior
let table = C.Rbac.Security_table.cinder
let assignment = C.Rbac.Security_table.cinder_assignment

let () =
  let cases = C.Testgen.Plan.all machine ~table ~assignment in
  Printf.printf "generated %d test cases from the models:\n"
    (List.length cases);
  List.iter (fun case -> Fmt.pr "  %a@." C.Testgen.Case.pp case) cases;

  print_endline "";
  print_endline "== campaign against the correct cloud ==";
  let report =
    C.Testgen.Execute.run ~table ~machine
      C.Testgen.Generic_driver.(driver cinder_spec)
      cases
  in
  print_string (C.Testgen.Execute.render report);

  print_endline "";
  print_endline
    "== campaign against a mutated cloud (M1: DELETE opened to members) ==";
  match C.Mutation.Mutant.find "M1-delete-privilege-escalation" with
  | None -> prerr_endline "mutant missing"
  | Some mutant ->
    let report =
      C.Testgen.Execute.run ~table ~machine
        C.Testgen.Generic_driver.(
          driver ~faults:mutant.C.Mutation.Mutant.faults cinder_spec)
        cases
    in
    print_string (C.Testgen.Execute.render report);
    if report.C.Testgen.Execute.bugs > 0 then
      print_endline "\nthe generated probes killed the mutant."
    else begin
      print_endline "\nMUTANT SURVIVED";
      exit 1
    end
