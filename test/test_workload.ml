(* Tests for the workload DSL and the cross-service scenario suite.

   The determinism contract — same (mix, seed) => bit-identical trace —
   is checked over 1000 cases; the cross-service contracts are checked
   by a full kill matrix over the extended mutant catalog under
   production and the reference monitor, several domain counts, and
   every chaos profile. *)

module Workload = Cm_workload.Workload
module Exec = Cm_workload.Exec
module Mutant = Cm_mutation.Mutant
module Campaign = Cm_mutation.Campaign
module Scenario = Cm_mutation.Scenario
module Monitor = Cm_monitor.Monitor
module Outcome = Cm_monitor.Outcome
module Chaos = Cm_cloudsim.Chaos

let require_ctx = function
  | Ok ctx -> ctx
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)

let conformance_strings =
  List.map (fun (o : Outcome.t) ->
      Outcome.conformance_to_string o.Outcome.conformance)

let conformances ctx =
  conformance_strings (Monitor.outcomes ctx.Scenario.monitor)

(* The cross workload through the production monitor and through the
   reference monitor, on clouds with the same faults. *)
let production_and_reference ?faults () =
  let ctx = require_ctx (Scenario.setup_cross ?faults ()) in
  Scenario.cross ctx;
  let rctx = require_ctx (Scenario.setup_reference ~cross:true ?faults ()) in
  ignore (Scenario.run_reference rctx Workload.cross_trace);
  ( conformances ctx,
    conformance_strings (Cm_monitor.Reference.outcomes rctx.Scenario.reference)
  )

let violations ctx =
  Cm_monitor.Report.violations (Monitor.outcomes ctx.Scenario.monitor)

(* ---- the determinism contract ---- *)

let cases = 1000

let dsl_tests =
  [ Alcotest.test_case
      (Printf.sprintf "same (mix, seed) => bit-identical trace (%d cases)" cases)
      `Quick (fun () ->
        let renders =
          Array.init cases (fun case ->
              let mix = List.nth Workload.mixes (case mod 5) in
              let seed = case in
              let first = Workload.render (mix.Workload.compile ~seed) in
              let again = Workload.render (mix.Workload.compile ~seed) in
              Alcotest.(check string)
                (Printf.sprintf "%s/%d recompiles identically"
                   mix.Workload.mix_name seed)
                first again;
              first)
        in
        (* recompile in reverse order: compilation must not depend on
           hidden global state *)
        for case = cases - 1 downto 0 do
          let mix = List.nth Workload.mixes (case mod 5) in
          Alcotest.(check string)
            (Printf.sprintf "%s/%d order-independent" mix.Workload.mix_name case)
            renders.(case)
            (Workload.render (mix.Workload.compile ~seed:case))
        done);
    Alcotest.test_case "fingerprint witnesses render equality" `Quick (fun () ->
        List.iter
          (fun (mix : Workload.mix) ->
            let a = mix.Workload.compile ~seed:7 in
            let b = mix.Workload.compile ~seed:7 in
            Alcotest.(check string) mix.Workload.mix_name
              (Workload.fingerprint a) (Workload.fingerprint b))
          Workload.mixes);
    Alcotest.test_case "seed changes seeded mixes" `Quick (fun () ->
        List.iter
          (fun (mix : Workload.mix) ->
            Alcotest.(check bool) mix.Workload.mix_name false
              (String.equal
                 (Workload.render (mix.Workload.compile ~seed:0))
                 (Workload.render (mix.Workload.compile ~seed:1))))
          [ Workload.read_heavy; Workload.churn_heavy; Workload.adversarial ]);
    Alcotest.test_case "scripted mixes ignore the seed" `Quick (fun () ->
        List.iter
          (fun (mix : Workload.mix) ->
            Alcotest.(check string) mix.Workload.mix_name
              (Workload.render (mix.Workload.compile ~seed:0))
              (Workload.render (mix.Workload.compile ~seed:42)))
          [ Workload.standard; Workload.cross ]);
    Alcotest.test_case "mix catalog" `Quick (fun () ->
        Alcotest.(check int) "five mixes" 5 (List.length Workload.mixes);
        let names = List.map (fun m -> m.Workload.mix_name) Workload.mixes in
        Alcotest.(check int) "unique names" (List.length names)
          (List.length (List.sort_uniq String.compare names));
        Alcotest.(check bool) "find read-heavy" true
          (Workload.find "read-heavy" <> None);
        Alcotest.(check bool) "find unknown" true (Workload.find "nope" = None));
    Alcotest.test_case "cross trace extends the standard trace" `Quick
      (fun () ->
        let std = Workload.standard_trace and cross = Workload.cross_trace in
        Alcotest.(check bool) "longer" true
          (List.length cross > List.length std);
        let prefix = List.filteri (fun i _ -> i < List.length std) cross in
        Alcotest.(check string) "standard is a prefix" (Workload.render std)
          (Workload.render prefix));
    Alcotest.test_case "static compilation is deterministic" `Quick (fun () ->
        let st =
          { Exec.st_project = "myProject";
            st_token = (fun _ -> "tok");
            st_stable_volumes = [ "v1"; "v2" ];
            st_victim_volumes = [ "d1" ]
          }
        in
        let trace = Workload.read_heavy_trace ~steps:64 ~victims:1 ~seed:3 in
        let render reqs =
          String.concat "\n"
            (List.map
               (fun (r : Cm_http.Request.t) ->
                 Cm_http.Meth.to_string r.meth ^ " " ^ r.path)
               reqs)
        in
        Alcotest.(check string) "same requests"
          (render (Exec.requests st trace))
          (render (Exec.requests st trace)));
    Alcotest.test_case "malformed trace text is an error" `Quick (fun () ->
        List.iter
          (fun text ->
            match Workload.of_line text with
            | Ok _ -> Alcotest.failf "%S parsed" text
            | Error _ -> ())
          [ "admin"; "root list-volumes"; "admin list-volumes extra";
            "admin list-volumes;"; "admin show-volume fresh:x";
            "admin show-volume live:0"; "admin rename-volume fresh:0 \"a";
            "admin create-volume #0 \"\\q\" size=1";
            "admin create-volume #0 \"a\" size=1 from=ghost:0" ];
        (* every truncation of a valid line is a value, never an
           exception *)
        let line = Workload.to_line Workload.cross_trace in
        for n = 0 to String.length line do
          ignore (Workload.of_line (String.sub line 0 n))
        done)
  ]

(* ---- cross-service baseline ---- *)

let baseline_tests =
  [ Alcotest.test_case "cross baseline is violation-free" `Quick (fun () ->
        match Campaign.run_cross_one None with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok result ->
          Alcotest.(check bool) "clean" false result.Campaign.killed;
          Alcotest.(check bool) "ran the full workload" true
            (result.Campaign.exchanges > 40));
    Alcotest.test_case "cross baseline covers the 2.x and 3.x requirements"
      `Quick (fun () ->
        let ctx = require_ctx (Scenario.setup_cross ()) in
        Scenario.cross ctx;
        let coverage = Monitor.coverage ctx.Scenario.monitor in
        List.iter
          (fun req_id ->
            match List.assoc_opt req_id coverage with
            | Some n -> Alcotest.(check bool) ("SecReq " ^ req_id) true (n > 0)
            | None -> Alcotest.fail ("SecReq " ^ req_id ^ " not covered"))
          [ "1.1"; "1.2"; "1.3"; "1.4"; "2.1"; "2.2"; "2.3"; "2.4";
            "3.1"; "3.2"; "3.5"; "3.6"
          ]);
    Alcotest.test_case "seeded mixes run violation-free on a correct cloud"
      `Slow (fun () ->
        List.iter
          (fun (mix : Workload.mix) ->
            let ctx = require_ctx (Scenario.setup_cross ()) in
            let issued =
              Scenario.run_trace ctx (mix.Workload.compile ~seed:7)
            in
            Alcotest.(check bool)
              (mix.Workload.mix_name ^ " issued requests")
              true (issued > 0);
            Alcotest.(check int)
              (mix.Workload.mix_name ^ " violation-free")
              0
              (List.length (violations ctx)))
          [ Workload.read_heavy; Workload.churn_heavy; Workload.adversarial ])
  ]

(* ---- verdict determinism across monitors and domains ---- *)

let determinism_tests =
  [ Alcotest.test_case
      "cross verdict sequence identical under production and the reference"
      `Quick (fun () ->
        let production, reference = production_and_reference () in
        Alcotest.(check (list string)) "same verdicts" reference production);
    Alcotest.test_case
      "mutant verdict sequence identical under production and the reference"
      `Quick (fun () ->
        let faults = (List.hd Mutant.cross_mutants).Mutant.faults in
        let production, reference = production_and_reference ~faults () in
        Alcotest.(check (list string)) "same verdicts" reference production);
    Alcotest.test_case "kill matrix identical at 1, 2 and 4 domains" `Slow
      (fun () ->
        let summarise results =
          List.map
            (fun (r : Campaign.result) ->
              ( (match r.Campaign.mutant with
                 | None -> "baseline"
                 | Some m -> m.Mutant.name),
                r.Campaign.killed,
                r.Campaign.exchanges,
                Option.value ~default:"-" r.Campaign.first_violation ))
            results
        in
        let at domains =
          match Campaign.run_cross ~domains Mutant.all_extended with
          | Ok results -> summarise results
          | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        in
        let reference = at 1 in
        List.iter
          (fun domains ->
            List.iter2
              (fun (n1, k1, e1, v1) (n2, k2, e2, v2) ->
                let label = Printf.sprintf "%s @ %d domains" n1 domains in
                Alcotest.(check string) label n1 n2;
                Alcotest.(check bool) (label ^ " killed") k1 k2;
                Alcotest.(check int) (label ^ " exchanges") e1 e2;
                Alcotest.(check string) (label ^ " verdict") v1 v2)
              reference (at domains))
          [ 2; 4 ])
  ]

(* ---- the kill matrix ---- *)

let kill_tests =
  [ Alcotest.test_case "cross mutants are in the catalog" `Quick (fun () ->
        Alcotest.(check int) "eight" 8 (List.length Mutant.cross_mutants);
        Alcotest.(check int) "extended = all + cross"
          (List.length Mutant.all + 8)
          (List.length Mutant.all_extended);
        let names = List.map (fun m -> m.Mutant.name) Mutant.all_extended in
        Alcotest.(check int) "unique names" (List.length names)
          (List.length (List.sort_uniq String.compare names));
        Alcotest.(check bool) "find X7" true
          (Mutant.find "X7-zombie-token" <> None));
    Alcotest.test_case
      "full kill matrix: every mutant killed, baseline clean (reference)"
      `Slow (fun () ->
        match Campaign.run_cross_reference Mutant.all_extended with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok results ->
          if not (Campaign.all_killed results) then
            Alcotest.fail (Campaign.kill_matrix results));
    Alcotest.test_case
      "full kill matrix: every mutant killed, baseline clean (production)"
      `Slow (fun () ->
        match Campaign.run_cross Mutant.all_extended with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok results ->
          if not (Campaign.all_killed results) then
            Alcotest.fail (Campaign.kill_matrix results))
  ]

(* ---- chaos: detection power and verdict integrity ---- *)

let chaos_tests =
  [ Alcotest.test_case
      "cross mutants killed without verdict flips under every chaos profile"
      `Slow (fun () ->
        List.iter
          (fun profile ->
            match Campaign.run_chaos ~cross:true profile Mutant.cross_mutants with
            | Error msgs -> Alcotest.fail (String.concat "; " msgs)
            | Ok runs ->
              if not (Campaign.chaos_ok runs) then
                Alcotest.fail
                  (profile.Chaos.name ^ ":\n" ^ Campaign.chaos_matrix runs))
          Chaos.profiles)
  ]

let () =
  Alcotest.run "workload"
    [ ("dsl", dsl_tests);
      ("baseline", baseline_tests);
      ("determinism", determinism_tests);
      ("kill-matrix", kill_tests);
      ("chaos", chaos_tests)
    ]
