(* Cloud-monitor driver: runs the simulated private cloud with the
   generated monitor in front of it and executes validation workloads.

   Subcommands:
   - `cmonitor validate`   : the paper's mutation experiment (§VI-D)
   - `cmonitor lifecycle`  : the standard workload on a correct cloud,
                             with the monitoring report
   - `cmonitor contracts`  : print the generated contracts (Listing 1)
   - `cmonitor table1`     : print the security-requirements table *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let validate paper_only =
  let mutants =
    if paper_only then Cloudmon.Mutation.Mutant.paper_mutants
    else Cloudmon.Mutation.Mutant.all
  in
  match Cloudmon.validate_cloud ~mutants () with
  | Error msgs ->
    List.iter prerr_endline msgs;
    1
  | Ok results ->
    print_string (Cloudmon.Mutation.Campaign.kill_matrix results);
    if Cloudmon.Mutation.Campaign.all_killed results then begin
      print_endline "";
      print_endline "all mutants killed; baseline clean";
      0
    end
    else 1

let lifecycle verbose mode_name =
  setup_logs verbose;
  let mode =
    match mode_name with
    | "enforce" -> Cloudmon.Monitor.Enforce
    | _ -> Cloudmon.Monitor.Oracle
  in
  match Cloudmon.Mutation.Scenario.setup ~mode () with
  | Error msgs ->
    List.iter prerr_endline msgs;
    1
  | Ok ctx ->
    let outcomes =
      Cloudmon.Mutation.Scenario.run_trace ctx
        Cloudmon.Workload.standard_trace
    in
    List.iter (fun o -> Fmt.pr "%a@." Cloudmon.Outcome.pp o) outcomes;
    print_endline "";
    print_string
      (Cloudmon.Report.render
         (Cloudmon.Report.summarize outcomes)
         ~coverage:
           (Cloudmon.Monitor.coverage ctx.Cloudmon.Mutation.Scenario.monitor));
    0

let contracts () =
  match
    Cloudmon.Contracts.Generate.all ~security:Cloudmon.cinder_security
      Cloudmon.Uml.Cinder_model.behavior
  with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok cs ->
    List.iter (fun c -> Fmt.pr "%a@.@." Cloudmon.Contracts.Contract.pp c) cs;
    0

let testgen () =
  let machine = Cloudmon.Uml.Cinder_model.behavior in
  let table = Cloudmon.Rbac.Security_table.cinder in
  let assignment = Cloudmon.Rbac.Security_table.cinder_assignment in
  let cases = Cloudmon.Testgen.Plan.all machine ~table ~assignment in
  Printf.printf "generated %d cases from the Cinder models\n\n"
    (List.length cases);
  let report =
    Cloudmon.Testgen.Execute.run ~table ~machine
      Cloudmon.Testgen.Generic_driver.(driver cinder_spec)
      cases
  in
  print_string (Cloudmon.Testgen.Execute.render report);
  if report.Cloudmon.Testgen.Execute.bugs = 0 then 0 else 1

let explore seed steps =
  match
    Cloudmon.Mutation.Explorer.run
      ~config:{ Cloudmon.Mutation.Explorer.seed; steps } ()
  with
  | Error msgs ->
    List.iter prerr_endline msgs;
    1
  | Ok result ->
    print_string (Cloudmon.Mutation.Explorer.render result);
    if result.Cloudmon.Mutation.Explorer.violations = [] then 0 else 1

let audit () =
  match Cloudmon.Mutation.Scenario.setup () with
  | Error msgs ->
    List.iter prerr_endline msgs;
    1
  | Ok ctx ->
    print_string
      (Cm_monitor.Audit.render
         (Cm_monitor.Audit.surface ctx.Cloudmon.Mutation.Scenario.monitor));
    if Cm_monitor.Audit.gaps ctx.Cloudmon.Mutation.Scenario.monitor = []
    then 0
    else 1

let table1 () =
  print_string
    (Cloudmon.Rbac.Security_table.render ~resources:[ "volume" ]
       Cloudmon.Rbac.Security_table.cinder
       Cloudmon.Rbac.Security_table.cinder_assignment);
  0

(* ---- analyze: design-time contract verification ---- *)

let cinder_input =
  ( "cinder",
    { Cloudmon.Analysis.Rules.resources = Cloudmon.Uml.Cinder_model.resources;
      behavior = Cloudmon.Uml.Cinder_model.behavior;
      security = Some Cloudmon.cinder_security
    } )

let glance_input =
  ( "glance",
    { Cloudmon.Analysis.Rules.resources = Cloudmon.Uml.Glance_model.resources;
      behavior = Cloudmon.Uml.Glance_model.behavior;
      security = Some Cloudmon.glance_security
    } )

let snapshot_input =
  ( "snapshot",
    { Cloudmon.Analysis.Rules.resources = Cloudmon.Uml.Snapshot_model.resources;
      behavior = Cloudmon.Uml.Snapshot_model.behavior;
      security = Some Cloudmon.snapshot_security
    } )

let cross_input =
  ( "cross",
    { Cloudmon.Analysis.Rules.resources = Cloudmon.Uml.Cross_model.resources;
      behavior = Cloudmon.Uml.Cross_model.behavior;
      security = Some Cloudmon.cross_security
    } )

let analysis_inputs = function
  | "cinder" -> Ok [ cinder_input ]
  | "glance" -> Ok [ glance_input ]
  | "snapshot" -> Ok [ snapshot_input ]
  | "cross" -> Ok [ cross_input ]
  | "all" -> Ok [ cinder_input; glance_input; snapshot_input; cross_input ]
  | other -> Error (Printf.sprintf "unknown model %S" other)

let analyze_selftest () =
  let results = Cloudmon.Analysis.Defects.check_all () in
  List.iter
    (fun (name, r) ->
      match r with
      | Ok () -> Printf.printf "pass  %s\n" name
      | Error msg -> Printf.printf "FAIL  %s: %s\n" name msg)
    results;
  let failed = List.filter (fun (_, r) -> Result.is_error r) results in
  Printf.printf "%d/%d seeded defects caught by their expected rule\n"
    (List.length results - List.length failed)
    (List.length results);
  if failed = [] then 0 else 1

let severity_of_string = function
  | "error" -> Ok Cloudmon.Lint.Error
  | "warning" -> Ok Cloudmon.Lint.Warning
  | "info" -> Ok Cloudmon.Lint.Info
  | other -> Error (Printf.sprintf "unknown severity %S" other)

(* The machine-facing dumps: one stable-JSON object keyed by model
   label, so `--model cinder --subscriptions > golden.json` commits a
   byte-stable artefact (see test/golden/). *)
let analyze_dump inputs ~subscriptions ~monitorability =
  let section name per_input =
    if not name then Ok []
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (label, input) :: rest -> (
          match per_input input with
          | Error msg -> Error (Printf.sprintf "%s: %s" label msg)
          | Ok json -> go ((label, json) :: acc) rest)
      in
      go [] inputs
  in
  let subs =
    section subscriptions (fun input ->
        Result.map Cloudmon.Analysis.Interference.to_json
          (Cloudmon.Analysis.Interference.subscriptions input))
  and monos =
    section monitorability (fun input ->
        Result.map
          (Cloudmon.Analysis.Monitorability.to_json
             ~visibility:Cloudmon.Analysis.Monitorability.default_visibility)
          (Cloudmon.Analysis.Monitorability.reports input))
  in
  match (subs, monos) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    2
  | Ok subs, Ok monos ->
    let fields =
      (if subs = [] then []
       else [ ("subscriptions", Cloudmon.Json.Obj subs) ])
      @
      if monos = [] then []
      else [ ("monitorability", Cloudmon.Json.Obj monos) ]
    in
    Fmt.pr "%a@." Cloudmon.Json.pp (Cloudmon.Json.Obj fields);
    0

let analyze model format crosscheck_cases seed selftest subscriptions
    monitorability fail_on =
  if selftest then analyze_selftest ()
  else
    match (analysis_inputs model, severity_of_string fail_on) with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      2
    | Ok inputs, Ok threshold ->
      if subscriptions || monitorability then
        analyze_dump inputs ~subscriptions ~monitorability
      else
        let failures =
          List.filter_map
            (fun (label, input) ->
              let findings = Cloudmon.Analysis.Rules.analyze input in
              (match format with
               | "json" ->
                 Fmt.pr "%a@." Cloudmon.Json.pp (Cloudmon.Lint.to_json findings)
               | _ ->
                 Printf.printf "== %s ==\n" label;
                 print_string
                   (Cloudmon.Lint.render
                      ~catalogue:Cloudmon.Analysis.Rules.full_catalogue findings));
              let static_bad =
                Cloudmon.Lint.at_least threshold findings <> []
              in
              let dynamic_bad =
                crosscheck_cases > 0
                &&
                let verdict_bad =
                  match
                    Cloudmon.Analysis.Crosscheck.run ~cases:crosscheck_cases
                      ~seed input
                  with
                  | Error msg ->
                    Printf.printf "cross-check failed to run: %s\n" msg;
                    true
                  | Ok r ->
                    Fmt.pr "cross-check %a@."
                      Cloudmon.Analysis.Crosscheck.pp_result r;
                    List.iter (Printf.printf "  violation: %s\n") r.violations;
                    not (Cloudmon.Analysis.Crosscheck.ok r)
                and subscription_bad =
                  match
                    Cloudmon.Analysis.Crosscheck.run_subscriptions
                      ~cases:crosscheck_cases ~seed input
                  with
                  | Error msg ->
                    Printf.printf "subscription cross-check failed to run: %s\n"
                      msg;
                    true
                  | Ok r ->
                    Fmt.pr "subscription cross-check %a@."
                      Cloudmon.Analysis.Crosscheck.pp_subscription_result r;
                    List.iter
                      (Printf.printf "  violation: %s\n")
                      r.sub_violations;
                    not (Cloudmon.Analysis.Crosscheck.sub_ok r)
                in
                verdict_bad || subscription_bad
              in
              if static_bad || dynamic_bad then Some label else None)
            inputs
        in
        if failures = [] then 0 else 1

let paper_flag =
  let doc = "Only the three mutants of the paper." in
  Arg.(value & flag & info [ "paper-only" ] ~doc)

let mode_arg =
  let doc = "Monitor mode: oracle (default) or enforce." in
  Arg.(value & opt string "oracle" & info [ "mode" ] ~docv:"MODE" ~doc)

let seed_arg =
  let doc = "PRNG seed for the random walk." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let steps_arg =
  let doc = "Number of random steps." in
  Arg.(value & opt int 300 & info [ "steps" ] ~docv:"N" ~doc)

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:"attack-surface audit: is every URI x method safeguarded?")
    Term.(const audit $ const ())

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:"random-walk conformance exploration of the simulated cloud")
    Term.(const explore $ seed_arg $ steps_arg)

let testgen_cmd =
  Cmd.v
    (Cmd.info "testgen"
       ~doc:"generate a test campaign from the models and run it")
    Term.(const testgen $ const ())

let validate_cmd =
  Cmd.v
    (Cmd.info "validate" ~doc:"run the mutation experiment (§VI-D)")
    Term.(const validate $ paper_flag)

let analyze_model_arg =
  let doc = "Model set to analyze: cinder, glance, snapshot, cross, or all." in
  Arg.(value & opt string "all" & info [ "model" ] ~docv:"MODEL" ~doc)

let analyze_format_arg =
  let doc = "Report format: text (default) or json." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)

let analyze_crosscheck_arg =
  let doc =
    "Also fuzz N random observations per model and fail if any static \
     verdict (dead/vacuous) is contradicted dynamically, or if an event \
     outside a contract's subscription map ever changes its verdict \
     (0 = skip)."
  in
  Arg.(value & opt int 0 & info [ "cross-check" ] ~docv:"N" ~doc)

let analyze_subscriptions_flag =
  let doc =
    "Dump the per-contract event-subscription maps (with shard-closure \
     verdicts) as stable JSON keyed by model label, instead of the lint \
     report."
  in
  Arg.(value & flag & info [ "subscriptions" ] ~doc)

let analyze_monitorability_flag =
  let doc =
    "Dump the per-contract monitorability classification (fully / \
     partially / non-monitorable under the shipped observer) as stable \
     JSON keyed by model label, instead of the lint report."
  in
  Arg.(value & flag & info [ "monitorability" ] ~doc)

let analyze_fail_on_arg =
  let doc =
    "Exit non-zero when any finding at or above this severity remains: \
     error (default), warning, or info."
  in
  Arg.(value & opt string "error" & info [ "fail-on" ] ~docv:"SEVERITY" ~doc)

let analyze_selftest_flag =
  let doc =
    "Run the seeded defect corpus instead: every deliberately broken model \
     must be caught by exactly its expected rule."
  in
  Arg.(value & flag & info [ "selftest" ] ~doc)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "design-time contract verification: vacuity/dead-code analysis, \
          RBAC coverage audit and footprint blind spots (exit 1 on Error \
          findings)")
    Term.(
      const analyze $ analyze_model_arg $ analyze_format_arg
      $ analyze_crosscheck_arg $ seed_arg $ analyze_selftest_flag
      $ analyze_subscriptions_flag $ analyze_monitorability_flag
      $ analyze_fail_on_arg)

let verbose_flag =
  let doc = "Stream every monitored exchange to stderr (Logs reporter)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let lifecycle_cmd =
  Cmd.v
    (Cmd.info "lifecycle" ~doc:"run the standard workload on a correct cloud")
    Term.(const lifecycle $ verbose_flag $ mode_arg)

let contracts_cmd =
  Cmd.v
    (Cmd.info "contracts" ~doc:"print the generated contracts (Listing 1)")
    Term.(const contracts $ const ())

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"print the security-requirements table (Table I)")
    Term.(const table1 $ const ())

(* ---- fuzz: property-based differential conformance ---- *)

let fuzz cases seed shrink oracle_name max_size corpus =
  let module R = Cm_proptest.Runner in
  let module O = Cm_proptest.Oracle in
  let module C = Cm_proptest.Corpus in
  let oracles =
    if oracle_name = "all" then Some O.all
    else
      match O.find oracle_name with
      | Some o -> Some [ o ]
      | None ->
        Printf.eprintf "unknown oracle %S (expected all%s)\n" oracle_name
          (String.concat ""
             (List.map (fun (o : O.t) -> "|" ^ o.name) O.all));
        None
  in
  match oracles with
  | None -> 2
  | Some oracles ->
    let corpus_ok =
      match corpus with
      | None -> true
      | Some path ->
        (match C.load path with
         | Error msg ->
           Printf.eprintf "corpus %s: %s\n" path msg;
           false
         | Ok entries ->
           let still_failing = R.replay_corpus O.all entries in
           Printf.printf "corpus: %d entries replayed, %d failing\n"
             (List.length entries)
             (List.length still_failing);
           List.iter
             (fun ((e : C.entry), detail) ->
               Printf.printf "CORPUS FAIL %s case %d: %s\n" e.oracle e.index
                 detail)
             still_failing;
           still_failing = [])
    in
    let report = R.run ~oracles ~shrink ~max_size ~seed ~cases () in
    print_string (R.render report);
    (match corpus with
     | Some path when R.failed report ->
       List.iter (fun (f : O.failure) -> C.append path f.entry) report.failures;
       Printf.printf "recorded %d failing entries in %s\n"
         (List.length report.failures) path
     | _ -> ());
    if R.failed report || not corpus_ok then 1 else 0

let cases_arg =
  let doc = "Number of fuzz cases to run across all oracles." in
  Arg.(value & opt int 2000 & info [ "cases" ] ~docv:"N" ~doc)

let shrink_arg =
  let doc = "Greedily shrink counterexamples before reporting." in
  Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL" ~doc)

let oracle_arg =
  let doc =
    "Which oracle to drive: all, engine, rbac, codegen or monitor.  The \
     monitor oracle judges production against the reference monitor under \
     four configurations in turn: Oracle mode with a per-request cache, \
     Enforce mode with a cross-request cache, Enforce mode through the \
     journal, and Oracle mode under a random bounded chaos profile."
  in
  Arg.(value & opt string "all" & info [ "oracle" ] ~docv:"NAME" ~doc)

let max_size_arg =
  let doc = "Generator size budget; case sizes cycle through 2..2+K-1." in
  Arg.(value & opt int 10 & info [ "max-size" ] ~docv:"K" ~doc)

let corpus_arg =
  let doc =
    "Corpus file: existing entries are replayed before the campaign and new \
     failures are appended to it."
  in
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "deterministic property-based differential fuzzing of the OCL \
          engines, RBAC guards, code generators and monitor verdicts")
    Term.(
      const fuzz $ cases_arg $ seed_arg $ shrink_arg $ oracle_arg
      $ max_size_arg $ corpus_arg)

(* ---- chaos: the mutation campaign under unreliable transport ---- *)

let chaos list_flag seed profile_name json_path =
  let module Chaos = Cm_cloudsim.Chaos in
  let module Campaign = Cloudmon.Mutation.Campaign in
  let profiles =
    if profile_name = "all" then Chaos.profiles
    else Option.to_list (Chaos.find_profile profile_name)
  in
  if list_flag then begin
    List.iter
      (fun (p : Chaos.profile) ->
        Printf.printf "%-16s %s\n" p.Chaos.name p.Chaos.description)
      Chaos.profiles;
    0
  end
  else if profiles = [] then begin
    Printf.eprintf "unknown chaos profile %S (expected all%s)\n" profile_name
      (String.concat ""
         (List.map (fun (p : Chaos.profile) -> "|" ^ p.Chaos.name) Chaos.profiles));
    2
  end
  else
    let rec matrices acc = function
      | [] -> Ok (List.concat (List.rev acc))
      | profile :: rest ->
        (match Campaign.run_chaos ~seed profile Cloudmon.Mutation.Mutant.all with
         | Ok runs ->
           Printf.printf "=== profile %s: %s ===\n" profile.Chaos.name
             profile.Chaos.description;
           print_string (Campaign.chaos_matrix runs);
           print_newline ();
           matrices (runs :: acc) rest
         | Error msgs ->
           List.iter prerr_endline msgs;
           Error ())
    in
    match matrices [] profiles with
    | Error () -> 1
    | Ok runs ->
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc
            (Cm_json.Printer.to_string_pretty (Campaign.chaos_to_json runs));
          output_string oc "\n";
          close_out oc;
          Printf.printf "wrote %s\n" path)
        json_path;
      let ok = Campaign.chaos_ok runs in
      Printf.printf "campaign: %s\n"
        (if ok then "no flips, all mutants killed" else "INTEGRITY FAILURE");
      if ok then 0 else 1

let chaos_list_arg =
  let doc = "List the named chaos profiles with their descriptions." in
  Arg.(value & flag & info [ "list" ] ~doc)

let chaos_profile_arg =
  let doc = "Chaos profile to run: all (default) or a named profile." in
  Arg.(value & opt string "all" & info [ "profile" ] ~docv:"NAME" ~doc)

let chaos_json_arg =
  let doc = "Write the machine-readable integrity report to this file." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "mutation campaign under unreliable transport, judged against the \
          fault-free reference monitor: every mutant must stay killed and no \
          definite verdict may flip (random chaos profiles run in fuzz \
          --oracle monitor)")
    Term.(
      const chaos $ chaos_list_arg $ seed_arg $ chaos_profile_arg
      $ chaos_json_arg)

(* ---- replay: journal -> verdict stream, bit-identical to live ---- *)

let replay mix_name seed =
  let module W = Cloudmon.Workload in
  let module Scenario = Cloudmon.Mutation.Scenario in
  let module Jmonitor = Cm_journal.Jmonitor in
  let mixes =
    if mix_name = "all" then W.mixes
    else match W.find mix_name with Some m -> [ m ] | None -> []
  in
  if mixes = [] then begin
    Printf.eprintf "unknown mix %S (try cmonitor workload --list)\n" mix_name;
    2
  end
  else begin
    let failures = ref 0 in
    List.iter
      (fun (m : W.mix) ->
        let trace = m.W.compile ~seed in
        (* Record once live, then replay the journal on a fresh cloud
           through production and through the reference: all three
           verdict streams must be bit-identical. *)
        match Scenario.setup_journaled ~cross:true () with
        | Error msgs ->
          List.iter prerr_endline msgs;
          incr failures
        | Ok jctx ->
          ignore (Scenario.jrun_trace jctx trace);
          Jmonitor.sync jctx.Scenario.jmon;
          let events = Scenario.journal_events jctx in
          let live = Jmonitor.journaled_verdict_lines events in
          List.iter
            (fun (label, replay) ->
              match replay events with
              | Error msgs ->
                List.iter prerr_endline msgs;
                incr failures
              | Ok replayed ->
                let ok = replayed = live in
                Printf.printf "%-12s %-12s %4d verdicts  %s\n" m.W.mix_name
                  label (List.length live)
                  (if ok then "bit-identical" else "DIVERGED");
                if not ok then begin
                  incr failures;
                  List.iteri
                    (fun i (a, b) ->
                      if not (String.equal a b) then
                        Printf.printf "  step %d:\n    live:   %s\n    replay: %s\n"
                          i a b)
                    (List.combine live
                       (List.filteri
                          (fun i _ -> i < List.length live)
                          replayed))
                end)
            [ ("production", Scenario.replay_journal ~cross:true ?mode:None);
              ("reference", Scenario.replay_reference ~cross:true ?mode:None)
            ])
      mixes;
    if !failures = 0 then 0 else 1
  end

let replay_mix_arg =
  let doc = "Workload mix to record and replay: all (default) or a name." in
  Arg.(value & opt string "all" & info [ "mix" ] ~docv:"NAME" ~doc)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "record a workload through the journaled monitor, replay the \
          journal against a fresh cloud through production and through \
          the reference monitor, and \
          check the verdict streams are bit-identical")
    Term.(const replay $ replay_mix_arg $ seed_arg)

(* ---- recover: crash-point injection and exactly-once recovery ---- *)

let recover list_sites site nth matrix domains seed json_path =
  let module Campaign = Cloudmon.Mutation.Campaign in
  let module Mutant = Cloudmon.Mutation.Mutant in
  let module Scenario = Cloudmon.Mutation.Scenario in
  let module Jmonitor = Cm_journal.Jmonitor in
  let module Chaos = Cm_cloudsim.Chaos in
  if list_sites then begin
    List.iter print_endline Campaign.crash_sites;
    0
  end
  else if matrix then begin
    (* the full kill matrix: every chaos profile (plus fault-free) x
       every injection site x (baseline + all extended mutants) *)
    let profiles = None :: List.map (fun p -> Some p) Chaos.profiles in
    match
      Campaign.run_crash_matrix ~seed ~domains ~nth profiles
        Mutant.all_extended
    with
    | Error msgs ->
      List.iter prerr_endline msgs;
      1
    | Ok runs ->
      print_string (Campaign.crash_matrix runs);
      (match json_path with
       | None -> ()
       | Some path ->
         let oc = open_out path in
         output_string oc
           (Cm_json.Printer.to_string_pretty (Campaign.crash_to_json runs));
         output_string oc "\n";
         close_out oc;
         Printf.printf "wrote %s\n" path);
      let fired = List.length (List.filter (fun r -> r.Campaign.xr_fired) runs) in
      Printf.printf
        "\n%d cells (%d crashes fired): %s\n" (List.length runs) fired
        (if Campaign.crash_ok runs then
           "exactly-once verdicts, all mutants killed"
         else "CRASH-RECOVERY FAILURE");
      if Campaign.crash_ok runs then 0 else 1
  end
  else if not (List.mem site Campaign.crash_sites) then begin
    Printf.eprintf "unknown site %S (try --list-sites)\n" site;
    2
  end
  else begin
    (* single demonstration cell on the cross workload, no mutant *)
    match Campaign.run_crash_one ~seed ~index:0 ~site ~nth None None with
    | Error msgs ->
      List.iter prerr_endline msgs;
      1
    | Ok r ->
      Printf.printf
        "site %s (occurrence %d): crash %s\n" site nth
        (if r.Campaign.xr_fired then "fired" else "NOT REACHED");
      Printf.printf
        "recovery: %d verdicts, %d resumed in-flight, %d re-handled, %dB \
         torn tail discarded\n"
        r.Campaign.xr_verdicts r.Campaign.xr_resumed r.Campaign.xr_rehandled
        r.Campaign.xr_discarded_bytes;
      let clean =
        r.Campaign.xr_duplicates = [] && r.Campaign.xr_lost = []
        && r.Campaign.xr_mismatches = [] && not r.Campaign.xr_killed
      in
      Printf.printf "audit: %s\n"
        (if clean then
           "exactly-once, verdicts identical to the crash-free run"
         else "FAILURE (duplicate/lost/flipped verdicts)");
      if clean then 0 else 1
  end

let rec_list_sites_arg =
  let doc = "List the crash injection sites." in
  Arg.(value & flag & info [ "list-sites" ] ~doc)

let rec_site_arg =
  let doc = "Crash site to arm (see --list-sites)." in
  Arg.(
    value
    & opt string "monitor.after-forward"
    & info [ "site" ] ~docv:"SITE" ~doc)

let rec_crash_at_arg =
  let doc = "Crash at the Nth occurrence of the site." in
  Arg.(value & opt int 3 & info [ "crash-at" ] ~docv:"N" ~doc)

let rec_matrix_arg =
  let doc =
    "Run the full crash kill matrix: every chaos profile x injection site \
     x (baseline + extended mutant catalog)."
  in
  Arg.(value & flag & info [ "matrix" ] ~doc)

let rec_domains_arg =
  let doc = "With --matrix: fan matrix cells over N domains." in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let rec_json_arg =
  let doc = "With --matrix: write the machine-readable matrix to this file." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "crash the journaled monitor at a deterministic injection point, \
          tear the journal tail, recover, and audit exactly-once verdicts")
    Term.(
      const recover $ rec_list_sites_arg $ rec_site_arg $ rec_crash_at_arg
      $ rec_matrix_arg $ rec_domains_arg $ seed_arg $ rec_json_arg)

(* ---- serve-bench: sharded multicore throughput ---- *)

(* "--domains 1,2,4" (explicit list) and the repeatable
   "--domains 1 --domains 2" spelling both work; entries merge. *)
let parse_domains_list specs =
  List.concat_map
    (fun s ->
      String.split_on_char ',' s
      |> List.filter_map (fun part ->
             match int_of_string_opt (String.trim part) with
             | Some d -> Some (max 1 d)
             | None ->
               Printf.eprintf
                 "serve-bench: ignoring non-numeric domain count %S\n" part;
               None))
    specs
  |> List.sort_uniq compare

let serve_bench projects requests seed domains rate gates min_speedup json_path
    baseline_path max_regression resilience_baseline =
  let module SB = Cloudmon.Serve_bench in
  let spec =
    { SB.projects; requests_per_project = requests; seed }
  in
  let domains_list =
    match parse_domains_list domains with [] -> [ 1; 2; 4 ] | ds -> ds
  in
  match SB.run ~spec ~domains_list ?rate ~min_speedup () with
  | Error msgs ->
    List.iter prerr_endline msgs;
    1
  | Ok report ->
    print_string (SB.render report);
    (* Gates run before the JSON is written so relabeled rows
       (gate_failed) land in the emitted document. *)
    let contention_code =
      match SB.check_contention report with
      | Ok () ->
        print_endline
          "contention gate passed: 0 lock acquisitions per monitored GET";
        0
      | Error msg ->
        prerr_endline ("serve-bench: " ^ msg);
        if gates then 1 else 0
    in
    let speedup_code =
      match SB.check_speedup report with
      | Ok msg ->
        print_endline msg;
        0
      | Error msg ->
        prerr_endline ("serve-bench: " ^ msg);
        if gates then 1 else 0
    in
    (match json_path with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       output_string oc (Cm_json.Printer.to_string_pretty (SB.to_json report));
       output_string oc "\n";
       close_out oc;
       Printf.printf "wrote %s\n" path);
    if not report.SB.rp_verdicts_consistent then begin
      prerr_endline "serve-bench: verdicts diverged across domain counts";
      1
    end
    else begin
      let read_json path =
        let text =
          let ic = open_in path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        match Cm_json.Parser.parse text with
        | Error e ->
          Printf.eprintf "serve-bench: cannot parse %s: %s\n" path
            (Format.asprintf "%a" Cm_json.Parser.pp_error e);
          None
        | Ok json -> Some json
      in
      let fastpath_code =
        match baseline_path with
        | None -> 0
        | Some path ->
          (match read_json path with
           | None -> 2
           | Some baseline ->
             (match
                SB.check_against_baseline report ~baseline
                  ~max_regression_pct:max_regression
              with
              | Ok () ->
                Printf.printf
                  "baseline check passed (within %.0f%% of %s)\n"
                  max_regression path;
                0
              | Error msg ->
                prerr_endline ("serve-bench: " ^ msg);
                1))
      in
      let resilience_code =
        match resilience_baseline with
        | None -> 0
        | Some path ->
          (match read_json path with
           | None -> 2
           | Some baseline ->
             (match SB.run_resilience_overhead ~spec () with
              | Error msgs ->
                List.iter prerr_endline msgs;
                1
              | Ok (off_ns, on_ns, overhead) ->
                Printf.printf
                  "resilience overhead: %.0f -> %.0f ns/request (%.2f%%)\n"
                  off_ns on_ns overhead;
                (match
                   SB.check_resilience_baseline ~overhead_percent:overhead
                     ~baseline ~max_overhead_pct:10.
                 with
                 | Ok base ->
                   Printf.printf
                     "resilience gate passed (%.2f%% <= 10%% ceiling; \
                      committed baseline %.2f%%)\n"
                     overhead base;
                   0
                 | Error msg ->
                   prerr_endline ("serve-bench: " ^ msg);
                   1)))
      in
      max (max fastpath_code resilience_code)
        (max contention_code speedup_code)
    end

let sb_projects_arg =
  let doc = "Number of tenant projects (also the shard count)." in
  Arg.(value & opt int 8 & info [ "projects" ] ~docv:"N" ~doc)

let sb_requests_arg =
  let doc = "Requests per project in the replayed workload." in
  Arg.(value & opt int 50 & info [ "requests" ] ~docv:"N" ~doc)

let sb_domains_arg =
  let doc =
    "Domain counts to measure, as an explicit comma-separated list \
     (e.g. --domains 1,2,4); also repeatable.  Default 1, 2 and 4."
  in
  Arg.(value & opt_all string [] & info [ "domains" ] ~docv:"LIST" ~doc)

let sb_gates_arg =
  let doc =
    "Make the contention and speedup gates fatal: fail if the monitored \
     GET path acquires any instrumented lock, and — only when the host \
     has >= 2 hardware domains — fail if the best valid multi-domain \
     speedup is below the --min-speedup floor.  Both gate results are \
     always measured and recorded in the JSON report; this flag turns \
     them into exit codes."
  in
  Arg.(value & flag & info [ "gates" ] ~doc)

let sb_min_speedup_arg =
  let doc =
    "Speedup floor for the conditional scaling gate (2+ domains vs 1)."
  in
  Arg.(value & opt float 1.6 & info [ "min-speedup" ] ~docv:"X" ~doc)

let sb_rate_arg =
  let doc =
    "Open-loop arrival rate in requests/second for the latency \
     measurement (default: self-calibrated to ~70% of the closed-loop \
     capacity)."
  in
  Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"REQ_PER_S" ~doc)

let sb_json_arg =
  let doc = "Write the throughput report to this file." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let sb_baseline_arg =
  let doc =
    "Fail if the single-domain handle cost regresses against the \
     fastpath/cinder-handle-compiled entry of this BENCH_fastpath.json."
  in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let sb_max_regression_arg =
  let doc = "Allowed handle-cost regression over the baseline, percent." in
  Arg.(value & opt float 15. & info [ "max-regression" ] ~docv:"PCT" ~doc)

let sb_resilience_baseline_arg =
  let doc =
    "Measure the resilience layer's serve overhead and fail if it exceeds \
     the 10% ceiling; the BENCH_resilience.json file anchors the drift \
     report."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "resilience-baseline" ] ~docv:"FILE" ~doc)

(* ---- workload: the traffic-mix DSL ---- *)

let workload list_flag mix_name seed trace_flag fuzz_cases kill_flag
    domains chaos_flag =
  let module W = Cloudmon.Workload in
  let module Mutant = Cloudmon.Mutation.Mutant in
  let module Campaign = Cloudmon.Mutation.Campaign in
  let module Chaos = Cm_cloudsim.Chaos in
  let failures = ref 0 in
  let ran = ref false in
  let list_mixes () =
    List.iter
      (fun (m : W.mix) ->
        let trace = m.W.compile ~seed in
        Printf.printf "%-12s %4d steps  %s  %s\n" m.W.mix_name
          (List.length trace) (W.fingerprint trace) m.W.description)
      W.mixes
  in
  if list_flag then begin
    ran := true;
    list_mixes ()
  end;
  (match mix_name with
   | None -> ()
   | Some name ->
     ran := true;
     (match W.find name with
      | None ->
        Printf.eprintf "unknown mix %S (try --list)\n" name;
        incr failures
      | Some m ->
        let trace = m.W.compile ~seed in
        Printf.printf "mix %s, seed %d: %d steps, fingerprint %s\n"
          m.W.mix_name seed (List.length trace) (W.fingerprint trace);
        if trace_flag then print_string (W.render trace)));
  if fuzz_cases > 0 then begin
    ran := true;
    (* the determinism contract, checked the hard way: every case
       compiles its (mix, seed) twice and the renderings must be
       bit-identical; a second pass in reverse order catches hidden
       global state *)
    let n_mixes = List.length W.mixes in
    let renders =
      Array.init fuzz_cases (fun case ->
          let m = List.nth W.mixes (case mod n_mixes) in
          let a = W.render (m.W.compile ~seed:(seed + case)) in
          let b = W.render (m.W.compile ~seed:(seed + case)) in
          if not (String.equal a b) then begin
            Printf.eprintf "MISMATCH: %s seed %d recompiled differently\n"
              m.W.mix_name (seed + case);
            incr failures
          end;
          a)
    in
    for case = fuzz_cases - 1 downto 0 do
      let m = List.nth W.mixes (case mod n_mixes) in
      if
        not
          (String.equal renders.(case)
             (W.render (m.W.compile ~seed:(seed + case))))
      then begin
        Printf.eprintf "MISMATCH: %s seed %d is order-dependent\n" m.W.mix_name
          (seed + case);
        incr failures
      end
    done;
    Printf.printf "workload fuzz: %d cases, %s\n" fuzz_cases
      (if !failures = 0 then "all traces bit-identical" else "MISMATCHES")
  end;
  if kill_flag then begin
    ran := true;
    List.iter
      (fun (label, run) ->
        Printf.printf "=== cross kill matrix (%s, %d domains) ===\n" label
          domains;
        match run ?domains:(Some domains) Mutant.all_extended with
        | Error msgs ->
          List.iter prerr_endline msgs;
          incr failures
        | Ok results ->
          print_string (Campaign.kill_matrix results);
          print_newline ();
          if not (Campaign.all_killed results) then incr failures)
      [ ("reference", Campaign.run_cross_reference);
        ("production", Campaign.run_cross)
      ]
  end;
  if chaos_flag then begin
    ran := true;
    List.iter
      (fun (profile : Chaos.profile) ->
        Printf.printf "=== cross chaos: %s ===\n" profile.Chaos.name;
        match Campaign.run_chaos ~cross:true ~seed profile Mutant.cross_mutants with
        | Error msgs ->
          List.iter prerr_endline msgs;
          incr failures
        | Ok runs ->
          print_string (Campaign.chaos_matrix runs);
          print_newline ();
          if not (Campaign.chaos_ok runs) then incr failures)
      Chaos.profiles
  end;
  if not !ran then list_mixes ();
  if !failures = 0 then 0 else 1

let wl_list_arg =
  let doc = "List the named mixes with step counts and fingerprints." in
  Arg.(value & flag & info [ "list" ] ~doc)

let wl_mix_arg =
  let doc = "Compile this mix with --seed and print its fingerprint." in
  Arg.(value & opt (some string) None & info [ "mix" ] ~docv:"NAME" ~doc)

let wl_trace_arg =
  let doc = "With --mix: also print the compiled trace, one step per line." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let wl_fuzz_arg =
  let doc =
    "Check the determinism contract over N cases: each (mix, seed) must \
     compile to a bit-identical trace on every recompilation."
  in
  Arg.(value & opt int 0 & info [ "fuzz" ] ~docv:"N" ~doc)

let wl_kill_arg =
  let doc =
    "Run the cross-service kill matrix (baseline plus the full extended \
     mutant catalog under the cross workload), judged by the reference \
     monitor and by production."
  in
  Arg.(value & flag & info [ "kill-matrix" ] ~doc)

let wl_domains_arg =
  let doc = "With --kill-matrix: fan campaign entries over N domains." in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let wl_chaos_arg =
  let doc =
    "Run the cross-service mutants under every chaos profile and check \
     detection power and verdict integrity."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let workload_cmd =
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "the seeded traffic-mix DSL: list mixes, compile traces, check the \
          bit-identical-trace contract, and run the cross-service \
          kill/chaos matrices")
    Term.(
      const workload $ wl_list_arg $ wl_mix_arg $ seed_arg $ wl_trace_arg
      $ wl_fuzz_arg $ wl_kill_arg $ wl_domains_arg
      $ wl_chaos_arg)

let serve_bench_cmd =
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "replay a seeded multi-tenant workload through the sharded monitor \
          at several domain counts and report throughput, cache hit rate and \
          observation traffic")
    Term.(
      const serve_bench $ sb_projects_arg $ sb_requests_arg $ seed_arg
      $ sb_domains_arg $ sb_rate_arg $ sb_gates_arg $ sb_min_speedup_arg
      $ sb_json_arg $ sb_baseline_arg $ sb_max_regression_arg
      $ sb_resilience_baseline_arg)

let main =
  Cmd.group
    (Cmd.info "cmonitor" ~version:Cloudmon.version
       ~doc:"model-generated cloud monitor over a simulated OpenStack")
    [ validate_cmd; analyze_cmd; lifecycle_cmd; contracts_cmd; table1_cmd;
      testgen_cmd; explore_cmd; audit_cmd; fuzz_cmd; chaos_cmd; workload_cmd;
      serve_bench_cmd; replay_cmd; recover_cmd
    ]

let () = exit (Cmd.eval' main)
