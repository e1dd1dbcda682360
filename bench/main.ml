(* Benchmark & reproduction harness.

   One section per artifact of the paper's evaluation (see DESIGN.md §4):
   T1 (Table I), L1 (Listing 1), L2/L3 (Listings 2-3), F2 (workflow),
   F3 (models), F4 (pipeline), E1 (mutation experiment), plus the
   quantitative benches B1 (monitoring overhead), B2 (generation
   scaling), B3 (OCL evaluation), B4 (compiled fast path), B5 (sharded
   multicore serving) and A1 (snapshot ablation).

   `dune exec bench/main.exe` runs everything;
   `dune exec bench/main.exe -- SECTION...` runs selected sections
   (table1 listing1 listing23 fig2 fig3 fig4 mutants overhead scaling
   ocl ablation fastpath throughput ...).  Flags: `--quick` shrinks
   bench quotas, `--json` makes `fastpath` write BENCH_fastpath.json
   and `throughput` write BENCH_throughput.json. *)

let banner title = Printf.printf "\n=== %s ===\n%!" title

(* --quick shrinks every bechamel quota (CI smoke runs); --json makes
   the fastpath section write BENCH_fastpath.json *)
let quick = ref false
let json_output = ref false

(* ---------- bechamel helpers ---------- *)

let run_group_rows ~quota_s tests =
  let open Bechamel in
  let quota_s = if !quick then Float.min quota_s 0.05 else quota_s in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~stabilize:true ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> est
          | Some [] | None -> Float.nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> r
          | None -> Float.nan
        in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Printf.printf "%-46s %14s %8s\n" "benchmark" "time/run" "r2";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun (name, ns, r2) ->
      let time_text =
        if Float.is_nan ns then "n/a"
        else if ns > 1_000_000. then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1_000. then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.1f ns" ns
      in
      Printf.printf "%-46s %14s %8.4f\n" name time_text r2)
    rows;
  rows

let run_group ~quota_s tests = ignore (run_group_rows ~quota_s tests)

let staged = Bechamel.Staged.stage

(* ---------- sections ---------- *)

let section_table1 () =
  banner "T1: security requirements for the Cinder API (Table I)";
  print_string
    (Cm_rbac.Security_table.render ~resources:[ "volume" ]
       Cm_rbac.Security_table.cinder Cm_rbac.Security_table.cinder_assignment);
  print_endline "\n(asserted equal to the paper's rows in test/test_rbac.ml)"

let security = Workloads.security

let section_listing1 () =
  banner "L1: generated contract for DELETE(volume) (Listing 1)";
  match
    Cm_contracts.Generate.contract_for ~security Cm_uml.Cinder_model.behavior
      { Cm_uml.Behavior_model.meth = Cm_http.Meth.DELETE; resource = "volume" }
  with
  | Error msg -> print_endline ("ERROR: " ^ msg)
  | Ok contract ->
    Fmt.pr "%a@." Cm_contracts.Contract.pp contract;
    Printf.printf
      "\nshape: %d disjuncts in Pre, %d implications in Post, pre() slots: %d\n"
      (List.length (Cm_ocl.Simplify.disjuncts contract.Cm_contracts.Contract.pre))
      (List.length (Cm_ocl.Simplify.conjuncts contract.Cm_contracts.Contract.post))
      (List.length
         (Cm_contracts.Snapshot.compile contract.Cm_contracts.Contract.post)
           .Cm_contracts.Snapshot.slots)

let section_listing23 () =
  banner "L2/L3: generated Django urls.py and views.py (Listings 2-3)";
  match
    Cm_codegen.Django_project.generate ~project_name:"cmonitor" ~security
      Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior
  with
  | Error msg -> print_endline ("ERROR: " ^ msg)
  | Ok files ->
    List.iter
      (fun (f : Cm_codegen.Django_project.file) ->
        if f.path = "cmonitor/urls.py" then begin
          print_endline "--- urls.py ---";
          print_string f.content
        end)
      files;
    List.iter
      (fun (f : Cm_codegen.Django_project.file) ->
        if f.path = "cmonitor/views.py" then begin
          print_endline "--- views.py (volume dispatcher + DELETE view) ---";
          let lines = String.split_on_char '\n' f.content in
          let in_section = ref false in
          List.iter
            (fun line ->
              let starts prefix =
                String.length line >= String.length prefix
                && String.sub line 0 (String.length prefix) = prefix
              in
              if starts "def volume(request" then in_section := true
              else if starts "def volume_get" || starts "def volume_put" then
                in_section := false
              else if starts "def volume_delete" then in_section := true;
              if !in_section then print_endline line)
            lines
        end)
      files

let run_lifecycle mode =
  match Cm_mutation.Scenario.setup ~mode () with
  | Error msgs -> failwith (String.concat "; " msgs)
  | Ok ctx ->
    Cm_mutation.Scenario.standard ctx;
    ctx

let section_fig2 () =
  banner "F2: monitor workflow verdicts over the standard lifecycle (Fig. 2)";
  let ctx = run_lifecycle Cm_monitor.Monitor.Oracle in
  let outcomes = Cm_monitor.Monitor.outcomes ctx.Cm_mutation.Scenario.monitor in
  List.iter (fun o -> Fmt.pr "%a@." Cm_monitor.Outcome.pp o) outcomes;
  print_newline ();
  print_string
    (Cm_monitor.Report.render
       (Cm_monitor.Report.summarize outcomes)
       ~coverage:(Cm_monitor.Monitor.coverage ctx.Cm_mutation.Scenario.monitor))

let section_fig3 () =
  banner "F3: the Cinder design models (Fig. 3) and their XMI round-trip";
  Fmt.pr "%a@." Cm_uml.Resource_model.pp Cm_uml.Cinder_model.resources;
  Fmt.pr "%a@." Cm_uml.Behavior_model.pp Cm_uml.Cinder_model.behavior;
  (match Cm_uml.Paths.derive Cm_uml.Cinder_model.resources with
   | Error msg -> print_endline ("ERROR: " ^ msg)
   | Ok entries ->
     print_endline "derived URI table:";
     List.iter
       (fun (e : Cm_uml.Paths.entry) ->
         Printf.printf "  %-12s %-10s %s\n" e.resource
           (if e.is_item then "item" else "collection")
           (Cm_http.Uri_template.to_string e.template))
       entries);
  let doc =
    { Cm_uml.Xmi.resource_model = Cm_uml.Cinder_model.resources;
      behavior_models = [ Cm_uml.Cinder_model.behavior ]
    }
  in
  let text = Cm_uml.Xmi.write doc in
  (match Cm_uml.Xmi.read text with
   | Ok parsed
     when parsed.Cm_uml.Xmi.resource_model = Cm_uml.Cinder_model.resources ->
     Printf.printf "XMI round-trip: OK (%d bytes of XMI)\n" (String.length text)
   | Ok _ -> print_endline "XMI round-trip: MISMATCH"
   | Error msg -> print_endline ("XMI round-trip FAILED: " ^ msg));
  print_endline "\nresource model (Fig. 3 left, as Mermaid):";
  print_string (Cm_uml.Mermaid.class_diagram Cm_uml.Cinder_model.resources);
  print_endline "\nbehavioral model (Fig. 3 right, as Mermaid):";
  print_string (Cm_uml.Mermaid.state_diagram Cm_uml.Cinder_model.behavior)

let section_fig4 () =
  banner "F4: end-to-end pipeline XMI -> contracts -> Django project (Fig. 4)";
  let doc =
    { Cm_uml.Xmi.resource_model = Cm_uml.Cinder_model.resources;
      behavior_models = [ Cm_uml.Cinder_model.behavior ]
    }
  in
  let xmi_text = Cm_uml.Xmi.write doc in
  let pipeline () =
    let parsed = Cm_uml.Xmi.read_exn xmi_text in
    match parsed.Cm_uml.Xmi.behavior_models with
    | behavior :: _ ->
      (match
         Cm_codegen.Django_project.generate ~project_name:"cmonitor" ~security
           parsed.Cm_uml.Xmi.resource_model behavior
       with
       | Ok files ->
         List.fold_left
           (fun acc (f : Cm_codegen.Django_project.file) ->
             acc + String.length f.content)
           0 files
       | Error msg -> failwith msg)
    | [] -> failwith "no machine"
  in
  let bytes = pipeline () in
  let t0 = Unix.gettimeofday () in
  let iterations = 50 in
  for _ = 1 to iterations do
    ignore (pipeline ())
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf
    "pipeline run: %d bytes of generated code, %.2f ms per run (%d runs)\n"
    bytes
    (elapsed /. float_of_int iterations *. 1000.)
    iterations

let section_mutants () =
  banner "E1: the mutation experiment (SVI-D)";
  match Cloudmon.validate_cloud ~mutants:Cm_mutation.Mutant.all () with
  | Error msgs -> List.iter print_endline msgs
  | Ok results ->
    print_string (Cm_mutation.Campaign.kill_matrix results);
    let paper =
      List.filter
        (fun (r : Cm_mutation.Campaign.result) ->
          match r.mutant with
          | None -> true
          | Some m -> m.Cm_mutation.Mutant.from_paper)
        results
    in
    Printf.printf "\npaper's result (3/3 mutants killed, baseline clean): %s\n"
      (if Cm_mutation.Campaign.all_killed paper then "REPRODUCED"
       else "NOT reproduced");
    Printf.printf "extended catalog (%d further mutants): %s\n"
      (List.length Cm_mutation.Mutant.extended_mutants)
      (if Cm_mutation.Campaign.all_killed results then "all killed"
       else "some survived")

let section_overhead () =
  banner "B1: monitoring overhead per request (direct vs proxied)";
  let fx = Workloads.make_fixture () in
  let request = Workloads.get_volume_request fx in
  let tests =
    Bechamel.Test.make_grouped ~name:"overhead"
      [ Bechamel.Test.make ~name:"direct-cloud-GET"
          (staged (fun () ->
               ignore (Cm_cloudsim.Cloud.handle fx.Workloads.cloud request)));
        Bechamel.Test.make ~name:"monitored-GET-oracle"
          (staged (fun () ->
               ignore
                 (Cm_monitor.Monitor.handle fx.Workloads.monitor_oracle request)));
        Bechamel.Test.make ~name:"monitored-GET-enforce"
          (staged (fun () ->
               ignore
                 (Cm_monitor.Monitor.handle fx.Workloads.monitor_enforce request)))
      ]
  in
  run_group ~quota_s:0.5 tests;
  print_endline
    "(the monitor's multiple = the observation GETs + two contract \
     evaluations per exchange)"

let section_scaling () =
  banner "B2: generation scaling (contracts and Django code)";
  let contract_test n =
    let behavior = Workloads.deep_behavior n in
    Bechamel.Test.make
      ~name:(Printf.sprintf "contracts-%03d-transitions" (2 * n))
      (staged (fun () ->
           match Cm_contracts.Generate.all behavior with
           | Ok cs -> ignore (List.length cs)
           | Error msg -> failwith msg))
  in
  let django_test n =
    let resources = Workloads.wide_resources n in
    let behavior = Workloads.deep_behavior 2 in
    Bechamel.Test.make
      ~name:(Printf.sprintf "django-%03d-resources" (2 * n + 2))
      (staged (fun () ->
           match
             Cm_codegen.Django_project.generate ~project_name:"g" resources
               behavior
           with
           | Ok files -> ignore (List.length files)
           | Error msg -> failwith msg))
  in
  let tests =
    Bechamel.Test.make_grouped ~name:"scaling"
      [ contract_test 2;
        contract_test 8;
        contract_test 32;
        django_test 2;
        django_test 8;
        django_test 16
      ]
  in
  run_group ~quota_s:0.4 tests

let section_ocl () =
  banner "B3: OCL parsing / evaluation / typechecking throughput";
  let invariant_text =
    "project.id->size() = 1 and project.volumes->size() >= 1 and \
     project.volumes->size() < quota_sets.volumes and volume.status <> \
     'in-use' and user.groups->includes('proj_administrator')"
  in
  let expr = Cm_ocl.Ocl_parser.parse_exn invariant_text in
  let env =
    Cm_ocl.Eval.env_of_bindings
      [ ( "project",
          Cm_json.Json.obj
            [ ("id", Cm_json.Json.string "p");
              ( "volumes",
                Cm_json.Json.list
                  [ Cm_json.Json.obj
                      [ ("status", Cm_json.Json.string "available") ]
                  ] )
            ] );
        ("quota_sets", Cm_json.Json.obj [ ("volumes", Cm_json.Json.int 3) ]);
        ( "volume",
          Cm_json.Json.obj [ ("status", Cm_json.Json.string "available") ] );
        ( "user",
          Cm_json.Json.obj
            [ ( "groups",
                Cm_json.Json.list [ Cm_json.Json.string "proj_administrator" ]
              )
            ] )
      ]
  in
  let signature = Cm_uml.Cinder_model.signature in
  let tests =
    Bechamel.Test.make_grouped ~name:"ocl"
      [ Bechamel.Test.make ~name:"parse-branch-precondition"
          (staged (fun () -> ignore (Cm_ocl.Ocl_parser.parse_exn invariant_text)));
        Bechamel.Test.make ~name:"eval-branch-precondition"
          (staged (fun () -> ignore (Cm_ocl.Eval.check env expr)));
        Bechamel.Test.make ~name:"typecheck-branch-precondition"
          (staged (fun () ->
               ignore (Cm_ocl.Typecheck.check_boolean signature expr)));
        Bechamel.Test.make ~name:"simplify-branch-precondition"
          (staged (fun () -> ignore (Cm_ocl.Simplify.simplify expr)));
        Bechamel.Test.make ~name:"pretty-print"
          (staged (fun () -> ignore (Cm_ocl.Pretty.to_string expr)))
      ]
  in
  run_group ~quota_s:0.4 tests

let section_ablation () =
  banner "A1: snapshot size (lean values vs a full pre-state copy)";
  let contract =
    match
      Cm_contracts.Generate.contract_for ~security Cm_uml.Cinder_model.behavior
        { Cm_uml.Behavior_model.meth = Cm_http.Meth.DELETE; resource = "volume" }
    with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let volumes n =
    Cm_json.Json.list
      (List.init n (fun i ->
           Cm_json.Json.obj
             [ ("id", Cm_json.Json.string (Printf.sprintf "vol-%d" i));
               ("name", Cm_json.Json.string (Printf.sprintf "volume-%d" i));
               ("status", Cm_json.Json.string "available");
               ("size", Cm_json.Json.int 10)
             ]))
  in
  let env n =
    Cm_ocl.Eval.env_of_bindings
      [ ( "project",
          Cm_json.Json.obj
            [ ("id", Cm_json.Json.string "p"); ("volumes", volumes n) ] );
        ( "quota_sets",
          Cm_json.Json.obj [ ("volumes", Cm_json.Json.int (n + 1)) ] );
        ( "volume",
          Cm_json.Json.obj [ ("status", Cm_json.Json.string "available") ] );
        ( "user",
          Cm_json.Json.obj
            [ ( "groups",
                Cm_json.Json.list [ Cm_json.Json.string "proj_administrator" ]
              )
            ] )
      ]
  in
  (* the paper's claim: a few bytes per call regardless of state size;
     the full column is what retaining the whole pre-state would cost *)
  Printf.printf "%-12s %18s %18s\n" "#volumes" "lean snapshot" "full snapshot";
  let lean = Cm_contracts.Runtime.prepare contract in
  List.iter
    (fun n ->
      let e = env n in
      Printf.printf "%-12d %15d B %15d B\n" n
        (Cm_contracts.Runtime.snapshot_bytes
           (Cm_contracts.Runtime.take_snapshot lean e))
        (Cm_contracts.Snapshot.full_size_bytes e))
    [ 1; 10; 100; 1000 ];
  print_newline ();
  let pre_env = env 100 in
  let post_env = env 99 in
  let tests =
    Bechamel.Test.make_grouped ~name:"snapshot"
      [ Bechamel.Test.make ~name:"lean-snapshot+post-check-100-volumes"
          (staged (fun () ->
               let s = Cm_contracts.Runtime.take_snapshot lean pre_env in
               ignore (Cm_contracts.Runtime.check_post lean s post_env)))
      ]
  in
  run_group ~quota_s:0.4 tests

let section_fastpath () =
  banner "B4: compiled contract fast path (staged closures vs AST interpreter)";
  let module Runtime = Cm_contracts.Runtime in
  let module Json = Cm_json.Json in
  let contract_of ~security behavior trigger =
    match Cm_contracts.Generate.contract_for ~security behavior trigger with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let cinder_contract =
    contract_of ~security Cm_uml.Cinder_model.behavior
      { Cm_uml.Behavior_model.meth = Cm_http.Meth.DELETE; resource = "volume" }
  in
  let glance_contract =
    contract_of
      ~security:
        { Cm_contracts.Generate.table = Cm_rbac.Security_table.glance;
          assignment = Cm_rbac.Security_table.cinder_assignment
        }
      Cm_uml.Glance_model.behavior
      { Cm_uml.Behavior_model.meth = Cm_http.Meth.DELETE; resource = "image" }
  in
  let listing n =
    Json.list
      (List.init n (fun i ->
           Json.obj
             [ ("id", Json.string (Printf.sprintf "i-%d" i));
               ("name", Json.string (Printf.sprintf "item-%d" i));
               ("status", Json.string "available");
               ("size", Json.int 8)
             ]))
  in
  let admin =
    Json.obj
      [ ("groups", Json.list [ Json.string "proj_administrator" ]) ]
  in
  let cinder_env n =
    Cm_ocl.Eval.env_of_bindings
      [ ( "project",
          Json.obj [ ("id", Json.string "p"); ("volumes", listing n) ] );
        ("quota_sets", Json.obj [ ("volumes", Json.int 20) ]);
        ("volume", Json.obj [ ("status", Json.string "available") ]);
        ("user", admin)
      ]
  in
  let glance_env n =
    Cm_ocl.Eval.env_of_bindings
      [ ( "project",
          Json.obj [ ("id", Json.string "p"); ("images", listing n) ] );
        ("quota_sets", Json.obj [ ("images", Json.int 20) ]);
        ("image", Json.obj [ ("status", Json.string "queued") ]);
        ("user", admin)
      ]
  in
  (* a full per-request check cycle — exactly the calls Monitor.handle
     makes in Oracle mode, minus the observation GETs: one observed
     state per side, all checks against it.  Successive cycles alternate
     between two states that differ in the [project] listing (10 vs 11
     items), which every check but the authorization guard reads, so the
     compiled engine's memo cannot turn the row into replays. *)
  let check_cycle prepared make_env =
    let envs = [| make_env 10; make_env 11 |] in
    let k = ref 0 in
    fun () ->
      incr k;
      let env = envs.(!k land 1) in
      let pre = Runtime.observe prepared env in
      ignore (Runtime.check_pre_observed prepared pre);
      ignore (Runtime.covered_requirements_observed prepared pre);
      ignore (Runtime.auth_guard_tri prepared pre);
      ignore (Runtime.functional_pre_tri prepared pre);
      let s = Runtime.take_snapshot_observed prepared pre in
      let post = Runtime.observe prepared env in
      ignore (Runtime.check_post_observed prepared s post)
  in
  let micro name contract make_env =
    let pi = Runtime.prepare ~engine:Runtime.Interpreted contract in
    let pc = Runtime.prepare ~engine:Runtime.Compiled contract in
    [ Bechamel.Test.make
        ~name:(name ^ "-check-interpreted")
        (staged (check_cycle pi make_env));
      Bechamel.Test.make
        ~name:(name ^ "-check-compiled")
        (staged (check_cycle pc make_env))
    ]
  in
  (* end-to-end through Monitor.handle: observation GETs included, so
     the contract-check speedup is diluted by the (identical) I/O *)
  let fxi = Workloads.make_fixture ~engine:Runtime.Interpreted () in
  let fxc = Workloads.make_fixture ~engine:Runtime.Compiled () in
  let gxi = Workloads.make_glance_fixture ~engine:Runtime.Interpreted () in
  let gxc = Workloads.make_glance_fixture ~engine:Runtime.Compiled () in
  let e2e =
    [ Bechamel.Test.make ~name:"cinder-handle-interpreted"
        (staged (fun () ->
             ignore
               (Cm_monitor.Monitor.handle fxi.Workloads.monitor_oracle
                  (Workloads.get_volume_request fxi))));
      Bechamel.Test.make ~name:"cinder-handle-compiled"
        (staged (fun () ->
             ignore
               (Cm_monitor.Monitor.handle fxc.Workloads.monitor_oracle
                  (Workloads.get_volume_request fxc))));
      Bechamel.Test.make ~name:"glance-handle-interpreted"
        (staged (fun () ->
             ignore
               (Cm_monitor.Monitor.handle gxi.Workloads.g_monitor
                  (Workloads.get_image_request gxi))));
      Bechamel.Test.make ~name:"glance-handle-compiled"
        (staged (fun () ->
             ignore
               (Cm_monitor.Monitor.handle gxc.Workloads.g_monitor
                  (Workloads.get_image_request gxc))))
    ]
  in
  let tests =
    Bechamel.Test.make_grouped ~name:"fastpath"
      (micro "cinder-delete" cinder_contract cinder_env
      @ micro "glance-delete" glance_contract glance_env
      @ e2e)
  in
  let rows = run_group_rows ~quota_s:1.0 tests in
  let ns_of suffix =
    List.find_map
      (fun (name, ns, _) ->
        if String.ends_with ~suffix name then Some ns else None)
      rows
  in
  print_newline ();
  List.iter
    (fun (label, interp, compiled) ->
      match ns_of interp, ns_of compiled with
      | Some i, Some c when c > 0. ->
        Printf.printf "%-28s %6.2fx speedup (%.0f ns -> %.0f ns)\n" label
          (i /. c) i c
      | _ -> Printf.printf "%-28s n/a\n" label)
    [ ("cinder contract check", "cinder-delete-check-interpreted",
       "cinder-delete-check-compiled");
      ("glance contract check", "glance-delete-check-interpreted",
       "glance-delete-check-compiled");
      ("cinder Monitor.handle", "cinder-handle-interpreted",
       "cinder-handle-compiled");
      ("glance Monitor.handle", "glance-handle-interpreted",
       "glance-handle-compiled")
    ];
  (* incremental engine: contract re-evaluations per request under the
     reference (interpreted) and compiled engines on the standard mixed
     workload, plus the memoized-hit
     microbench (the CI allocation gate reads these rows back from
     BENCH_fastpath.json) *)
  print_newline ();
  let ev =
    match Cloudmon.Serve_bench.run_eval_comparison Cloudmon.Serve_bench.default_spec with
    | Ok ev -> ev
    | Error msgs -> failwith ("eval comparison failed: " ^ String.concat "; " msgs)
  in
  Printf.printf
    "incremental: %.2f -> %.2f evals/request (%.2fx reduction), %d replays, \
     %.1f%% node hits\n"
    ev.Cloudmon.Serve_bench.ev_full_per_req ev.Cloudmon.Serve_bench.ev_inc_per_req
    ev.Cloudmon.Serve_bench.ev_reduction ev.Cloudmon.Serve_bench.ev_replays
    (100. *. ev.Cloudmon.Serve_bench.ev_node_hit_rate);
  Printf.printf "memoized-hit check: %.1f ns, %.2f minor words/check\n"
    ev.Cloudmon.Serve_bench.ev_hit_ns ev.Cloudmon.Serve_bench.ev_hit_minor_words;
  if !json_output then begin
    let base_rows =
      List.map
        (fun (name, ns, r2) ->
          Json.obj
            [ ("benchmark", Json.string name);
              ("ns_per_run", Json.float ns);
              ("r2", Json.float r2)
            ])
        rows
    in
    let inc_rows =
      [ Json.obj
          [ ("benchmark", Json.string "incremental/memoized-hit-check");
            ("ns_per_run", Json.float ev.Cloudmon.Serve_bench.ev_hit_ns);
            ("r2", Json.float 1.0);
            ( "minor_words_per_check",
              Json.float ev.Cloudmon.Serve_bench.ev_hit_minor_words )
          ];
        Json.obj
          [ ("benchmark", Json.string "incremental/evals-per-request-full");
            ("evals_per_request", Json.float ev.Cloudmon.Serve_bench.ev_full_per_req)
          ];
        Json.obj
          [ ("benchmark", Json.string "incremental/evals-per-request-incremental");
            ("evals_per_request", Json.float ev.Cloudmon.Serve_bench.ev_inc_per_req)
          ];
        Json.obj
          [ ("benchmark", Json.string "incremental/eval-reduction");
            ("factor", Json.float ev.Cloudmon.Serve_bench.ev_reduction)
          ]
      ]
    in
    let doc = Json.list (base_rows @ inc_rows) in
    let oc = open_out "BENCH_fastpath.json" in
    output_string oc (Cm_json.Printer.to_string_pretty doc);
    output_string oc "\n";
    close_out oc;
    Printf.printf "\nwrote BENCH_fastpath.json (%d rows)\n"
      (List.length rows + List.length inc_rows)
  end

let section_resilience () =
  banner "A8: resilient forwarding overhead (fault-free, policy on vs off)";
  let module Json = Cm_json.Json in
  let fx = Workloads.make_fixture () in
  let service =
    match
      Cm_cloudsim.Cloud.login fx.Workloads.cloud ~user:"svc" ~password:"svc"
        ~project_id:"myProject"
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let resilient_monitor policy =
    match
      Cm_monitor.Monitor.create
        (Cm_monitor.Monitor.default_config ~mode:Cm_monitor.Monitor.Oracle
           ~service_token:service ~security ~resilience:policy
           Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior)
        (Cm_cloudsim.Cloud.handle fx.Workloads.cloud)
    with
    | Ok m -> m
    | Error msgs -> failwith (String.concat "; " msgs)
  in
  let m_default = resilient_monitor Cm_monitor.Resilience.default in
  let m_verified =
    resilient_monitor
      { Cm_monitor.Resilience.default with
        Cm_monitor.Resilience.verified_reads = true
      }
  in
  let request = Workloads.get_volume_request fx in
  let tests =
    Bechamel.Test.make_grouped ~name:"resilience"
      [ Bechamel.Test.make ~name:"handle-resilience-off"
          (staged (fun () ->
               ignore
                 (Cm_monitor.Monitor.handle fx.Workloads.monitor_oracle request)));
        Bechamel.Test.make ~name:"handle-resilience-on"
          (staged (fun () ->
               ignore (Cm_monitor.Monitor.handle m_default request)));
        Bechamel.Test.make ~name:"handle-verified-reads"
          (staged (fun () ->
               ignore (Cm_monitor.Monitor.handle m_verified request)))
      ]
  in
  let rows = run_group_rows ~quota_s:0.5 tests in
  let ns_of suffix =
    List.find_map
      (fun (name, ns, _) ->
        if String.ends_with ~suffix name then Some ns else None)
      rows
  in
  print_newline ();
  let overhead =
    match ns_of "resilience-off", ns_of "resilience-on" with
    | Some off, Some on when off > 0. ->
      let pct = (on -. off) /. off *. 100. in
      Printf.printf
        "resilience layer, fault-free: %+.1f%% per request (%.0f ns -> %.0f \
         ns; target < 10%%)\n"
        pct off on;
      Some pct
    | _ ->
      print_endline "resilience layer overhead: n/a";
      None
  in
  (match ns_of "resilience-off", ns_of "verified-reads" with
   | Some off, Some on when off > 0. ->
     Printf.printf
       "with verified reads (chaos policy): %+.1f%% (doubles observation \
        GETs by design)\n"
       ((on -. off) /. off *. 100.)
   | _ -> ());
  if !json_output then begin
    let doc =
      Json.obj
        [ ( "rows",
            Json.list
              (List.map
                 (fun (name, ns, r2) ->
                   Json.obj
                     [ ("benchmark", Json.string name);
                       ("ns_per_run", Json.float ns);
                       ("r2", Json.float r2)
                     ])
                 rows) );
          ( "overhead_percent",
            match overhead with Some p -> Json.float p | None -> Json.Null )
        ]
    in
    let oc = open_out "BENCH_resilience.json" in
    output_string oc (Cm_json.Printer.to_string_pretty doc);
    output_string oc "\n";
    close_out oc;
    Printf.printf "\nwrote BENCH_resilience.json (%d rows)\n" (List.length rows)
  end

let section_journal () =
  banner "A11: durable event journal (append cost, 100k-event recovery scan)";
  let module Json = Cm_json.Json in
  let module Device = Cm_journal.Device in
  let module Journal = Cm_journal.Journal in
  let module Event = Cm_journal.Event in
  let module Jmonitor = Cm_journal.Jmonitor in
  let events = if !quick then 10_000 else 100_000 in
  let clock = Cm_core.Clock.create () in
  let device = Device.create ~clock ~seed:17 () in
  let journal = Journal.create device in
  (* a realistic mix: every exchange journals a Request and a Verdict *)
  let request i =
    Event.Request
      { seq = i;
        rid = Printf.sprintf "stp-%d" i;
        req =
          Cm_http.Request.make
            ~headers:
              (Cm_http.Headers.of_list
                 [ ("X-Auth-Token", "tok-4-alice");
                   ("X-Request-Id", Printf.sprintf "stp-%d" i)
                 ])
            Cm_http.Meth.GET
            (Printf.sprintf "/v3/myProject/volumes/vol-%d" (i mod 97))
      }
  in
  let verdict i =
    Event.Verdict
      { Event.v_seq = i; v_rid = Printf.sprintf "stp-%d" i; v_meth = "GET";
        v_path = Printf.sprintf "/v3/myProject/volumes/vol-%d" (i mod 97);
        v_status = 200; v_conformance = "conform"; v_detail = "";
        v_covered = [ "1.1" ];
        v_body =
          Some
            (Json.obj
               [ ("volume", Json.obj [ ("id", Json.string "vol-1") ]) ])
      }
  in
  let t0 = Unix.gettimeofday () in
  for i = 1 to events / 2 do
    Journal.append journal (request i);
    Journal.append journal (verdict i);
    if i mod 8 = 0 then Journal.sync journal
  done;
  Journal.sync journal;
  let append_s = Unix.gettimeofday () -. t0 in
  let append_ns = append_s *. 1e9 /. float_of_int events in
  Printf.printf "append: %d events in %.1f ms (%.0f ns/event, %d syncs)\n"
    events (append_s *. 1000.) append_ns (Device.syncs device);
  let t0 = Unix.gettimeofday () in
  let scanned, _clean = Journal.scan device in
  let scan_s = Unix.gettimeofday () -. t0 in
  Printf.printf "recovery scan: %d events, %d bytes in %.1f ms\n"
    (List.length scanned) (Device.size device) (scan_s *. 1000.);
  (* end-to-end recovery of a real recorded run: scan + rebuild +
     finish the in-flight exchange *)
  let module Scenario = Cm_mutation.Scenario in
  let recover_ms =
    match Scenario.setup_journaled () with
    | Error msgs -> failwith (String.concat "; " msgs)
    | Ok ctx ->
      let _ = Scenario.jrun_trace ctx Cm_workload.Workload.standard_trace in
      Jmonitor.sync ctx.Scenario.jmon;
      Device.crash ctx.Scenario.jdevice;
      let t0 = Unix.gettimeofday () in
      (match Scenario.jrecover ctx with
       | Error msgs -> failwith (String.concat "; " msgs)
       | Ok _ -> ());
      (Unix.gettimeofday () -. t0) *. 1000.
  in
  Printf.printf "end-to-end recovery (standard trace, torn tail): %.2f ms\n"
    recover_ms;
  if !json_output then begin
    let doc =
      Json.obj
        [ ("events", Json.int events);
          ("append_ns_per_event", Json.float append_ns);
          ("scan_ms", Json.float (scan_s *. 1000.));
          ("journal_bytes", Json.int (Device.size device));
          ("recover_standard_ms", Json.float recover_ms)
        ]
    in
    let oc = open_out "BENCH_journal.json" in
    output_string oc (Cm_json.Printer.to_string_pretty doc);
    output_string oc "\n";
    close_out oc;
    print_endline "\nwrote BENCH_journal.json"
  end

let section_throughput () =
  banner
    "B5: sharded multicore serving (domain scaling, footprint pruning, \
     observation cache)";
  let spec =
    if !quick then
      { Cloudmon.Serve_bench.default_spec with
        Cloudmon.Serve_bench.projects = 4;
        requests_per_project = 15
      }
    else Cloudmon.Serve_bench.default_spec
  in
  (match Cloudmon.Serve_bench.run ~spec () with
   | Error msgs -> List.iter print_endline msgs
   | Ok report ->
     print_string (Cloudmon.Serve_bench.render report);
     if !json_output then begin
       let oc = open_out "BENCH_throughput.json" in
       output_string oc
         (Cm_json.Printer.to_string_pretty (Cloudmon.Serve_bench.to_json report));
       output_string oc "\n";
       close_out oc;
       print_endline "\nwrote BENCH_throughput.json"
     end);
  (* the per-phase breakdown the timings flag surfaces in Report *)
  let fx = Workloads.make_fixture () in
  let service =
    match
      Cm_cloudsim.Cloud.login fx.Workloads.cloud ~user:"svc" ~password:"svc"
        ~project_id:"myProject"
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  (match
     Cm_monitor.Monitor.create
       (Cm_monitor.Monitor.default_config ~mode:Cm_monitor.Monitor.Oracle
          ~service_token:service ~security ~timings:true
          Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior)
       (Cm_cloudsim.Cloud.handle fx.Workloads.cloud)
   with
   | Error msgs -> List.iter print_endline msgs
   | Ok monitor ->
     let request = Workloads.get_volume_request fx in
     for _ = 1 to 200 do
       ignore (Cm_monitor.Monitor.handle monitor request)
     done;
     let outcomes = Cm_monitor.Monitor.outcomes monitor in
     print_newline ();
     print_string
       (Cm_monitor.Report.render
          (Cm_monitor.Report.summarize outcomes)
          ~coverage:[]))

let section_explore () =
  banner "A4: randomized conformance exploration";
  (match Cm_mutation.Explorer.run ~config:{ Cm_mutation.Explorer.seed = 42; steps = 300 } () with
   | Error msgs -> List.iter print_endline msgs
   | Ok result ->
     print_endline "correct cloud, seed 42, 300 steps:";
     print_string (Cm_mutation.Explorer.render result));
  (match Cm_mutation.Mutant.find "M1-delete-privilege-escalation" with
   | None -> ()
   | Some m ->
     (match
        Cm_mutation.Explorer.run
          ~config:{ Cm_mutation.Explorer.seed = 42; steps = 300 }
          ~faults:m.Cm_mutation.Mutant.faults ()
      with
      | Error msgs -> List.iter print_endline msgs
      | Ok result ->
        Printf.printf
          "\nmutated cloud (M1), same walk: %d violations discovered\n"
          (List.length result.Cm_mutation.Explorer.violations)))

let section_evolution () =
  banner "A5: release regression check (the conclusion's use case)";
  let sample = Cm_uml.Analysis.cinder_sample () in
  let table = Cm_rbac.Security_table.cinder in
  let assignment = Cm_rbac.Security_table.cinder_assignment in
  (* a "new release" that opens DELETE to members and drops the in-use
     guard *)
  let bad_table =
    List.map
      (fun (e : Cm_rbac.Security_table.entry) ->
        if e.meth = Cm_http.Meth.DELETE then
          { e with Cm_rbac.Security_table.roles = [ "admin"; "member" ] }
        else e)
      table
  in
  let bad_machine =
    { Cm_uml.Cinder_model.behavior with
      Cm_uml.Behavior_model.transitions =
        List.map
          (fun (tr : Cm_uml.Behavior_model.transition) ->
            if tr.trigger.meth = Cm_http.Meth.DELETE then
              { tr with guard = None }
            else tr)
          Cm_uml.Cinder_model.behavior.Cm_uml.Behavior_model.transitions
    }
  in
  match
    Cm_contracts.Evolution.compare
      ~old_version:(Cm_uml.Cinder_model.behavior, table, assignment)
      ~new_version:(bad_machine, bad_table, assignment)
      ~sample
  with
  | Error msg -> print_endline msg
  | Ok report -> print_string (Cm_contracts.Evolution.render report)

let section_audit () =
  banner "A6: attack-surface audit (every URI safeguarded?, SI)";
  let fx = Workloads.make_fixture () in
  print_string
    (Cm_monitor.Audit.render (Cm_monitor.Audit.surface fx.Workloads.monitor_oracle))

let section_glance () =
  banner "G1: the Glance-like image service (second worked example)";
  print_string
    (Cm_rbac.Security_table.render ~resources:[ "image" ]
       Cm_rbac.Security_table.glance Cm_rbac.Security_table.cinder_assignment);
  print_newline ();
  (match
     Cm_contracts.Generate.contract_for
       ~security:
         { Cm_contracts.Generate.table = Cm_rbac.Security_table.glance;
           assignment = Cm_rbac.Security_table.cinder_assignment
         }
       Cm_uml.Glance_model.behavior
       { Cm_uml.Behavior_model.meth = Cm_http.Meth.DELETE; resource = "image" }
   with
   | Error msg -> print_endline ("ERROR: " ^ msg)
   | Ok contract -> Fmt.pr "%a@." Cm_contracts.Contract.pp contract);
  (match Cm_uml.Paths.derive Cm_uml.Glance_model.resources with
   | Error msg -> print_endline ("ERROR: " ^ msg)
   | Ok entries ->
     print_endline "\nderived URI table:";
     List.iter
       (fun (e : Cm_uml.Paths.entry) ->
         Printf.printf "  %-12s %-10s %s\n" e.resource
           (if e.is_item then "item" else "collection")
           (Cm_http.Uri_template.to_string e.template))
       entries)

let section_testgen () =
  banner "A2: model-generated test campaign vs hand-written scenario";
  let machine = Cm_uml.Cinder_model.behavior in
  let table = Cm_rbac.Security_table.cinder in
  let assignment = Cm_rbac.Security_table.cinder_assignment in
  let cases = Cm_testgen.Plan.all machine ~table ~assignment in
  Printf.printf
    "generated %d cases (%d positive, %d authorization probes, %d boundary)\n\n"
    (List.length cases)
    (List.length (Cm_testgen.Plan.positive_cases machine ~table ~assignment))
    (List.length (Cm_testgen.Plan.negative_cases machine ~table ~assignment))
    (List.length (Cm_testgen.Plan.boundary_cases machine ~table ~assignment));
  Printf.printf "%-38s %-18s %s\n" "mutant" "generated suite" "hand-written scenario";
  Printf.printf "%s\n" (String.make 84 '-');
  let scenario_kills faults =
    match Cm_mutation.Scenario.setup ~faults () with
    | Error _ -> false
    | Ok ctx ->
      Cm_mutation.Scenario.standard ctx;
      Cm_monitor.Report.violations
        (Cm_monitor.Monitor.outcomes ctx.Cm_mutation.Scenario.monitor)
      <> []
  in
  let generated_kills faults =
    let report =
      Cm_testgen.Execute.run ~table ~machine
        (Cm_testgen.Cinder_driver.driver ~faults ())
        cases
    in
    report.Cm_testgen.Execute.bugs > 0
  in
  let cell b = if b then "killed" else "SURVIVED" in
  Printf.printf "%-38s %-18s %s\n" "(baseline)"
    (cell (generated_kills Cm_cloudsim.Faults.none) = "SURVIVED"
     |> fun clean -> if clean then "clean" else "DIRTY")
    (if scenario_kills Cm_cloudsim.Faults.none then "DIRTY" else "clean");
  List.iter
    (fun m ->
      Printf.printf "%-38s %-18s %s\n" m.Cm_mutation.Mutant.name
        (cell (generated_kills m.Cm_mutation.Mutant.faults))
        (cell (scenario_kills m.Cm_mutation.Mutant.faults)))
    Cm_mutation.Mutant.all;
  print_endline
    "\n(M5 delete-in-use needs the unmodelled attach action: only the\n\
    \ hand-written scenario reaches it -- a measured coverage limit of\n\
    \ purely model-derived tests)"

let section_localize () =
  banner "A3: trace serialization and fault localization";
  match Cm_mutation.Mutant.find "M1-delete-privilege-escalation" with
  | None -> print_endline "mutant missing"
  | Some m ->
    (match Cm_mutation.Scenario.setup ~faults:m.Cm_mutation.Mutant.faults () with
     | Error msgs -> List.iter print_endline msgs
     | Ok ctx ->
       Cm_mutation.Scenario.standard ctx;
       let outcomes =
         Cm_monitor.Monitor.outcomes ctx.Cm_mutation.Scenario.monitor
       in
       let jsonl = Cm_monitor.Trace.to_jsonl outcomes in
       Printf.printf "trace: %d exchanges, %d bytes of JSONL\n"
         (List.length outcomes) (String.length jsonl);
       (match Cm_monitor.Trace.of_jsonl jsonl with
        | Ok decoded ->
          Printf.printf "round-trip: OK (%d exchanges decoded)\n\n"
            (List.length decoded);
          print_string
            (Cm_monitor.Trace.render_localization
               (Cm_monitor.Trace.localize decoded))
        | Error msg -> print_endline ("round-trip FAILED: " ^ msg)))

(* ---------- driver ---------- *)

let sections =
  [ ("table1", section_table1);
    ("listing1", section_listing1);
    ("listing23", section_listing23);
    ("fig2", section_fig2);
    ("fig3", section_fig3);
    ("fig4", section_fig4);
    ("mutants", section_mutants);
    ("overhead", section_overhead);
    ("scaling", section_scaling);
    ("ocl", section_ocl);
    ("ablation", section_ablation);
    ("fastpath", section_fastpath);
    ("resilience", section_resilience);
    ("journal", section_journal);
    ("throughput", section_throughput);
    ("testgen", section_testgen);
    ("localize", section_localize);
    ("glance", section_glance);
    ("explore", section_explore);
    ("evolution", section_evolution);
    ("audit", section_audit)
  ]

let () =
  let names =
    List.filter
      (function
        | "--quick" ->
          quick := true;
          false
        | "--json" ->
          json_output := true;
          false
        | _ -> true)
      (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match names with [] -> List.map fst sections | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some section -> section ()
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 2)
    requested
