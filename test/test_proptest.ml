(* The property-based fuzzing subsystem: corpus replay first (every
   checked-in regression must stay fixed), then the harness's own
   guarantees — PRNG determinism, generator well-typedness, shrinker
   behaviour — then bounded fuzz budgets over the engine, rbac, codegen
   and monitor oracles. *)

module Rng = Cm_proptest.Rng
module Shrink = Cm_proptest.Shrink
module Ocl_gen = Cm_proptest.Ocl_gen
module Workload = Cm_workload.Workload
module Corpus = Cm_proptest.Corpus
module Oracle = Cm_proptest.Oracle
module Runner = Cm_proptest.Runner
module Typecheck = Cm_ocl.Typecheck
module Pretty = Cm_ocl.Pretty

let corpus_path = "corpus/regressions.fuzz"

let corpus_tests =
  [ Alcotest.test_case "every checked-in regression replays clean" `Quick
      (fun () ->
        match Corpus.load corpus_path with
        | Error msg -> Alcotest.failf "corpus does not parse: %s" msg
        | Ok entries ->
          Alcotest.(check bool) "corpus is not empty" true (entries <> []);
          let failing = Runner.replay_corpus Oracle.all entries in
          List.iter
            (fun ((e : Corpus.entry), detail) ->
              Printf.printf "CORPUS FAIL %s case %d: %s\n" e.oracle e.index
                detail)
            failing;
          Alcotest.(check int) "no corpus entry fails" 0 (List.length failing));
    Alcotest.test_case "entry line round-trip" `Quick (fun () ->
        let entry =
          Corpus.make ~oracle:"engine" ~seed:42 ~index:7 ~size:5
            [ ("expr", "pre(true) implies pre(true)"); ("note", "kleene") ]
        in
        match Corpus.of_line (Corpus.to_line entry) with
        | Ok reread -> Alcotest.(check bool) "identical" true (reread = entry)
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "malformed trace= or steps= fails replay" `Quick
      (fun () ->
        List.iter
          (fun payload ->
            let entry =
              Corpus.make ~oracle:"monitor" ~seed:42 ~index:1 ~size:3 payload
            in
            match Oracle.monitor.replay entry with
            | Ok () -> Alcotest.failf "replayed clean: %s" (Corpus.to_line entry)
            | Error _ -> ())
          [ [ ("mutant", "M1-delete-privilege-escalation");
              ("trace", "admin create-volume #0 \"p1\" size=1; member delete")
            ];
            [ ("mix", "read-heavy"); ("wl_seed", "42"); ("steps", "4O") ];
            [ ("mutant", "M1-delete-privilege-escalation");
              ("config", "oracle/chaos/per-request");
              ("chaos", "chaos{lat=1+2}"); ("chaos_seed", "7")
            ];
            [ ("mutant", "M1-delete-privilege-escalation");
              ("config", "oracle/flaky")
            ] ])
  ]

let rng_tests =
  [ Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let draw rng = List.init 32 (fun _ -> Rng.bits64 rng) in
        Alcotest.(check bool) "identical outputs" true
          (draw (Rng.of_seed 42) = draw (Rng.of_seed 42));
        Alcotest.(check bool) "different seeds differ" false
          (draw (Rng.of_seed 42) = draw (Rng.of_seed 43)));
    Alcotest.test_case "case streams are replayable in isolation" `Quick
      (fun () ->
        (* Case i's stream must not depend on whether cases 0..i-1 were
           generated — it is derived directly from (seed, i). *)
        let direct = Rng.bits64 (Rng.case ~seed:7 500) in
        let after_others =
          for i = 0 to 499 do
            ignore (Rng.bits64 (Rng.case ~seed:7 i))
          done;
          Rng.bits64 (Rng.case ~seed:7 500)
        in
        Alcotest.(check bool) "identical" true (direct = after_others);
        Alcotest.(check bool) "cases decorrelated" false
          (Rng.bits64 (Rng.case ~seed:7 0) = Rng.bits64 (Rng.case ~seed:7 1)));
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let rng = Rng.of_seed 1 in
        let a = Rng.split rng in
        let b = Rng.split rng in
        let b_first = Rng.bits64 (Rng.copy b) in
        (* Consuming a lot from [a] must not perturb [b]. *)
        for _ = 1 to 100 do
          ignore (Rng.bits64 a)
        done;
        Alcotest.(check bool) "b unaffected by a" true
          (Rng.bits64 b = b_first));
    Alcotest.test_case "bounded draws stay in range" `Quick (fun () ->
        let rng = Rng.of_seed 3 in
        for _ = 1 to 1000 do
          let n = Rng.int rng 7 in
          if n < 0 || n >= 7 then Alcotest.failf "int out of range: %d" n;
          let m = Rng.int_in rng (-3) 3 in
          if m < -3 || m > 3 then Alcotest.failf "int_in out of range: %d" m
        done;
        (* All residues are reachable. *)
        let seen = Array.make 7 false in
        for _ = 1 to 500 do
          seen.(Rng.int rng 7) <- true
        done;
        Alcotest.(check bool) "full support" true
          (Array.for_all Fun.id seen))
  ]

let gen_tests =
  [ Alcotest.test_case "generated expressions are well-typed" `Quick (fun () ->
        for index = 0 to 199 do
          let rng = Rng.case ~seed:11 index in
          let size = 2 + (index mod 10) in
          let expr = Ocl_gen.gen_bool rng ~size in
          if not (Typecheck.well_typed Ocl_gen.signature expr) then
            Alcotest.failf "ill-typed at case %d: %s" index
              (Pretty.to_string expr)
        done);
    Alcotest.test_case "generation is a pure function of the stream" `Quick
      (fun () ->
        let gen i = Ocl_gen.gen_bool (Rng.case ~seed:5 i) ~size:8 in
        for i = 0 to 49 do
          Alcotest.(check string)
            (Printf.sprintf "case %d" i)
            (Pretty.to_string (gen i))
            (Pretty.to_string (gen i))
        done);
    Alcotest.test_case "chaos profiles round-trip" `Quick (fun () ->
        (* a corpus entry records its chaos profile as [describe] text *)
        for seed = 0 to 199 do
          let profile =
            Cm_proptest.Chaos_gen.gen_profile (Rng.of_seed seed)
              ~size:(2 + (seed mod 10))
          in
          Alcotest.(check bool)
            (Printf.sprintf "profile %d" seed)
            true
            (Cm_proptest.Chaos_gen.parse
               (Cm_proptest.Chaos_gen.describe profile)
            = Some profile)
        done;
        Alcotest.(check bool) "truncated text is rejected" true
          (Cm_proptest.Chaos_gen.parse "chaos{lat=1+2}" = None));
    Alcotest.test_case "trace serialization round-trips" `Quick (fun () ->
        (* monitor cases (probe traces and mixes), every named mix at
           100 seeds, and a name that needs quoting *)
        let traces =
          List.init 100 (fun index ->
              Oracle.monitor_trace ~seed:13 ~index ~size:(2 + (index mod 10)))
          @ List.concat_map
              (fun (mix : Workload.mix) ->
                List.init 100 (fun seed -> mix.Workload.compile ~seed))
              Workload.mixes
          @ [ [ { Workload.actor = Workload.Admin;
                  op = Workload.Rename_volume (Workload.Fresh 0, "a; \"b\"\t\\")
                } ] ]
        in
        List.iteri
          (fun i trace ->
            match Workload.of_line (Workload.to_line trace) with
            | Ok reread ->
              Alcotest.(check bool) (Printf.sprintf "trace %d" i) true
                (reread = trace)
            | Error msg -> Alcotest.fail msg)
          traces)
  ]

let shrink_tests =
  [ Alcotest.test_case "list minimization reaches a single element" `Quick
      (fun () ->
        let input = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
        let still_fails l = List.mem 5 l in
        let shrunk, steps =
          Shrink.minimize ~candidates:Shrink.shrink_list ~still_fails input
        in
        Alcotest.(check (list int)) "minimal witness" [ 5 ] shrunk;
        Alcotest.(check bool) "made progress" true (steps > 0));
    Alcotest.test_case "budget caps evaluations" `Quick (fun () ->
        let evals = ref 0 in
        let still_fails _ =
          incr evals;
          true
        in
        let candidates x = [ x ] in
        ignore
          (Shrink.minimize ~budget:25 ~candidates ~still_fails [ 1; 2; 3 ]);
        Alcotest.(check bool) "bounded" true (!evals <= 25));
    Alcotest.test_case "expression shrinking preserves the property" `Quick
      (fun () ->
        let open Cm_ocl.Ast in
        let rec mentions_x = function
          | Var "x" -> true
          | Bool_lit _ | Int_lit _ | String_lit _ | Null_lit | Var _ -> false
          | Nav (e, _) | At_pre e | Coll (e, _) | Unop (_, e) -> mentions_x e
          | Member (a, _, b) | Count (a, b) | Binop (_, a, b) ->
            mentions_x a || mentions_x b
          | Iter (e, _, _, body) -> mentions_x e || mentions_x body
        in
        let expr =
          Binop
            ( And,
              Binop (Eq, Var "x", Int_lit 1),
              Binop (Or, Bool_lit true, Bool_lit false) )
        in
        let shrunk, _ =
          Shrink.minimize ~candidates:Ocl_gen.shrink_expr
            ~still_fails:mentions_x expr
        in
        Alcotest.(check bool) "still mentions x" true (mentions_x shrunk);
        Alcotest.(check bool) "strictly smaller" true
          (String.length (Pretty.to_string shrunk)
          < String.length (Pretty.to_string expr)))
  ]

let check_clean name report =
  List.iter
    (fun (f : Oracle.failure) ->
      Printf.printf "FUZZ FAIL %s case %d: %s\n  %s\n" f.oracle f.index
        f.detail f.repr)
    report.Runner.failures;
  Alcotest.(check int) (name ^ " has no failures") 0
    (List.length report.Runner.failures)

let oracle_tests =
  [ Alcotest.test_case "engine differential: 300 cases" `Quick (fun () ->
        check_clean "engine"
          (Runner.run ~oracles:[ Oracle.engine ] ~seed:42 ~cases:300 ()));
    Alcotest.test_case "rbac differential: 200 cases" `Quick (fun () ->
        check_clean "rbac"
          (Runner.run ~oracles:[ Oracle.rbac ] ~seed:42 ~cases:200 ()));
    Alcotest.test_case "codegen round-trip: 200 cases" `Quick (fun () ->
        check_clean "codegen"
          (Runner.run ~oracles:[ Oracle.codegen ] ~seed:42 ~cases:200 ()));
    Alcotest.test_case "monitor differential + mutants: 25 cases" `Quick
      (fun () ->
        check_clean "monitor"
          (Runner.run ~oracles:[ Oracle.monitor ] ~seed:42 ~cases:25 ()))
  ]

let runner_tests =
  [ Alcotest.test_case "budget allocation is exact" `Quick (fun () ->
        List.iter
          (fun cases ->
            let plan = Runner.allocate ~cases Oracle.all in
            let total = List.fold_left (fun acc (_, n) -> acc + n) 0 plan in
            Alcotest.(check int)
              (Printf.sprintf "sums to %d" cases)
              cases total)
          [ 0; 1; 7; 100; 2000 ]);
    Alcotest.test_case "a 10k run covers every production configuration"
      `Quick (fun () ->
        let cases =
          List.assq Oracle.monitor (Runner.allocate ~cases:10_000 Oracle.all)
        in
        let schedule = List.init cases Oracle.monitor_schedule in
        let under config p =
          List.length
            (List.filter
               (fun (what, c) -> String.starts_with ~prefix:config c && p what)
               schedule)
        in
        List.iter
          (fun config ->
            Alcotest.(check bool) (config ^ " runs a quarter") true
              (4 * under config (fun _ -> true) >= cases);
            List.iter
              (fun (m : Cm_mutation.Mutant.t) ->
                Alcotest.(check bool)
                  (m.name ^ " is probed under " ^ config)
                  true
                  (under config (String.equal ("probe " ^ m.name)) > 0))
              Cm_mutation.Mutant.all;
            (* each seeded mix meets every configuration; the fixed mixes
               run once under each, since a repeat is the same run *)
            List.iter
              (fun (mix : Workload.mix) ->
                let name = mix.Workload.mix_name in
                let runs = under config (String.equal ("mix " ^ name)) in
                match name with
                | "standard" | "cross" ->
                  Alcotest.(check int) (name ^ " once under " ^ config) 1 runs
                | _ ->
                  Alcotest.(check bool) (name ^ " under " ^ config) true
                    (runs > 0))
              Workload.mixes)
          [ "oracle/per-request"; "enforce/cross-request"; "enforce/journaled";
            "oracle/chaos/"
          ];
        (* chaos cases alternate the two cache scopes, probes and mixes
           alike *)
        List.iter
          (fun config ->
            List.iter
              (fun kind ->
                Alcotest.(check bool) (kind ^ "cases under " ^ config) true
                  (under config (String.starts_with ~prefix:kind) > 0))
              [ "probe "; "mix " ])
          [ "oracle/chaos/per-request"; "oracle/chaos/cross-request" ]);
    Alcotest.test_case "report is deterministic" `Quick (fun () ->
        let render () =
          Runner.render (Runner.run ~seed:9 ~cases:120 ())
        in
        Alcotest.(check string) "identical renders" (render ()) (render ()))
  ]

let () =
  Alcotest.run "cm_proptest"
    [ ("corpus-replay", corpus_tests);
      ("rng", rng_tests);
      ("generators", gen_tests);
      ("shrinking", shrink_tests);
      ("oracles", oracle_tests);
      ("runner", runner_tests)
    ]
