(* Incremental evaluation: the change-tracking layer of
   {!Cm_ocl.Compile} (slot diffing, epoch invalidation, memoized
   replay, strict disjunction) and its end-to-end equivalence, through
   the monitor runtime, with the interpreter, which re-evaluates every
   check.  The randomized generalization of the same property lives in
   the fuzzer's [monitor] oracle; these are the deterministic unit
   cases. *)

module Compile = Cm_ocl.Compile
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module Runtime = Cm_contracts.Runtime
module Scenario = Cm_mutation.Scenario
module Monitor = Cm_monitor.Monitor
module Outcome = Cm_monitor.Outcome
module Json = Cm_json.Json

let parse text =
  match Cm_ocl.Ocl_parser.parse text with
  | Ok expr -> expr
  | Error err -> Alcotest.failf "parse %S: %a" text Cm_ocl.Ocl_parser.pp_error err

let env_ab ?a ?b () =
  Eval.env_of_bindings
    ((match a with Some n -> [ ("a", Json.int n) ] | None -> [])
    @ (match b with Some n -> [ ("b", Json.int n) ] | None -> []))

let sync _ = true

(* ---- delta computation ---- *)

let test_refresh_counts_changes () =
  let plan = Compile.plan () in
  let _ta = Compile.compile_tracked plan (parse "a > 1") in
  let _tb = Compile.compile_tracked plan (parse "b > 1") in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  let changed = Compile.refresh plan memo frame (env_ab ~a:2 ~b:0 ()) ~sync in
  Alcotest.(check int) "first refresh writes both slots" 2 changed;
  let changed = Compile.refresh plan memo frame (env_ab ~a:2 ~b:0 ()) ~sync in
  Alcotest.(check int) "identical environment changes nothing" 0 changed;
  let changed = Compile.refresh plan memo frame (env_ab ~a:7 ~b:0 ()) ~sync in
  Alcotest.(check int) "one mutated root, one changed slot" 1 changed

let test_refresh_epoch_stable_when_unchanged () =
  let plan = Compile.plan () in
  let _t = Compile.compile_tracked plan (parse "a > 1") in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  ignore (Compile.refresh plan memo frame (env_ab ~a:2 ()) ~sync);
  let epoch = Compile.epoch memo in
  for _ = 1 to 5 do
    ignore (Compile.refresh plan memo frame (env_ab ~a:2 ()) ~sync)
  done;
  Alcotest.(check int) "no-change refreshes keep the epoch" epoch
    (Compile.epoch memo)

let test_refresh_sync_skips_roots () =
  let plan = Compile.plan () in
  let _ta = Compile.compile_tracked plan (parse "a > 1") in
  let _tb = Compile.compile_tracked plan (parse "b > 1") in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  ignore (Compile.refresh plan memo frame (env_ab ~a:2 ~b:2 ()) ~sync);
  (* both roots mutated, but only [a] is synced *)
  let changed =
    Compile.refresh plan memo frame (env_ab ~a:9 ~b:9 ())
      ~sync:(fun name -> name = "a")
  in
  Alcotest.(check int) "skipped root not diffed in" 1 changed

(* ---- epoch invalidation ---- *)

let test_change_invalidates_dependents_only () =
  let plan = Compile.plan () in
  let ta = Compile.compile_tracked plan (parse "a > 1") in
  let tb = Compile.compile_tracked plan (parse "b > 1") in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  ignore (Compile.refresh plan memo frame (env_ab ~a:2 ~b:2 ()) ~sync);
  ignore (Compile.eval ta.Compile.run frame);
  ignore (Compile.eval tb.Compile.run frame);
  Alcotest.(check bool) "a cached after evaluation" true
    (Compile.cached memo ta);
  Alcotest.(check bool) "b cached after evaluation" true
    (Compile.cached memo tb);
  ignore (Compile.refresh plan memo frame (env_ab ~a:0 ~b:2 ()) ~sync);
  Alcotest.(check bool) "changing a invalidates a's verdict" false
    (Compile.cached memo ta);
  Alcotest.(check bool) "b untouched, verdict replayable" true
    (Compile.cached memo tb);
  Alcotest.(check bool) "replayed b verdict is the cached True" true
    (Value.truth (Compile.cached_value memo tb) = Value.True)

let test_replay_equals_reevaluation () =
  let plan = Compile.plan () in
  let t = Compile.compile_tracked plan (parse "a > 1 and b > 1") in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  let reference = Compile.plan () in
  let ref_t = Compile.compile reference (parse "a > 1 and b > 1") in
  List.iter
    (fun (a, b) ->
      let env = env_ab ?a ?b () in
      ignore (Compile.refresh plan memo frame env ~sync);
      let live = Compile.eval t.Compile.run frame in
      (if Compile.cached memo t then
         Alcotest.(check bool)
           (Printf.sprintf "cached verdict matches at a=%s b=%s"
              (match a with Some n -> string_of_int n | None -> "-")
              (match b with Some n -> string_of_int n | None -> "-"))
           true
           (Compile.cached_value memo t = live));
      let fresh = Compile.eval ref_t (Compile.frame_of_env reference env) in
      Alcotest.(check bool) "memoized equals memoless evaluation" true
        (live = fresh))
    [ (Some 2, Some 2); (Some 2, Some 2); (Some 0, Some 2); (Some 2, None);
      (None, None); (Some 2, Some 2); (Some 0, Some 0); (Some 2, Some 2)
    ]

(* A document with a duplicate key reads as its first binding: a frame
   holding [{a:1, b:2}] must see [{a:0, a:1, b:2}] as a change, or the
   memo replays a verdict over a value the interpreter no longer
   reads. *)
let test_duplicate_key_is_a_change () =
  let plan = Compile.plan () in
  let t = Compile.compile_tracked plan (parse "x.a = 1") in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  let env members = Eval.env_of_bindings [ ("x", Json.Obj members) ] in
  let judge members =
    let env = env members in
    ignore (Compile.refresh plan memo frame env ~sync);
    let memoized =
      if Compile.cached memo t then Compile.cached_value memo t
      else Compile.eval t.Compile.run frame
    in
    Alcotest.(check bool)
      "memoized verdict is the interpreter's" true
      (Value.truth memoized = Eval.check env (parse "x.a = 1"))
  in
  judge [ ("a", Json.int 1); ("b", Json.int 2) ];
  judge [ ("a", Json.int 0); ("a", Json.int 1); ("b", Json.int 2) ]

(* ---- strict disjunction ---- *)

let test_strict_disjunction_equivalence () =
  (* Every tribool combination of the two disjuncts: absent bindings
     make a comparison Undef, so a/b in {-, 0, 2} spans
     Unknown/False/True on each side. *)
  let choices = [ None; Some 0; Some 2 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let plan = Compile.plan () in
          let strict =
            Compile.strict_disjunction plan
              [ Compile.compile_tracked plan (parse "a > 1");
                Compile.compile_tracked plan (parse "b > 1")
              ]
          in
          let memo = Compile.make_memo plan in
          let frame = Compile.memo_frame plan memo in
          let env = env_ab ?a ?b () in
          ignore (Compile.refresh plan memo frame env ~sync);
          let got = Value.truth (Compile.eval strict.Compile.run frame) in
          let expected = Eval.check env (parse "a > 1 or b > 1") in
          Alcotest.(check bool)
            (Printf.sprintf "strict or = kleene or at a=%s b=%s"
               (match a with Some n -> string_of_int n | None -> "-")
               (match b with Some n -> string_of_int n | None -> "-"))
            true (got = expected))
        choices)
    choices

let test_strict_disjunction_stamps_all () =
  (* The point of the strict fold: even when the first disjunct already
     decides the verdict, the second one's memo node gets stamped, so a
     later check of the same observation replays it. *)
  let plan = Compile.plan () in
  let ta = Compile.compile_tracked plan (parse "a > 1") in
  let tb = Compile.compile_tracked plan (parse "b > 1") in
  let strict = Compile.strict_disjunction plan [ ta; tb ] in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  ignore (Compile.refresh plan memo frame (env_ab ~a:2 ~b:0 ()) ~sync);
  ignore (Compile.eval strict.Compile.run frame);
  Alcotest.(check bool) "deciding disjunct stamped" true
    (Compile.cached memo ta);
  Alcotest.(check bool) "non-deciding disjunct stamped too" true
    (Compile.cached memo tb)

let test_strict_disjunction_edges () =
  let plan = Compile.plan () in
  let empty = Compile.strict_disjunction plan [] in
  let memo = Compile.make_memo plan in
  let frame = Compile.memo_frame plan memo in
  Alcotest.(check bool) "empty disjunction is False" true
    (Value.truth (Compile.eval empty.Compile.run frame) = Value.False);
  let t = Compile.compile_tracked plan (parse "a > 1") in
  let single = Compile.strict_disjunction plan [ t ] in
  Alcotest.(check bool) "singleton returned unchanged" true (single == t)

(* ---- allocation ---- *)

let test_memoized_hit_allocation () =
  (* The bench gate asserts 0 words with microbench-grade isolation;
     here we only guard against the hot path regrowing an allocating
     closure, so the bound is deliberately tolerant. *)
  let ns, words = Cloudmon.Serve_bench.measure_hit ~checks:20_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "memoized-hit check allocates ~0 words (got %.2f)" words)
    true (words <= 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "memoized-hit check under 1us (got %.0f ns)" ns)
    true (ns <= 1_000.0)

(* ---- end-to-end equivalence through the monitor ---- *)

let outcome_key (o : Outcome.t) =
  Fmt.str "%d|%s|%s"
    o.Outcome.response.Cm_http.Response.status
    (Outcome.conformance_to_string o.Outcome.conformance)
    (String.concat "," o.Outcome.covered_requirements)

(* The monitor and the standard trace's outcomes. *)
let run_standard ?faults () =
  match Scenario.setup ?faults () with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok ctx ->
    (ctx, Scenario.run_trace ctx Cm_workload.Workload.standard_trace)

let run_reference ?faults () =
  match Scenario.setup_reference ?faults () with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok rctx ->
    ( rctx.Scenario.reference,
      Scenario.run_reference rctx Cm_workload.Workload.standard_trace )

let test_modes_agree_on_standard_workload () =
  let reference, reference_outcomes = run_reference () in
  let ctx, outcomes = run_standard () in
  Alcotest.(check (list string))
    "production outcomes identical to the reference's"
    (List.map outcome_key reference_outcomes)
    (List.map outcome_key outcomes);
  let full = Cm_monitor.Reference.evals reference in
  let inc = Monitor.eval_stats ctx.Scenario.monitor in
  Alcotest.(check bool)
    (Printf.sprintf "incremental replays verdicts (%d)" inc.Runtime.replays)
    true
    (inc.Runtime.replays > 0);
  Alcotest.(check bool)
    (Printf.sprintf "incremental evaluates less (%d < %d)" inc.Runtime.evals
       full)
    true
    (inc.Runtime.evals < full)

let killed outcomes =
  List.exists
    (fun (o : Outcome.t) -> Outcome.is_violation o.Outcome.conformance)
    outcomes

let test_kill_matrix_identical () =
  (* The paper experiment generalized: every mutant's kill bit must be
     identical under the reference monitor and production, and every
     mutant must actually be killed. *)
  List.iter
    (fun (mutant : Cm_mutation.Mutant.t) ->
      let faults = mutant.Cm_mutation.Mutant.faults in
      let full = killed (snd (run_reference ~faults ())) in
      let inc = killed (snd (run_standard ~faults ())) in
      Alcotest.(check bool)
        (mutant.Cm_mutation.Mutant.name ^ " killed by the reference")
        true full;
      Alcotest.(check bool)
        (mutant.Cm_mutation.Mutant.name ^ " kill bit preserved in production")
        full inc)
    Cm_mutation.Mutant.all

let () =
  Alcotest.run "cm_incremental"
    [ ( "delta",
        [ Alcotest.test_case "refresh counts changed slots" `Quick
            test_refresh_counts_changes;
          Alcotest.test_case "no-change refresh keeps epoch" `Quick
            test_refresh_epoch_stable_when_unchanged;
          Alcotest.test_case "sync skips unobserved roots" `Quick
            test_refresh_sync_skips_roots
        ] );
      ( "epochs",
        [ Alcotest.test_case "change invalidates dependents only" `Quick
            test_change_invalidates_dependents_only;
          Alcotest.test_case "replay equals re-evaluation" `Quick
            test_replay_equals_reevaluation;
          Alcotest.test_case "a duplicate key's first binding is a change"
            `Quick test_duplicate_key_is_a_change
        ] );
      ( "strict-disjunction",
        [ Alcotest.test_case "kleene equivalence" `Quick
            test_strict_disjunction_equivalence;
          Alcotest.test_case "stamps every disjunct" `Quick
            test_strict_disjunction_stamps_all;
          Alcotest.test_case "empty and singleton" `Quick
            test_strict_disjunction_edges
        ] );
      ( "allocation",
        [ Alcotest.test_case "memoized hit is allocation-free" `Quick
            test_memoized_hit_allocation
        ] );
      ( "monitor",
        [ Alcotest.test_case "modes agree on the standard workload" `Quick
            test_modes_agree_on_standard_workload;
          Alcotest.test_case "kill matrix identical across modes" `Quick
            test_kill_matrix_identical
        ] )
    ]
