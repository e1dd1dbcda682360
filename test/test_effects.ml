(* The static effect-and-monitorability layer (AN010–AN015): write
   effects per trigger, monitorability labels under an explicit observer
   visibility, subscription maps with shard-closure verdicts — and the
   two claims that make them trustworthy: the 10k-case dynamic oracle
   (an event outside a contract's map never changes its verdict) and
   byte-stable golden dumps (drift in the maps fails the build). *)

module BM = Cm_uml.Behavior_model
module Footprint = Cm_ocl.Footprint
module Effects = Cm_analysis.Effects
module Monitorability = Cm_analysis.Monitorability
module Interference = Cm_analysis.Interference
module Crosscheck = Cm_analysis.Crosscheck
module Rules = Cm_analysis.Rules
module Defects = Cm_analysis.Defects
module Lint = Cm_lint.Lint
module Json = Cm_json.Json

let ocl = Cm_ocl.Ocl_parser.parse_exn

let sec table =
  Some
    { Cm_contracts.Generate.table;
      assignment = Cm_rbac.Security_table.cinder_assignment
    }

let cinder =
  { Rules.resources = Cm_uml.Cinder_model.resources;
    behavior = Cm_uml.Cinder_model.behavior;
    security = sec Cm_rbac.Security_table.cinder
  }

let cross =
  { Rules.resources = Cm_uml.Cross_model.resources;
    behavior = Cm_uml.Cross_model.behavior;
    security = sec Cm_rbac.Security_table.cross
  }

let trigger_label (t : BM.trigger) = Fmt.str "%a" BM.pp_trigger t

let events_exn input =
  match Effects.events input with
  | Error msg -> Alcotest.fail msg
  | Ok evs -> evs

let subscriptions_exn input =
  match Interference.subscriptions input with
  | Error msg -> Alcotest.fail msg
  | Ok subs -> subs

let reports_exn ?visibility input =
  match Monitorability.reports ?visibility input with
  | Error msg -> Alcotest.fail msg
  | Ok reports -> reports

let find_event events label =
  match
    List.find_opt
      (fun (e : Effects.event) -> trigger_label e.ev_trigger = label)
      events
  with
  | Some e -> e
  | None -> Alcotest.failf "no event %s" label

let find_sub subs label =
  match
    List.find_opt
      (fun (s : Interference.subscription) ->
        trigger_label s.sub_trigger = label)
      subs
  with
  | Some s -> s
  | None -> Alcotest.failf "no subscription for %s" label

let subscribed s label =
  List.exists
    (fun (e : Effects.event) -> trigger_label e.ev_trigger = label)
    s.Interference.sub_events

(* ---- write effects ---- *)

let test_cinder_events () =
  let events = events_exn cinder in
  (* one per distinct trigger plus the identity pseudo-event, which is
     last *)
  Alcotest.(check int) "event count" 6 (List.length events);
  let last = List.nth events (List.length events - 1) in
  Alcotest.(check bool) "identity last" true last.Effects.ev_identity;
  Alcotest.(check bool) "identity not tenant-keyed" false
    last.Effects.ev_tenant_keyed;
  Alcotest.(check bool) "identity writes the user binding" true
    (Footprint.mentions last.Effects.ev_writes "user");
  (* creation writes the project's volume collection, addressed to one
     tenant *)
  let post = find_event events "POST(volume)" in
  Alcotest.(check bool) "POST writes project.volumes" true
    (Footprint.needs_field post.Effects.ev_writes ~root:"project" "volumes");
  Alcotest.(check bool) "POST tenant-keyed" true post.Effects.ev_tenant_keyed;
  (* safe methods have no write effect — the AN013 invariant the
     test-level shard-safe projection in test_parallel relies on *)
  List.iter
    (fun label ->
      let e = find_event events label in
      Alcotest.(check bool)
        (label ^ " writes nothing")
        true
        (e.Effects.ev_writes = Footprint.empty))
    [ "GET(volume)"; "GET(Volumes)" ]

let test_event_order_is_stable () =
  let one = events_exn cinder and two = events_exn cinder in
  Alcotest.(check (list string)) "same order"
    (List.map (fun (e : Effects.event) -> trigger_label e.ev_trigger) one)
    (List.map (fun (e : Effects.event) -> trigger_label e.ev_trigger) two)

(* ---- monitorability ---- *)

let test_shipped_fully_monitorable () =
  List.iter
    (fun (label, input) ->
      List.iter
        (fun (r : Monitorability.report) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s fully monitorable" label
               (trigger_label r.rep_trigger))
            "fully"
            (Monitorability.label_to_string r.rep_label);
          Alcotest.(check (list string)) "no reasons" [] r.rep_reasons)
        (reports_exn input))
    [ ("cinder", cinder); ("cross", cross) ]

let test_path_prefix_degrades_cross () =
  let visibility =
    { Monitorability.default_visibility with
      Monitorability.cache = Monitorability.Path_prefix
    }
  in
  let reports = reports_exn ~visibility cross in
  let partial =
    List.filter
      (fun (r : Monitorability.report) ->
        r.rep_label = Monitorability.Partially)
      reports
  in
  Alcotest.(check bool)
    "some contract is only partially monitorable under path-prefix caching"
    true (partial <> []);
  (* the shipped observer discharges the same obligations *)
  List.iter
    (fun (r : Monitorability.report) ->
      Alcotest.(check bool) "write-effects discharge" true
        (r.rep_label = Monitorability.Fully))
    (reports_exn cross)

let test_no_pre_state_non_monitorable () =
  let visibility =
    { Monitorability.default_visibility with Monitorability.pre_state = false }
  in
  let reports = reports_exn ~visibility cinder in
  let non =
    List.filter
      (fun (r : Monitorability.report) ->
        r.rep_label = Monitorability.Non_monitorable)
      reports
  in
  (* every contract whose postcondition compares against pre() dies
     without pre-state snapshots — cinder's POST/DELETE/PUT do *)
  Alcotest.(check bool) "pre()-dependent contracts non-monitorable" true
    (List.length non >= 3)

let test_captured_pre_binders () =
  Alcotest.(check (list string)) "binder under pre()" [ "v" ]
    (Monitorability.captured_pre_binders
       (ocl "project.volumes->forAll(v | v.size = pre(v.size))"));
  Alcotest.(check (list string)) "pre() of free state is fine" []
    (Monitorability.captured_pre_binders
       (ocl "project.volumes->size() = pre(project.volumes->size()) + 1"))

(* ---- interference / subscription maps ---- *)

let test_own_trigger_subscribed () =
  List.iter
    (fun (s : Interference.subscription) ->
      Alcotest.(check bool)
        (trigger_label s.sub_trigger ^ " subscribes to itself")
        true
        (subscribed s (trigger_label s.sub_trigger)))
    (subscriptions_exn cinder)

let test_listing_subscription_is_minimal () =
  let s = find_sub (subscriptions_exn cinder) "GET(Volumes)" in
  (* the listing reads the collection count: creation and deletion can
     change its verdict, a volume-attribute update cannot *)
  Alcotest.(check bool) "hears POST(volume)" true (subscribed s "POST(volume)");
  Alcotest.(check bool) "hears DELETE(volume)" true
    (subscribed s "DELETE(volume)");
  Alcotest.(check bool) "does not hear PUT(volume)" false
    (subscribed s "PUT(volume)");
  Alcotest.(check bool) "does not hear GET(volume)" false
    (subscribed s "GET(volume)")

let test_auth_guard_forces_identity () =
  let subs = subscriptions_exn cinder in
  List.iter
    (fun (s : Interference.subscription) ->
      Alcotest.(check bool)
        (trigger_label s.sub_trigger ^ " hears token revocation")
        true
        (List.exists
           (fun (e : Effects.event) -> e.Effects.ev_identity)
           s.sub_events);
      Alcotest.(check bool) "therefore not shard-closed" false
        s.sub_shard_closed;
      Alcotest.(check (list string)) "identity is the only cross-shard event"
        [ "DELETE(token)" ]
        (List.map
           (fun (e : Effects.event) -> trigger_label e.ev_trigger)
           (Interference.cross_shard_events s)))
    subs

let test_unguarded_contracts_shard_closed () =
  (* without a security table there is no auth guard, hence no identity
     subscription: every cinder contract is statically shard-closed *)
  let subs = subscriptions_exn { cinder with Rules.security = None } in
  Alcotest.(check bool) "subscriptions derived" true (subs <> []);
  List.iter
    (fun (s : Interference.subscription) ->
      Alcotest.(check bool)
        (trigger_label s.sub_trigger ^ " shard-closed")
        true s.sub_shard_closed;
      Alcotest.(check (list string)) "no cross-shard events" []
        (List.map
           (fun (e : Effects.event) -> trigger_label e.ev_trigger)
           (Interference.cross_shard_events s)))
    subs

(* ---- the dynamic subscription-soundness oracle ---- *)

let oracle_case name input =
  Alcotest.test_case name `Quick (fun () ->
      match Crosscheck.run_subscriptions ~cases:10_000 ~seed:42 input with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
        Alcotest.(check (list string)) "no unsubscribed-event verdict changes"
          [] r.Crosscheck.sub_violations;
        Alcotest.(check int) "all cases ran" 10_000 r.Crosscheck.sub_cases;
        Alcotest.(check bool) "pairs actually compared" true
          (r.Crosscheck.sub_checks > 0))

(* ---- golden dumps: byte-stable machine formats ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Mirrors `cmonitor analyze --model all --subscriptions` /
   `--monitorability`: one stable-JSON object keyed by model label,
   trailing newline from the @. print. *)
let all_inputs =
  [ ("cinder", cinder);
    ( "glance",
      { Rules.resources = Cm_uml.Glance_model.resources;
        behavior = Cm_uml.Glance_model.behavior;
        security = sec Cm_rbac.Security_table.glance
      } );
    ( "snapshot",
      { Rules.resources = Cm_uml.Snapshot_model.resources;
        behavior = Cm_uml.Snapshot_model.behavior;
        security = sec Cm_uml.Snapshot_model.security_table
      } );
    ("cross", cross)
  ]

let golden_check name rendered path =
  Alcotest.test_case name `Quick (fun () ->
      let expected = read_file path in
      if rendered <> expected then
        Alcotest.failf
          "%s drifted from %s — if the change is intentional, regenerate \
           with `dune exec bin/cmonitor.exe -- analyze --model all %s > %s`"
          name path
          (if name = "subscriptions" then "--subscriptions"
           else "--monitorability")
          ("test/" ^ path))

let subscription_dump () =
  Fmt.str "%a@." Json.pp
    (Json.Obj
       [ ( "subscriptions",
           Json.Obj
             (List.map
                (fun (label, input) ->
                  (label, Interference.to_json (subscriptions_exn input)))
                all_inputs) )
       ])

let monitorability_dump () =
  Fmt.str "%a@." Json.pp
    (Json.Obj
       [ ( "monitorability",
           Json.Obj
             (List.map
                (fun (label, input) ->
                  ( label,
                    Monitorability.to_json
                      ~visibility:Monitorability.default_visibility
                      (reports_exn input) ))
                all_inputs) )
       ])

let lint_defect_dump () =
  let entry =
    List.find
      (fun (e : Defects.entry) -> e.name = "rbac_unreachable")
      Defects.corpus
  in
  Fmt.str "%a@." Json.pp (Lint.to_json (Rules.analyze entry.input))

let golden_tests =
  [ golden_check "subscriptions" (subscription_dump ())
      "golden/subscriptions.json";
    golden_check "monitorability" (monitorability_dump ())
      "golden/monitorability.json";
    Alcotest.test_case "lint --json of a defective model" `Quick (fun () ->
        let expected = read_file "golden/lint_rbac_unreachable.json" in
        Alcotest.(check string) "byte-stable lint dump" expected
          (lint_defect_dump ()))
  ]

let () =
  Alcotest.run "cm_effects"
    [ ( "effects",
        [ Alcotest.test_case "cinder write effects and tenant keys" `Quick
            test_cinder_events;
          Alcotest.test_case "event order is stable" `Quick
            test_event_order_is_stable
        ] );
      ( "monitorability",
        [ Alcotest.test_case "shipped models fully monitorable" `Quick
            test_shipped_fully_monitorable;
          Alcotest.test_case "path-prefix caching degrades the cross model"
            `Quick test_path_prefix_degrades_cross;
          Alcotest.test_case "no pre-state snapshot: non-monitorable" `Quick
            test_no_pre_state_non_monitorable;
          Alcotest.test_case "captured pre() binders" `Quick
            test_captured_pre_binders
        ] );
      ( "interference",
        [ Alcotest.test_case "own trigger always subscribed" `Quick
            test_own_trigger_subscribed;
          Alcotest.test_case "listing subscription is minimal" `Quick
            test_listing_subscription_is_minimal;
          Alcotest.test_case "auth guard forces the identity subscription"
            `Quick test_auth_guard_forces_identity;
          Alcotest.test_case "unguarded contracts are shard-closed" `Quick
            test_unguarded_contracts_shard_closed
        ] );
      ( "subscription-oracle",
        [ oracle_case "cinder: 10k cases, maps sound" cinder;
          oracle_case "cross: 10k cases, maps sound" cross
        ] );
      ("golden", golden_tests)
    ]
