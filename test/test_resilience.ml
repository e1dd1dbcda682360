(* Tests for fault-tolerant forwarding: backoff determinism, circuit
   breaker transitions, idempotent mutation retry, timeout semantics,
   chaos determinism, degradation modes and exception containment. *)

module Resilience = Cm_monitor.Resilience
module Monitor = Cm_monitor.Monitor
module Outcome = Cm_monitor.Outcome
module Clock = Cm_core.Clock
module Transport = Cm_core.Transport
module Chaos = Cm_cloudsim.Chaos
module Cloud = Cm_cloudsim.Cloud
module Faults = Cm_cloudsim.Faults
module Request = Cm_http.Request
module Response = Cm_http.Response
module Status = Cm_http.Status
module Meth = Cm_http.Meth
module Json = Cm_json.Json
module Scenario = Cm_mutation.Scenario

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let req ?token ?body meth path =
  let r = Request.make ?body meth path in
  match token with Some t -> Request.with_auth_token t r | None -> r

let login cloud user pw =
  match Cloud.login cloud ~user ~password:pw ~project_id:"myProject" with
  | Ok t -> t
  | Error e -> failwith e

let volume_body name =
  Json.obj
    [ ("volume", Json.obj [ ("name", Json.string name); ("size", Json.int 10) ])
    ]

(* ---- backoff ---- *)

let test_backoff_deterministic () =
  let p = Resilience.default in
  let s1 = Resilience.schedule p ~seed:7 in
  let s2 = Resilience.schedule p ~seed:7 in
  Alcotest.(check (list int)) "same seed, same schedule" s1 s2;
  Alcotest.(check bool) "different seed, different schedule" true
    (s1 <> Resilience.schedule p ~seed:8);
  Alcotest.(check int) "one pause per retry"
    (p.Resilience.max_attempts - 1)
    (List.length s1);
  (* jitter-free schedule is the exact capped exponential *)
  let p0 =
    { p with Resilience.jitter = 0.0; max_attempts = 8; backoff_base_ms = 25;
      backoff_multiplier = 2.0; backoff_cap_ms = 1_600
    }
  in
  Alcotest.(check (list int)) "capped exponential"
    [ 25; 50; 100; 200; 400; 800; 1_600 ]
    (Resilience.schedule p0 ~seed:1);
  (* jittered pauses stay inside the +-(jitter/2) envelope *)
  List.iteri
    (fun i pause ->
      let nominal = Float.min (25.0 *. (2.0 ** float_of_int i)) 1_600.0 in
      let spread = p.Resilience.jitter *. nominal /. 2.0 in
      Alcotest.(check bool)
        (Printf.sprintf "pause %d within envelope" i)
        true
        (float_of_int pause >= nominal -. spread -. 1.0
        && float_of_int pause <= nominal +. spread +. 1.0))
    s1

(* ---- 5xx handling ---- *)

let test_5xx_blips () =
  let clock = Clock.create () in
  let n = ref 0 in
  let backend _ =
    incr n;
    if !n = 1 then Response.error Status.service_unavailable "blip"
    else Response.ok (Json.obj [])
  in
  let r = Resilience.create Resilience.default clock backend in
  (match Resilience.call r (req Meth.GET "/a/b") with
   | Ok resp -> Alcotest.(check int) "blip absorbed by retry" 200 resp.Response.status
   | Error f -> Alcotest.fail (Resilience.failure_to_string f));
  (* a *persistent* 5xx is the backend's actual answer, not transport
     noise: it must come back Ok so verdicts match a resilience-free run *)
  let down _ = Response.error Status.service_unavailable "down" in
  let r2 = Resilience.create Resilience.default clock down in
  match Resilience.call r2 (req Meth.GET "/a/b") with
  | Ok resp -> Alcotest.(check int) "persistent 503 passed through" 503 resp.Response.status
  | Error f -> Alcotest.fail (Resilience.failure_to_string f)

(* The double read under [verified_reads]: a second read the retry loop
   gave up on and passed through as a 503 is no fresher than a good
   first answer, so the first one stands.  Bound as the answer, the 503
   would make the observer see the resource as absent. *)
let test_verified_read_keeps_good_first () =
  let clock = Clock.create () in
  let n = ref 0 in
  let backend _ =
    incr n;
    if !n = 1 then Response.ok (Json.obj [ ("volumes", Json.list []) ])
    else Response.error Status.service_unavailable "down"
  in
  let policy = { Resilience.default with Resilience.verified_reads = true } in
  let r = Resilience.create policy clock backend in
  (match Resilience.call_verified r (req Meth.GET "/v3/p/volumes") with
   | Ok resp ->
     Alcotest.(check int) "good first read kept" 200 resp.Response.status
   | Error f -> Alcotest.fail (Resilience.failure_to_string f));
  Alcotest.(check int) "second read retried to exhaustion"
    (1 + policy.Resilience.max_attempts)
    !n;
  (* a 5xx first read is not improved on by keeping it over a 5xx *)
  let down _ = Response.error Status.service_unavailable "down" in
  let r2 = Resilience.create policy clock down in
  match Resilience.call_verified r2 (req Meth.GET "/v3/p/volumes") with
  | Ok resp -> Alcotest.(check int) "503 twice is the answer" 503 resp.Response.status
  | Error f -> Alcotest.fail (Resilience.failure_to_string f)

(* ---- circuit breaker ---- *)

let test_breaker_transitions () =
  let clock = Clock.create () in
  let healthy = ref false in
  let backend _ =
    if !healthy then Response.ok (Json.obj [])
    else raise Transport.Connection_reset
  in
  let policy =
    { Resilience.default with Resilience.max_attempts = 1;
      breaker_threshold = 2; breaker_reset_ms = 1_000
    }
  in
  let r = Resilience.create policy clock backend in
  let request = req Meth.GET "/v3/p/volumes" in
  let route = "GET /v3/p" in
  let state () =
    Resilience.breaker_state_to_string (Resilience.breaker_state r route)
  in
  (match Resilience.call r request with
   | Error (Resilience.Exhausted { attempts; _ }) ->
     Alcotest.(check int) "single attempt" 1 attempts
   | _ -> Alcotest.fail "expected Exhausted");
  Alcotest.(check string) "closed after one failure" "closed" (state ());
  (match Resilience.call r request with
   | Error (Resilience.Exhausted _) -> ()
   | _ -> Alcotest.fail "expected Exhausted");
  Alcotest.(check string) "open at the threshold" "open" (state ());
  (match Resilience.call r request with
   | Error (Resilience.Circuit_open _ as f) ->
     Alcotest.(check bool) "short-circuit means not executed" false
       (Resilience.executed_possible f)
   | _ -> Alcotest.fail "expected Circuit_open");
  (* reset window elapses -> half-open -> a successful probe closes it *)
  Clock.advance clock 1_000;
  healthy := true;
  (match Resilience.call r request with
   | Ok _ -> ()
   | Error f -> Alcotest.fail (Resilience.failure_to_string f));
  Alcotest.(check string) "closed after probe success" "closed" (state ());
  let metrics = List.assoc route (Resilience.metrics r) in
  Alcotest.(check int) "one short-circuit counted" 1
    metrics.Resilience.short_circuited;
  Alcotest.(check int) "one breaker open counted" 1
    metrics.Resilience.breaker_opens

let test_breaker_reopens_from_half_open () =
  let clock = Clock.create () in
  let backend _ = raise Transport.Connection_reset in
  let policy =
    { Resilience.default with Resilience.max_attempts = 1;
      breaker_threshold = 1; breaker_reset_ms = 500
    }
  in
  let r = Resilience.create policy clock backend in
  let request = req Meth.GET "/v3/p/volumes" in
  ignore (Resilience.call r request);
  Alcotest.(check string) "open" "open"
    (Resilience.breaker_state_to_string (Resilience.breaker_state r "GET /v3/p"));
  Clock.advance clock 500;
  (* the half-open probe fails -> straight back to open *)
  (match Resilience.call r request with
   | Error (Resilience.Exhausted _) -> ()
   | _ -> Alcotest.fail "probe should have been admitted and failed");
  Alcotest.(check string) "re-opened" "open"
    (Resilience.breaker_state_to_string (Resilience.breaker_state r "GET /v3/p"))

(* ---- idempotency-aware retry ---- *)

let test_retried_post_creates_one_volume () =
  let clock = Clock.create () in
  let cloud = Cloud.create ~clock () in
  Cloud.seed cloud Cloud.my_project;
  let token = login cloud "alice" "alice-pw" in
  (* the cloud executes the POST, then the connection dies: the classic
     ambiguous mutation *)
  let drops = ref 1 in
  let backend request =
    let resp = Cloud.handle cloud request in
    if request.Request.meth = Meth.POST && !drops > 0 then begin
      decr drops;
      raise Transport.Connection_reset
    end
    else resp
  in
  let r = Resilience.create Resilience.default clock backend in
  (match
     Resilience.call r
       (req ~token ~body:(volume_body "data1") Meth.POST "/v3/myProject/volumes")
   with
   | Ok resp ->
     Alcotest.(check int) "replayed creation response" 201 resp.Response.status
   | Error f -> Alcotest.fail (Resilience.failure_to_string f));
  let listing = Cloud.handle cloud (req ~token Meth.GET "/v3/myProject/volumes") in
  match listing.Response.body with
  | Some (Json.Obj [ ("volumes", Json.List vols) ]) ->
    Alcotest.(check int) "exactly one volume despite the retry" 1
      (List.length vols)
  | _ -> Alcotest.fail "unexpected listing shape"

let test_mutation_retry_disabled () =
  let clock = Clock.create () in
  let calls = ref 0 in
  let backend _ =
    incr calls;
    raise Transport.Connection_reset
  in
  let policy = { Resilience.default with Resilience.retry_mutations = false } in
  let r = Resilience.create policy clock backend in
  (match Resilience.call r (req ~body:(volume_body "x") Meth.POST "/a/b") with
   | Error (Resilience.Exhausted { attempts; _ }) ->
     Alcotest.(check int) "no retry without idempotency" 1 attempts
   | _ -> Alcotest.fail "expected Exhausted");
  Alcotest.(check int) "backend called once" 1 !calls

(* ---- timeouts ---- *)

let test_timeout_exhausts () =
  let clock = Clock.create () in
  let backend _ =
    Clock.advance clock 5_000;
    (* the answer exists, but it arrives after the caller gave up *)
    Response.ok (Json.obj [])
  in
  let r =
    Resilience.create
      { Resilience.default with Resilience.max_attempts = 3 }
      clock backend
  in
  match Resilience.call r (req Meth.GET "/a/b") with
  | Error (Resilience.Exhausted { attempts; last_error; _ } as f) ->
    Alcotest.(check int) "all attempts timed out" 3 attempts;
    Alcotest.(check bool) "described as timeout" true
      (contains ~affix:"timed out" last_error);
    Alcotest.(check bool) "may have executed" true
      (Resilience.executed_possible f)
  | _ -> Alcotest.fail "expected Exhausted"

let spike_profile =
  { Chaos.fault_free with
    Chaos.name = "always-spike";
    description = "every call blows the attempt budget";
    latency = { Chaos.base_ms = 0; jitter_ms = 0; spike_p = 1.0; spike_ms = 5_000 }
  }

let test_monitor_timeout_is_undefined () =
  match
    Scenario.setup ~chaos:spike_profile ~resilience:Resilience.default ()
  with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok ctx ->
    let outcome =
      Scenario.request ctx ~user:"alice" Meth.GET "/v3/myProject/volumes" ()
    in
    Alcotest.(check bool) "not a violation" false
      (Outcome.is_violation outcome.Outcome.conformance);
    Alcotest.(check bool) "not a definite verdict" false
      (Outcome.is_definite outcome.Outcome.conformance)

(* ---- unobservable reads ---- *)

(* A create through a Cinder monitor whose GETs of the project document
   outlive every attempt: from the start, or once the create itself has
   reached the cloud.  Bound as absent, the missing document would make
   [project.id->size() = 1] definitely false: a "wrongly accepted"
   create in Oracle mode, a wrongly denied one in Enforce mode, a
   violated postcondition after forwarding. *)
let blinded_create ~after_forward mode =
  let clock = Clock.create () in
  let cloud = Cloud.create ~clock () in
  Cloud.seed cloud Cloud.my_project;
  Cm_cloudsim.Identity.add_user (Cloud.identity cloud) ~password:"svc-pw"
    (Cm_rbac.Subject.make "cmonitor-svc" [ "proj_administrator" ]);
  let service_token = login cloud "cmonitor-svc" "svc-pw" in
  let token = login cloud "alice" "alice-pw" in
  let blind = ref (not after_forward) in
  let backend request =
    if Request.auth_token request = Some token then blind := true;
    if !blind && request.Request.path = "/v3/myProject" then
      Clock.advance clock 5_000;
    Cloud.handle cloud request
  in
  let security =
    { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
      assignment = Cm_rbac.Security_table.cinder_assignment
    }
  in
  let config =
    Monitor.default_config ~mode ~resilience:Resilience.default ~clock
      ~service_token ~security Cm_uml.Cinder_model.resources
      Cm_uml.Cinder_model.behavior
  in
  Monitor.handle
    (Result.get_ok (Monitor.create config backend))
    (req ~token ~body:(volume_body "v") Meth.POST "/v3/myProject/volumes")

let test_unobservable_read ~after_forward () =
  let phase = if after_forward then "post-state" else "pre-state" in
  List.iter
    (fun mode ->
      let o = blinded_create ~after_forward mode in
      let verdict = if after_forward then o.post_verdict else o.pre_verdict in
      match o.Outcome.conformance, verdict with
      | Outcome.Undefined _, Some (Cm_ocl.Eval.Undefined_verdict hint) ->
        Alcotest.(check bool) ("hint names the " ^ phase ^ " read") true
          (contains ~affix:(phase ^ " unobservable: GET /v3/myProject:") hint)
      | c, _ ->
        Alcotest.failf "expected Undefined, got %s"
          (Outcome.conformance_to_string c))
    [ Monitor.Oracle; Monitor.Enforce ]

(* ---- chaos determinism ---- *)

let test_chaos_deterministic () =
  let run seed =
    let clock = Clock.create () in
    let chaos =
      Chaos.create ~seed Chaos.adversarial clock (fun _ ->
          Response.ok (Json.obj [ ("thing", Json.obj []) ]))
    in
    let backend = Chaos.backend chaos in
    let observed =
      List.init 200 (fun i ->
          let request = req Meth.GET ("/p/" ^ string_of_int (i mod 7)) in
          match backend request with
          | resp -> resp.Response.status
          | exception Transport.Connection_reset -> -1)
    in
    (observed, Chaos.stats chaos, Clock.now clock)
  in
  let a1 = run 9 in
  let a2 = run 9 in
  Alcotest.(check bool) "same seed, identical faults and latency" true (a1 = a2);
  Alcotest.(check bool) "different seed, different run" true (a1 <> run 10)

(* ---- degradation modes ---- *)

let dead_monitor degradation =
  let config =
    Monitor.default_config ~mode:Monitor.Oracle ~degradation
      ~resilience:
        { Resilience.default with Resilience.max_attempts = 1;
          breaker_threshold = 1
        }
      ~service_token:"svc" Cm_uml.Cinder_model.resources
      Cm_uml.Cinder_model.behavior
  in
  match Monitor.create config (fun _ -> raise Transport.Connection_reset) with
  | Ok monitor -> monitor
  | Error msgs -> failwith (String.concat "; " msgs)

let degraded_request monitor =
  (* two requests: the first opens the route's breaker, the second is
     short-circuited and exercises the degradation mode *)
  let request = req ~token:"tok" Meth.GET "/v3/myProject/volumes" in
  ignore (Monitor.handle monitor request);
  Monitor.handle monitor request

let test_fail_closed () =
  let outcome = degraded_request (dead_monitor Monitor.Fail_closed) in
  (match outcome.Outcome.conformance with
   | Outcome.Degraded detail ->
     Alcotest.(check bool) "labelled fail-closed" true
       (contains ~affix:"fail-closed" detail)
   | c ->
     Alcotest.fail ("expected Degraded, got " ^ Outcome.conformance_to_string c));
  Alcotest.(check int) "rejected with 503" 503
    outcome.Outcome.response.Response.status;
  Alcotest.(check bool) "nothing was forwarded" true
    (outcome.Outcome.cloud_response = None)

let test_fail_open_logged () =
  let outcome = degraded_request (dead_monitor Monitor.Fail_open_logged) in
  (match outcome.Outcome.conformance with
   | Outcome.Degraded detail ->
     Alcotest.(check bool) "labelled fail-open" true
       (contains ~affix:"fail-open" detail)
   | c ->
     Alcotest.fail ("expected Degraded, got " ^ Outcome.conformance_to_string c));
  Alcotest.(check bool) "never a violation" false
    (Outcome.is_violation outcome.Outcome.conformance)

(* ---- exception containment ---- *)

let plain_monitor backend =
  let config =
    Monitor.default_config ~mode:Monitor.Oracle ~service_token:"svc"
      Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior
  in
  match Monitor.create config backend with
  | Ok monitor -> monitor
  | Error msgs -> failwith (String.concat "; " msgs)

let test_monitor_bug_contained () =
  let monitor = plain_monitor (fun _ -> failwith "boom") in
  let outcome =
    Monitor.handle monitor (req ~token:"tok" Meth.GET "/v3/myProject/volumes")
  in
  (match outcome.Outcome.conformance with
   | Outcome.Monitor_error detail ->
     Alcotest.(check bool) "names the exception" true
       (contains ~affix:"boom" detail)
   | c ->
     Alcotest.fail
       ("expected Monitor_error, got " ^ Outcome.conformance_to_string c));
  Alcotest.(check int) "500 to the client" 500
    outcome.Outcome.response.Response.status;
  Alcotest.(check bool) "a monitor bug is never a cloud violation" false
    (Outcome.is_violation outcome.Outcome.conformance)

let test_transport_escape_degrades () =
  let monitor = plain_monitor (fun _ -> raise Transport.Connection_reset) in
  let outcome =
    Monitor.handle monitor (req ~token:"tok" Meth.GET "/v3/myProject/volumes")
  in
  match outcome.Outcome.conformance with
  | Outcome.Degraded _ ->
    Alcotest.(check int) "502 to the client" 502
      outcome.Outcome.response.Response.status
  | c ->
    Alcotest.fail ("expected Degraded, got " ^ Outcome.conformance_to_string c)

(* ---- Slow/Flaky faults ---- *)

let test_slow_and_flaky_faults () =
  let clock = Clock.create () in
  let cloud = Cloud.create ~clock () in
  Cloud.seed cloud Cloud.my_project;
  let token = login cloud "alice" "alice-pw" in
  let list () = Cloud.handle cloud (req ~token Meth.GET "/v3/myProject/volumes") in
  Cloud.set_faults cloud
    (Faults.of_list [ Faults.Slow_action ("volumes:get", 500) ]);
  let before = Clock.now clock in
  Alcotest.(check int) "slow action still succeeds" 200 (list ()).Response.status;
  Alcotest.(check int) "and costs 500 virtual ms" 500 (Clock.now clock - before);
  Cloud.set_faults cloud
    (Faults.of_list [ Faults.Flaky_action ("volumes:get", 1.0) ]);
  Alcotest.(check int) "certain flakiness yields 503" 503
    (list ()).Response.status;
  Cloud.set_faults cloud
    (Faults.of_list [ Faults.Flaky_action ("volumes:get", 0.0) ]);
  Alcotest.(check int) "zero flakiness never fires" 200 (list ()).Response.status

(* ---- verdict serialization ---- *)

let test_new_verdicts_round_trip () =
  List.iter
    (fun c ->
      let text = Outcome.conformance_to_string c in
      match Outcome.conformance_of_string text with
      | Some back ->
        Alcotest.(check bool) (text ^ " round-trips") true (back = c)
      | None -> Alcotest.fail ("no parse for " ^ text))
    [ Outcome.Degraded "fail-closed: circuit open on GET /v3/p";
      Outcome.Monitor_error "internal monitor exception contained: boom";
      Outcome.Undefined "forwarding outcome unknown"
    ]

let () =
  Alcotest.run "cm_resilience"
    [ ( "backoff",
        [ Alcotest.test_case "deterministic jittered schedule" `Quick
            test_backoff_deterministic
        ] );
      ( "retry",
        [ Alcotest.test_case "5xx blips absorbed, persistent 5xx passed" `Quick
            test_5xx_blips;
          Alcotest.test_case "retried POST creates exactly one volume" `Quick
            test_retried_post_creates_one_volume;
          Alcotest.test_case "mutations not retried when disabled" `Quick
            test_mutation_retry_disabled;
          Alcotest.test_case "timeouts exhaust into unknown outcome" `Quick
            test_timeout_exhausts;
          Alcotest.test_case "verified read keeps good first answer" `Quick
            test_verified_read_keeps_good_first
        ] );
      ( "breaker",
        [ Alcotest.test_case "closed -> open -> half-open -> closed" `Quick
            test_breaker_transitions;
          Alcotest.test_case "failed half-open probe re-opens" `Quick
            test_breaker_reopens_from_half_open
        ] );
      ( "chaos",
        [ Alcotest.test_case "seeded chaos is bit-reproducible" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "monitor timeout yields three-valued verdict"
            `Quick test_monitor_timeout_is_undefined;
          Alcotest.test_case "unobservable pre-state read is Undefined" `Quick
            (test_unobservable_read ~after_forward:false);
          Alcotest.test_case "unobservable post-state read is Undefined" `Quick
            (test_unobservable_read ~after_forward:true)
        ] );
      ( "degradation",
        [ Alcotest.test_case "fail-closed rejects with 503" `Quick
            test_fail_closed;
          Alcotest.test_case "fail-open forwards and logs Degraded" `Quick
            test_fail_open_logged
        ] );
      ( "containment",
        [ Alcotest.test_case "monitor bug becomes Monitor_error" `Quick
            test_monitor_bug_contained;
          Alcotest.test_case "escaped transport failure becomes Degraded"
            `Quick test_transport_escape_degrades
        ] );
      ( "faults",
        [ Alcotest.test_case "Slow_action and Flaky_action" `Quick
            test_slow_and_flaky_faults
        ] );
      ( "verdicts",
        [ Alcotest.test_case "Degraded/Monitor_error round-trip" `Quick
            test_new_verdicts_round_trip
        ] )
    ]
