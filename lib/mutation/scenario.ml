module Cloud = Cm_cloudsim.Cloud
module Store = Cm_cloudsim.Store
module Monitor = Cm_monitor.Monitor
module Request = Cm_http.Request
module Json = Cm_json.Json
module Workload = Cm_workload.Workload
module Exec = Cm_workload.Exec

type ctx = {
  cloud : Cloud.t;
  monitor : Monitor.t;
  tokens : (string * string) list;
  clock : Cm_core.Clock.t;
  chaos : Cm_cloudsim.Chaos.t option;
}

let project = "myProject"

let service_subject =
  Cm_rbac.Subject.make "cmonitor-svc" [ "proj_administrator" ]

(* Shared bootstrap: fresh clock + seeded cloud + the paper's users
   logged in.  Token values are deterministic (a login counter), which
   is what lets a journal replay on a fresh same-seed cloud reuse the
   recorded [X-Auth-Token] headers verbatim. *)
let bootstrap () =
  let clock = Cm_core.Clock.create () in
  let cloud = Cloud.create ~clock () in
  Cloud.seed cloud Cloud.my_project;
  Cm_cloudsim.Identity.add_user (Cloud.identity cloud) ~password:"svc-pw"
    service_subject;
  let login user password =
    match Cloud.login cloud ~user ~password ~project_id:project with
    | Ok token -> token
    | Error msg -> failwith (Printf.sprintf "login %s failed: %s" user msg)
  in
  let service_token = login "cmonitor-svc" "svc-pw" in
  let tokens =
    [ ("alice", login "alice" "alice-pw");
      ("bob", login "bob" "bob-pw");
      ("carol", login "carol" "carol-pw")
    ]
  in
  (clock, cloud, service_token, tokens)

(* Shared construction; [setup] instantiates it over the single-service
   Cinder models, [setup_cross] over the cross-service models and the
   extended security table. *)
let setup_gen ~resources ~behavior ~table ~mode ~engine ~faults
    ~chaos:chaos_profile ~chaos_seed ~resilience ~degradation ~stability_check
    ~cache () =
  let clock, cloud, service_token, tokens = bootstrap () in
  Cloud.set_faults cloud faults;
  (* Chaos wraps the transport the *monitor* sees; logins above talked
     to the cloud directly, as an operator bootstrapping would. *)
  let chaos =
    Option.map
      (fun profile ->
        Cm_cloudsim.Chaos.create ?seed:chaos_seed profile clock
          (Cloud.handle cloud))
      chaos_profile
  in
  let backend =
    match chaos with
    | Some c -> Cm_cloudsim.Chaos.backend c
    | None -> Cloud.handle cloud
  in
  let security =
    { Cm_contracts.Generate.table;
      assignment = Cm_rbac.Security_table.cinder_assignment
    }
  in
  let config =
    Monitor.default_config ~mode ~engine ~stability_check ?resilience
      ~degradation ~clock ?cache ~service_token ~security resources behavior
  in
  match Monitor.create config backend with
  | Ok monitor -> Ok { cloud; monitor; tokens; clock; chaos }
  | Error msgs -> Error msgs

let setup ?(mode = Monitor.Oracle) ?(engine = Cm_contracts.Runtime.Compiled)
    ?(faults = Cm_cloudsim.Faults.none) ?chaos ?chaos_seed ?resilience
    ?(degradation = Monitor.Fail_open_logged) ?(stability_check = false)
    ?cache () =
  setup_gen ~resources:Cm_uml.Cinder_model.resources
    ~behavior:Cm_uml.Cinder_model.behavior ~table:Cm_rbac.Security_table.cinder
    ~mode ~engine ~faults ~chaos ~chaos_seed ~resilience ~degradation
    ~stability_check ~cache ()

let setup_cross ?(mode = Monitor.Oracle)
    ?(engine = Cm_contracts.Runtime.Compiled)
    ?(faults = Cm_cloudsim.Faults.none) ?chaos ?chaos_seed ?resilience
    ?(degradation = Monitor.Fail_open_logged) ?(stability_check = false)
    ?cache () =
  setup_gen ~resources:Cm_uml.Cross_model.resources
    ~behavior:Cm_uml.Cross_model.behavior ~table:Cm_rbac.Security_table.cross
    ~mode ~engine ~faults ~chaos ~chaos_seed ~resilience ~degradation
    ~stability_check ~cache ()

let token_of ctx user =
  match List.assoc_opt user ctx.tokens with
  | Some token -> token
  | None -> failwith ("no token for user " ^ user)

let request ctx ~user meth path ?body () =
  let req =
    Request.make ?body meth path |> Request.with_auth_token (token_of ctx user)
  in
  Monitor.handle ctx.monitor req

let created_volume_id (outcome : Cm_monitor.Outcome.t) =
  match outcome.cloud_response with
  | Some resp ->
    (match resp.Cm_http.Response.body with
     | Some body ->
       (match Cm_json.Pointer.get [ Key "volume"; Key "id" ] body with
        | Some (Json.String id) -> Some id
        | Some _ | None -> None)
     | None -> None)
  | None -> None

let user_of_role = function
  | Workload.Admin -> ("alice", "alice-pw")
  | Workload.Member -> ("bob", "bob-pw")
  | Workload.User -> ("carol", "carol-pw")

(* Out-of-band tenant churn: a throwaway project gets a volume added
   and removed behind the monitor's back.  The monitor's caches are
   resynchronised by [Exec] calling [flush] right after. *)
let churn_project ctx k =
  let store = Cloud.store ctx.cloud in
  let pid = Printf.sprintf "churn-%d" k in
  let proj =
    match Store.find_project store pid with
    | Some p -> p
    | None ->
      Store.add_project store ~id:pid ~name:pid ~quota_volumes:2
        ~quota_gigabytes:10 ()
  in
  let volume = Store.add_volume store proj ~name:"churn-vol" ~size_gb:1 () in
  ignore (Store.remove_volume proj volume.Store.volume_id)

let exec_env ctx =
  { Exec.project;
    stable_volumes = [];
    victim_volumes = [];
    handle = (fun req -> Monitor.handle_response ctx.monitor req);
    token = (fun role -> token_of ctx (fst (user_of_role role)));
    relogin =
      Some
        (fun role ->
          let user, password = user_of_role role in
          match Cloud.login ctx.cloud ~user ~password ~project_id:project with
          | Ok token -> Some token
          | Error _ -> None);
    churn = Some (churn_project ctx);
    flush = (fun () -> Monitor.flush_cache ctx.monitor)
  }

let run_trace ctx trace = Exec.run (exec_env ctx) trace
let standard ctx = ignore (run_trace ctx Workload.standard_trace)
let cross ctx = ignore (run_trace ctx Workload.cross_trace)

(* ------------------------------------------------------------------ *)
(* Journaled contexts: the same scenario with the monitor wrapped in a
   durable event journal, for the crash-recovery campaigns. *)

module Jmonitor = Cm_journal.Jmonitor
module Device = Cm_journal.Device

type jctx = {
  jcloud : Cloud.t;
  mutable jmon : Jmonitor.t;
  jtokens : (string * string) list;
  jclock : Cm_core.Clock.t;
  jdevice : Device.t;
  jmake : Jmonitor.make;
  jbatch : int;
  jcrash : Cm_core.Crash.t option;
}

let models cross =
  if cross then
    ( Cm_uml.Cross_model.resources,
      Cm_uml.Cross_model.behavior,
      Cm_rbac.Security_table.cross )
  else
    ( Cm_uml.Cinder_model.resources,
      Cm_uml.Cinder_model.behavior,
      Cm_rbac.Security_table.cinder )

let setup_journaled ?(cross = false) ?(mode = Monitor.Oracle) ?engine
    ?(faults = Cm_cloudsim.Faults.none) ?chaos:chaos_profile ?chaos_seed
    ?resilience ?(batch = 8) ?(journal_seed = 7) ?crash () =
  let resources, behavior, table = models cross in
  let clock, cloud, service_token, tokens = bootstrap () in
  Cloud.set_faults cloud faults;
  (* The chaos transport models the *network*, which survives a monitor
     crash — it is created once and shared across recoveries, so its
     fault stream keeps advancing rather than restarting. *)
  let chaos =
    Option.map
      (fun profile ->
        Cm_cloudsim.Chaos.create ?seed:chaos_seed profile clock
          (Cloud.handle cloud))
      chaos_profile
  in
  let backend =
    match chaos with
    | Some c -> Cm_cloudsim.Chaos.backend c
    | None -> Cloud.handle cloud
  in
  let security =
    { Cm_contracts.Generate.table;
      assignment = Cm_rbac.Security_table.cinder_assignment
    }
  in
  let jmake ~journal_pre ~journal_barrier ~crash () =
    let config =
      Monitor.default_config ~mode ?engine ~clock ?resilience ~journal_pre
        ~journal_barrier ?crash ~service_token ~security resources behavior
    in
    Monitor.create config backend
  in
  let device = Device.create ~clock ~seed:journal_seed () in
  match Jmonitor.create ~batch ?crash device jmake with
  | Error msgs -> Error msgs
  | Ok jmon ->
    Ok
      { jcloud = cloud;
        jmon;
        jtokens = tokens;
        jclock = clock;
        jdevice = device;
        jmake;
        jbatch = batch;
        jcrash = crash
      }

let jrecover jctx =
  match
    Jmonitor.recover ~batch:jctx.jbatch ?crash:jctx.jcrash jctx.jdevice
      jctx.jmake
  with
  | Error msgs -> Error msgs
  | Ok (jmon, report) ->
    jctx.jmon <- jmon;
    Ok report

let jtoken_of jctx user =
  match List.assoc_opt user jctx.jtokens with
  | Some token -> token
  | None -> failwith ("no token for user " ^ user)

let jchurn jctx k =
  let store = Cloud.store jctx.jcloud in
  let pid = Printf.sprintf "churn-%d" k in
  let proj =
    match Store.find_project store pid with
    | Some p -> p
    | None ->
      Store.add_project store ~id:pid ~name:pid ~quota_volumes:2
        ~quota_gigabytes:10 ()
  in
  let volume = Store.add_volume store proj ~name:"churn-vol" ~size_gb:1 () in
  ignore (Store.remove_volume proj volume.Store.volume_id)

let response_of_verdict (v : Cm_journal.Event.verdict_record) =
  match v.Cm_journal.Event.v_body with
  | Some body -> Cm_http.Response.make ~body v.Cm_journal.Event.v_status
  | None -> Cm_http.Response.make v.Cm_journal.Event.v_status

let jexec_env jctx =
  (* Each environment numbers the monitored requests it issues and tags
     them [stp-<n>] — a deterministic idempotency key.  A driver that
     re-runs a trace after crash recovery gets the recorded response
     for every step that already concluded (exactly-once), and only the
     unconcluded tail actually reaches the monitor again. *)
  let step = ref 0 in
  { Exec.project;
    stable_volumes = [];
    victim_volumes = [];
    handle =
      (fun req ->
        incr step;
        let rid = Printf.sprintf "stp-%d" !step in
        match Jmonitor.verdict_for_rid jctx.jmon rid with
        | Some v -> response_of_verdict v
        | None ->
          let req =
            { req with
              Request.headers =
                Cm_http.Headers.replace Jmonitor.rid_header rid
                  req.Request.headers
            }
          in
          Jmonitor.handle_response jctx.jmon req);
    token = (fun role -> jtoken_of jctx (fst (user_of_role role)));
    relogin =
      Some
        (fun role ->
          let user, password = user_of_role role in
          Jmonitor.mark jctx.jmon ("relogin:" ^ user);
          match
            Cloud.login jctx.jcloud ~user ~password ~project_id:project
          with
          | Ok token -> Some token
          | Error _ -> None);
    churn =
      Some
        (fun k ->
          Jmonitor.mark jctx.jmon (Printf.sprintf "churn:%d" k);
          jchurn jctx k);
    flush = (fun () -> Monitor.flush_cache (Jmonitor.monitor jctx.jmon))
  }

let jrun_trace jctx trace = Exec.run (jexec_env jctx) trace

let journal_events jctx = fst (Cm_journal.Journal.scan jctx.jdevice)

let replay_journal ?(cross = false) ?(mode = Monitor.Oracle) ?engine events =
  match setup_journaled ~cross ~mode ?engine () with
  | Error msgs -> Error msgs
  | Ok fresh ->
    List.iter
      (fun step ->
        match step with
        | Jmonitor.Replay_request { req; _ } ->
          ignore (Jmonitor.handle fresh.jmon req)
        | Jmonitor.Replay_mark note ->
          (match String.split_on_char ':' note with
           | [ "relogin"; user ] ->
             ignore
               (Cloud.login fresh.jcloud ~user ~password:(user ^ "-pw")
                  ~project_id:project);
             (* keep the replay's mark/seq stream aligned with the
                recording's *)
             Jmonitor.mark fresh.jmon note
           | [ "churn"; k ] ->
             Jmonitor.mark fresh.jmon note;
             jchurn fresh (int_of_string k);
             Monitor.flush_cache (Jmonitor.monitor fresh.jmon)
           | _ -> Jmonitor.mark fresh.jmon note))
      (Jmonitor.replay_plan events);
    Jmonitor.sync fresh.jmon;
    Ok (Jmonitor.verdict_lines fresh.jmon)
