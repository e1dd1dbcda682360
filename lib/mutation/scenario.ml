module Cloud = Cm_cloudsim.Cloud
module Store = Cm_cloudsim.Store
module Monitor = Cm_monitor.Monitor
module Reference = Cm_monitor.Reference
module Request = Cm_http.Request
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

let models cross =
  if cross then
    ( Cm_uml.Cross_model.resources,
      Cm_uml.Cross_model.behavior,
      Cm_rbac.Security_table.cross )
  else
    ( Cm_uml.Cinder_model.resources,
      Cm_uml.Cinder_model.behavior,
      Cm_rbac.Security_table.cinder )

let security table =
  { Cm_contracts.Generate.table;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

(* Shared bootstrap: fresh clock + seeded cloud + the paper's users
   logged in, then the faults activated and the transport the monitor
   sees.  Token values are deterministic (a login counter), which is
   what lets a journal replay on a fresh same-seed cloud reuse the
   recorded [X-Auth-Token] headers verbatim.  Chaos wraps only the
   monitor's transport; the logins talked to the cloud directly, as an
   operator bootstrapping would. *)
let bootstrap ~faults ~chaos:chaos_profile ~chaos_seed =
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
  Cloud.set_faults cloud faults;
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
  (clock, cloud, service_token, tokens, chaos, backend)

(* [setup] runs over the single-service Cinder models, [setup_cross]
   over the cross-service models and the extended security table. *)
let setup_gen ~cross ?(mode = Monitor.Oracle)
    ?(faults = Cm_cloudsim.Faults.none) ?chaos ?chaos_seed ?resilience ?cache ()
    =
  let resources, behavior, table = models cross in
  let clock, cloud, service_token, tokens, chaos, backend =
    bootstrap ~faults ~chaos ~chaos_seed
  in
  let config =
    Monitor.default_config ~mode ?resilience ~clock ?cache
      ~service_token ~security:(security table) resources behavior
  in
  Result.map
    (fun monitor -> { cloud; monitor; tokens; clock; chaos })
    (Monitor.create config backend)

let setup = setup_gen ~cross:false
let setup_cross = setup_gen ~cross:true

let token_in tokens user =
  match List.assoc_opt user tokens with
  | Some token -> token
  | None -> failwith ("no token for user " ^ user)

let request ctx ~user meth path ?body () =
  let req =
    Request.make ?body meth path
    |> Request.with_auth_token (token_in ctx.tokens user)
  in
  Monitor.handle ctx.monitor req

let user_of_role = function
  | Workload.Admin -> ("alice", "alice-pw")
  | Workload.Member -> ("bob", "bob-pw")
  | Workload.User -> ("carol", "carol-pw")

let relogin cloud role =
  let user, password = user_of_role role in
  Result.to_option (Cloud.login cloud ~user ~password ~project_id:project)

(* Out-of-band tenant churn: a throwaway project gets a volume added
   and removed behind the monitor's back.  The monitor's caches are
   resynchronised by [Exec] calling [flush] right after. *)
let churn_project cloud k =
  let store = Cloud.store cloud in
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

let env_over cloud tokens ~handle ~flush =
  { Exec.project;
    stable_volumes = [];
    victim_volumes = [];
    handle;
    token = (fun role -> token_in tokens (fst (user_of_role role)));
    relogin = Some (relogin cloud);
    churn = Some (churn_project cloud);
    flush
  }

(* Run [trace] in the environment [env keep], whose monitored requests
   answer through [keep]: the outcomes [keep] saw, in order. *)
let collect env trace =
  let outcomes = ref [] in
  let keep outcome =
    outcomes := outcome :: !outcomes;
    outcome.Cm_monitor.Outcome.response
  in
  ignore (Exec.run (env keep) trace);
  List.rev !outcomes

let run_trace ctx =
  collect (fun keep ->
      env_over ctx.cloud ctx.tokens
        ~handle:(fun req -> keep (Monitor.handle ctx.monitor req))
        ~flush:(fun () -> Monitor.flush_cache ctx.monitor))

(* ------------------------------------------------------------------ *)
(* Reference contexts: the same fresh cloud, judged by the reference
   monitor. *)

type rctx = {
  rcloud : Cloud.t;
  reference : Reference.t;
  rtokens : (string * string) list;
}

let setup_reference ?(cross = false) ?(mode = Monitor.Oracle)
    ?(faults = Cm_cloudsim.Faults.none) () =
  let resources, behavior, table = models cross in
  let _, cloud, service_token, tokens, _, backend =
    bootstrap ~faults ~chaos:None ~chaos_seed:None
  in
  let mode =
    match mode with
    | Monitor.Enforce -> Reference.Enforce
    | Monitor.Oracle -> Reference.Oracle
  in
  Result.map
    (fun reference -> { rcloud = cloud; reference; rtokens = tokens })
    (Reference.create ~mode ~service_token ~security:(security table)
       resources behavior backend)

let run_reference rctx =
  collect (fun keep ->
      env_over rctx.rcloud rctx.rtokens
        ~handle:(fun req -> keep (Reference.handle rctx.reference req))
        ~flush:ignore)

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

let setup_journaled ?(cross = false) ?(mode = Monitor.Oracle)
    ?(faults = Cm_cloudsim.Faults.none) ?chaos ?chaos_seed ?resilience
    ?(batch = 8) ?crash () =
  let resources, behavior, table = models cross in
  (* The chaos transport models the *network*, which survives a monitor
     crash — it is created once and shared across recoveries, so its
     fault stream keeps advancing rather than restarting. *)
  let clock, cloud, service_token, tokens, _, backend =
    bootstrap ~faults ~chaos ~chaos_seed
  in
  let security = security table in
  let jmake ~journal_pre ~journal_barrier ~crash () =
    let config =
      Monitor.default_config ~mode ~clock ?resilience ~journal_pre
        ~journal_barrier ?crash ~service_token ~security resources behavior
    in
    Monitor.create config backend
  in
  let device = Device.create ~clock ~seed:7 () in
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

let response_of_verdict (v : Cm_journal.Event.verdict_record) =
  match v.Cm_journal.Event.v_body with
  | Some body -> Cm_http.Response.make ~body v.Cm_journal.Event.v_status
  | None -> Cm_http.Response.make v.Cm_journal.Event.v_status

let jexec_env jctx keep =
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
          keep (Jmonitor.handle jctx.jmon req));
    token = (fun role -> token_in jctx.jtokens (fst (user_of_role role)));
    relogin =
      Some
        (fun role ->
          Jmonitor.mark jctx.jmon ("relogin:" ^ fst (user_of_role role));
          relogin jctx.jcloud role);
    churn =
      Some
        (fun k ->
          Jmonitor.mark jctx.jmon (Printf.sprintf "churn:%d" k);
          churn_project jctx.jcloud k);
    flush = (fun () -> Monitor.flush_cache (Jmonitor.monitor jctx.jmon))
  }

let jrun_trace jctx = collect (jexec_env jctx)

let journal_events jctx = fst (Cm_journal.Journal.scan jctx.jdevice)

(* Re-perform a journaled out-of-band action on a replay's fresh
   cloud. *)
let perform_mark cloud note =
  match String.split_on_char ':' note with
  | [ "relogin"; user ] ->
    ignore
      (Cloud.login cloud ~user ~password:(user ^ "-pw") ~project_id:project)
  | [ "churn"; k ] -> churn_project cloud (int_of_string k)
  | _ -> ()

let replay_journal ?(cross = false) ?(mode = Monitor.Oracle) events =
  match setup_journaled ~cross ~mode () with
  | Error msgs -> Error msgs
  | Ok fresh ->
    List.iter
      (function
        | Jmonitor.Replay_request { req; _ } ->
          ignore (Jmonitor.handle fresh.jmon req)
        | Jmonitor.Replay_mark note ->
          (* the mark keeps the replay's seq stream aligned with the
             recording's *)
          Jmonitor.mark fresh.jmon note;
          perform_mark fresh.jcloud note;
          Monitor.flush_cache (Jmonitor.monitor fresh.jmon))
      (Jmonitor.replay_plan events);
    Jmonitor.sync fresh.jmon;
    Ok (Jmonitor.verdict_lines fresh.jmon)

let replay_reference ?(cross = false) ?(mode = Monitor.Oracle) events =
  match setup_reference ~cross ~mode () with
  | Error msgs -> Error msgs
  | Ok fresh ->
    Ok
      (List.filter_map
         (function
           | Jmonitor.Replay_request { seq; rid; req } ->
             Some
               (Cm_journal.Event.verdict_line
                  (Jmonitor.verdict_of ~seq ~rid
                     (Reference.handle fresh.reference req)))
           | Jmonitor.Replay_mark note ->
             perform_mark fresh.rcloud note;
             None)
         (Jmonitor.replay_plan events))
