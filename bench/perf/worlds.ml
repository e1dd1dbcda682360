(* The benchmark's worlds: a simulated cloud plus the monitor in front
   of it, built from the public constructors.  They mirror
   [Serve_bench.setup] (tenants world) and [Scenario.setup_cross] /
   [Scenario.setup_journaled] (cross world) rather than calling them,
   because the benchmark must own the backend closure and the journal
   hooks it hands to [Monitor.create] — those are where the traced run
   records its cloudsim and journal spans. *)

module Cloud = Cm_cloudsim.Cloud
module Store = Cm_cloudsim.Store
module Identity = Cm_cloudsim.Identity
module Request = Cm_http.Request
module Meth = Cm_http.Meth
module Json = Cm_json.Json
module Monitor = Cm_monitor.Monitor
module Shard = Cm_monitor.Shard
module Obs_cache = Cm_monitor.Obs_cache
module Workload = Cm_workload.Workload
module Exec = Cm_workload.Exec
module Jmonitor = Cm_journal.Jmonitor
module Device = Cm_journal.Device

let ok_or_fail what = function
  | Ok x -> x
  | Error msgs -> failwith (what ^ ": " ^ String.concat "; " msgs)

let login cloud ~user ~password project_id =
  match Cloud.login cloud ~user ~password ~project_id with
  | Ok token -> token
  | Error e -> failwith ("login " ^ user ^ ": " ^ e)

(* How long building the cloud and creating the monitor took, in ns. *)
type setup = { cloud_ns : int; monitor_ns : int }

let timed f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () - t0)

let backend ~traced cloud =
  let raw = Cloud.handle cloud in
  if traced then Spans.backend raw else raw

(* Counters read from the layers' public getters. *)
type counters = {
  hits : int;
  misses : int;
  invalidated : int;
  evals : int;
  replays : int;
  node_hits : int;
  node_evals : int;
  slots_changed : int;
  journal_bytes : int;
  journal_syncs : int;
}

let counters ?device (cache : Obs_cache.stats option)
    (e : Cm_contracts.Runtime.eval_stats) =
  let c =
    Option.value cache ~default:{ Obs_cache.hits = 0; misses = 0; invalidated = 0 }
  in
  { hits = c.hits; misses = c.misses; invalidated = c.invalidated;
    evals = e.evals; replays = e.replays; node_hits = e.node_hits;
    node_evals = e.node_evals; slots_changed = e.slots_changed;
    journal_bytes = Option.fold ~none:0 ~some:Device.size device;
    journal_syncs = Option.fold ~none:0 ~some:Device.syncs device }

let zero_counters = counters None
    { Cm_contracts.Runtime.evals = 0; replays = 0; node_hits = 0;
      node_evals = 0; refreshes = 0; slots_changed = 0 }

let diff a b =
  { hits = a.hits - b.hits; misses = a.misses - b.misses;
    invalidated = a.invalidated - b.invalidated; evals = a.evals - b.evals;
    replays = a.replays - b.replays; node_hits = a.node_hits - b.node_hits;
    node_evals = a.node_evals - b.node_evals;
    slots_changed = a.slots_changed - b.slots_changed;
    journal_bytes = a.journal_bytes - b.journal_bytes;
    journal_syncs = a.journal_syncs - b.journal_syncs }

let sum a b = diff a (diff zero_counters b)

(* ---- tenants world: read-heavy and parallel --------------------------- *)

let tenants = 8
let stable_volumes = 4
let victims = 8

(* Quota headroom over the pre-created volumes: creates fill it and are
   then denied, so listings stop growing and reach a steady state. *)
let quota_headroom = 16

type tenant = {
  project : string;
  service : string;
  admin : string;
  member : string;
  volumes : string list;
  victim_ids : string list;
}

type pool_world = { tenant : tenant array; pool : Shard.t }

let volume_body name =
  Json.obj
    [ ("volume", Json.obj [ ("name", Json.string name); ("size", Json.int 1) ]) ]

let created_volume_id (resp : Cm_http.Response.t) =
  match resp.body with
  | Some body -> (
    match Cm_json.Pointer.get [ Key "volume"; Key "id" ] body with
    | Some (Json.String id) -> Some id
    | Some _ | None -> None)
  | None -> None

let build_tenants () =
  let cloud = Cloud.create () in
  let identity = Cloud.identity cloud in
  let tenant i =
    let pid = Printf.sprintf "proj-%02d" i in
    ignore
      (Store.add_project (Cloud.store cloud) ~id:pid ~name:pid
         ~quota_volumes:(stable_volumes + victims + quota_headroom)
         ~quota_gigabytes:1_000_000 ~quota_images:8 ());
    Identity.set_assignment identity ~project_id:pid
      Cm_rbac.Security_table.cinder_assignment;
    let user role groups =
      let name = Printf.sprintf "%s-%d" role i in
      Identity.add_user identity ~password:"pw" (Cm_rbac.Subject.make name groups);
      login cloud ~user:name ~password:"pw" pid
    in
    let service = user "svc" [ "proj_administrator" ] in
    let admin = user "admin" [ "proj_administrator" ] in
    let member = user "member" [ "service_architect" ] in
    let create name =
      Cloud.handle cloud
        (Request.make ~body:(volume_body name) Meth.POST
           (Printf.sprintf "/v3/%s/volumes" pid)
        |> Request.with_auth_token member)
      |> created_volume_id
      |> Option.to_result ~none:[ "seeding volume creation failed" ]
      |> ok_or_fail pid
    in
    let volumes = List.init stable_volumes (Printf.ksprintf create "base-%d") in
    let victim_ids = List.init victims (Printf.ksprintf create "victim-%d") in
    { project = pid; service; admin; member; volumes; victim_ids }
  in
  (cloud, Array.init tenants tenant)

let pool_config tenant =
  let tokens = Array.to_list (Array.map (fun tn -> (tn.project, tn.service)) tenant) in
  Monitor.default_config ~mode:Monitor.Enforce ~cache:Obs_cache.Cross_request
    ~service_token:tenant.(0).service
    ~service_token_for:(fun p -> List.assoc_opt p tokens)
    ~security:
      { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
        assignment = Cm_rbac.Security_table.cinder_assignment }
    Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior

let pool_world ~traced () =
  let (cloud, tenant), cloud_ns = timed build_tenants in
  let pool, monitor_ns =
    timed (fun () ->
        ok_or_fail "Shard.create"
          (Shard.create ~shards:tenants (pool_config tenant)
             (backend ~traced cloud)))
  in
  ({ tenant; pool }, { cloud_ns; monitor_ns })

let read_heavy_traces ~seed ~steps =
  Array.init tenants (fun i ->
      Workload.read_heavy_trace ~steps ~victims ~seed:(seed + i))

(* Static compilation, interleaved round-robin across tenants so every
   shard gets work (as serve-bench does). *)
let read_heavy_requests w traces =
  let per =
    Array.mapi
      (fun i trace ->
        let tn = w.tenant.(i) in
        let st =
          { Exec.st_project = tn.project;
            st_token =
              (function
              | Workload.Admin -> tn.admin
              | Workload.Member | Workload.User -> tn.member);
            st_stable_volumes = tn.volumes;
            st_victim_volumes = tn.victim_ids }
        in
        Array.of_list (Exec.requests st trace))
      traces
  in
  let steps = Array.length per.(0) in
  Array.init (tenants * steps) (fun k -> per.(k mod tenants).(k / tenants))

let pool_counters w =
  counters (Some (Shard.cache_stats w.pool)) (Shard.eval_stats w.pool)

let pool_reset_logs w =
  for i = 0 to Shard.shards w.pool - 1 do
    Monitor.reset_log (Shard.monitor w.pool i)
  done

let serve_one w req = Monitor.handle (Shard.monitor w.pool (Shard.shard_of w.pool req)) req

(* ---- cross world: churn, journaled, campaign cells -------------------- *)

let project = "myProject"

type cross_world = {
  cloud : Cloud.t;
  tokens : (string * string) list;
  monitor : Monitor.t;
  journal : (Jmonitor.t * Device.t) option;
}

(* [Scenario.bootstrap]: the paper's myProject, its three users and a
   service account for the monitor, on one virtual clock. *)
let bootstrap faults =
  let clock = Cm_core.Clock.create () in
  let cloud = Cloud.create ~clock () in
  Cloud.seed cloud Cloud.my_project;
  Identity.add_user (Cloud.identity cloud) ~password:"svc-pw"
    (Cm_rbac.Subject.make "cmonitor-svc" [ "proj_administrator" ]);
  Cloud.set_faults cloud faults;
  let service_token = login cloud ~user:"cmonitor-svc" ~password:"svc-pw" project in
  let tokens =
    List.map
      (fun u -> (u, login cloud ~user:u ~password:(u ^ "-pw") project))
      [ "alice"; "bob"; "carol" ]
  in
  (clock, cloud, service_token, tokens)

let cross_world ~traced ~mode ?cache ?(faults = Cm_cloudsim.Faults.none)
    ~journal () =
  let (clock, cloud, service_token, tokens), cloud_ns =
    timed (fun () -> bootstrap faults)
  in
  let backend = backend ~traced cloud in
  let config ?journal_pre ?journal_barrier () =
    Monitor.default_config ~mode ?cache ~clock ?journal_pre ?journal_barrier
      ~service_token
      ~security:
        { Cm_contracts.Generate.table = Cm_rbac.Security_table.cross;
          assignment = Cm_rbac.Security_table.cinder_assignment }
      Cm_uml.Cross_model.resources Cm_uml.Cross_model.behavior
  in
  let (monitor, journal), monitor_ns =
    timed (fun () ->
        if journal then begin
          let device = Device.create ~clock ~seed:7 () in
          let make ~journal_pre ~journal_barrier ~crash:_ () =
            let journal_pre, journal_barrier =
              if traced then
                ( Spans.hook Spans.Journal_pre journal_pre,
                  Spans.hook Spans.Journal_barrier journal_barrier )
              else (journal_pre, journal_barrier)
            in
            Monitor.create (config ~journal_pre ~journal_barrier ()) backend
          in
          let jmon = ok_or_fail "Jmonitor.create" (Jmonitor.create ~batch:8 device make) in
          (Jmonitor.monitor jmon, Some (jmon, device))
        end
        else (ok_or_fail "Monitor.create" (Monitor.create (config ()) backend), None))
  in
  ({ cloud; tokens; monitor; journal }, { cloud_ns; monitor_ns })

let serve_cross w req =
  match w.journal with
  | Some (jmon, _) -> Jmonitor.handle jmon req
  | None -> Monitor.handle w.monitor req

let cross_counters w =
  counters
    ?device:(Option.map snd w.journal)
    (Monitor.cache_stats w.monitor) (Monitor.eval_stats w.monitor)

let user_of_role = function
  | Workload.Admin -> "alice"
  | Workload.Member -> "bob"
  | Workload.User -> "carol"

(* [Scenario.churn_project]: a throwaway project gets a volume added and
   removed behind the monitor's back. *)
let churn_project cloud k =
  let store = Cloud.store cloud in
  let pid = Printf.sprintf "churn-%d" k in
  let proj =
    match Store.find_project store pid with
    | Some p -> p
    | None -> Store.add_project store ~id:pid ~name:pid ~quota_volumes:2 ~quota_gigabytes:10 ()
  in
  let volume = Store.add_volume store proj ~name:"churn-vol" ~size_gb:1 () in
  ignore (Store.remove_volume proj volume.Store.volume_id)

(* [Scenario.exec_env] / [jexec_env] without the per-request
   [verdict_for_rid] scan: out-of-band steps are journaled as marks when
   a journal is attached. *)
let exec_env w ~handle =
  let mark note = Option.iter (fun (jmon, _) -> Jmonitor.mark jmon note) w.journal in
  { Exec.project;
    stable_volumes = [];
    victim_volumes = [];
    handle;
    token = (fun role -> List.assoc (user_of_role role) w.tokens);
    relogin =
      Some
        (fun role ->
          let user = user_of_role role in
          mark ("relogin:" ^ user);
          Result.to_option
            (Cloud.login w.cloud ~user ~password:(user ^ "-pw") ~project_id:project));
    churn =
      Some
        (fun k ->
          mark (Printf.sprintf "churn:%d" k);
          churn_project w.cloud k);
    flush = (fun () -> Monitor.flush_cache w.monitor) }

(* The churn trace: the named churn-heavy mix (256 steps), epoch after
   epoch with seeds drawn from [seed], each epoch followed by deleting
   what it left behind — servers, fresh volumes, images (deactivated
   first when active).  One long churn-heavy trace is a random walk in
   live servers: how far the server listing, and with it the cost of
   every request that observes it, grows differs from seed to seed.
   Epochs keep the state bounded and the same from run to run. *)
let churn_trace ~seed ~steps =
  let rng = Cm_core.Prng.of_seed seed in
  let admin op = { Workload.actor = Workload.Admin; op } in
  let cleanup epoch =
    let servers = ref [] and volumes = ref [] and images = ref [] in
    List.iter
      (fun (s : Workload.step) ->
        match s.op with
        | Create_server { idx; _ } -> servers := idx :: !servers
        | Delete_server (Live idx) -> servers := List.filter (( <> ) idx) !servers
        | Create_volume { idx; _ } -> volumes := idx :: !volumes
        | Delete_volume (Fresh idx) -> volumes := List.filter (( <> ) idx) !volumes
        | Create_image { idx; _ } -> images := (idx, "queued") :: !images
        | Set_image_status (Img idx, status) ->
          images := List.map (fun (i, s) -> (i, if i = idx then status else s)) !images
        | Delete_image (Img idx) -> images := List.filter (fun (i, _) -> i <> idx) !images
        | _ -> ())
      epoch;
    List.map (fun i -> admin (Delete_server (Live i))) !servers
    @ List.map (fun i -> admin (Delete_volume (Fresh i))) !volumes
    @ List.concat_map
        (fun (i, status) ->
          (if status = "active" then [ admin (Set_image_status (Img i, "deactivated")) ]
           else [])
          @ [ admin (Delete_image (Img i)) ])
        !images
  in
  let rec go acc n =
    if n >= steps then List.concat (List.rev acc)
    else begin
      let epoch =
        Workload.churn_heavy.compile ~seed:(Cm_core.Prng.int rng 1_000_000_000)
      in
      let e = epoch @ cleanup epoch in
      go (e :: acc) (n + List.length e)
    end
  in
  go [] 0

(* Monitored requests a dynamic trace issues: every step but the
   out-of-band ones. *)
let monitored_steps trace =
  List.length
    (List.filter
       (fun (s : Workload.step) ->
         match s.op with
         | Workload.Relogin _ | Workload.Churn_project _ -> false
         | _ -> true)
       trace)

let tag_request_id n (req : Request.t) =
  { req with
    headers =
      Cm_http.Headers.replace Jmonitor.rid_header (Printf.sprintf "b-%d" n)
        req.headers }
