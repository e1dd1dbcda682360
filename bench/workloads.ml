(* Synthetic workload builders for the scaling benches: resource models
   of parametric width and protocol machines of parametric depth, plus a
   ready-to-use monitored cloud fixture.

   Determinism contract: every builder here is a pure function of its
   parameters — [wide_resources] and [deep_behavior] of their size,
   [request_stream] of its (mix, seed).  Same arguments, same artifact,
   bit for bit, so bench runs are reproducible and comparable across
   hosts and commits.  Request streams come from the workload DSL
   ({!Cm_workload.Workload}); seeds are always explicit — no builder
   draws from implicit global randomness. *)

module RM = Cm_uml.Resource_model
module BM = Cm_uml.Behavior_model
module Meth = Cm_http.Meth
module Json = Cm_json.Json

let ocl = Cm_ocl.Ocl_parser.parse_exn

(* A resource model with [n] item kinds, each under its own collection
   below the root project: /v1/{project_id}/r0/{r0_id}, ... *)
let wide_resources n : RM.t =
  let kinds = List.init n (fun i -> Printf.sprintf "r%d" i) in
  { RM.model_name = Printf.sprintf "wide%d" n;
    base_path = "/v1";
    root = "Projects";
    resources =
      (RM.collection "Projects"
      :: RM.normal "project" [ ("id", RM.A_string) ]
      :: List.concat_map
           (fun kind ->
             [ RM.collection ("C_" ^ kind);
               RM.normal kind [ ("id", RM.A_string); ("status", RM.A_string) ]
             ])
           kinds);
    associations =
      (RM.assoc ~role:"projects" "Projects" "project"
      :: List.concat_map
           (fun kind ->
             [ RM.assoc
                 ~multiplicity:Cm_uml.Multiplicity.exactly_one
                 ~role:kind "project" ("C_" ^ kind);
               RM.assoc ~role:("item_" ^ kind) ("C_" ^ kind) kind
             ])
           kinds)
  }

(* A protocol machine over the first item kind with [n] counting states:
   state s_i means "i items exist"; POST moves up, DELETE moves down. *)
let deep_behavior n : BM.t =
  let state_name i = Printf.sprintf "s%d" i in
  let invariant i = ocl (Printf.sprintf "project.r0->size() = %d" i) in
  let states =
    List.init (n + 1) (fun i -> BM.state (state_name i) (invariant i))
  in
  let ups =
    List.init n (fun i ->
        BM.transition
          ~effect:(ocl (Printf.sprintf "project.r0->size() = %d" (i + 1)))
          ~requirements:[ "up" ]
          ~source:(state_name i) ~target:(state_name (i + 1)) Meth.POST "r0")
  in
  let downs =
    List.init n (fun i ->
        BM.transition
          ~guard:(ocl "r0.status <> 'busy'")
          ~effect:(ocl (Printf.sprintf "project.r0->size() = %d" i))
          ~requirements:[ "down" ]
          ~source:(state_name (i + 1)) ~target:(state_name i) Meth.DELETE "r0")
  in
  { BM.machine_name = Printf.sprintf "deep%d" n;
    context = "project";
    initial = state_name 0;
    states;
    transitions = ups @ downs
  }

(* Monitored-cloud fixture shared by the latency benches. *)
type fixture = {
  cloud : Cm_cloudsim.Cloud.t;
  monitor_oracle : Cm_monitor.Monitor.t;
  monitor_enforce : Cm_monitor.Monitor.t;
  reference : Cm_monitor.Reference.t;  (* Oracle mode, same cloud *)
  alice : string;
  volume_id : string;
}

let security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let ok_or_fail = function
  | Ok v -> v
  | Error msgs -> failwith (String.concat "; " msgs)

let make_fixture () =
  let module Cloud = Cm_cloudsim.Cloud in
  let cloud = Cloud.create () in
  Cloud.seed cloud Cloud.my_project;
  Cm_cloudsim.Identity.add_user (Cloud.identity cloud) ~password:"svc"
    (Cm_rbac.Subject.make "svc" [ "proj_administrator" ]);
  let login user pw =
    match Cloud.login cloud ~user ~password:pw ~project_id:"myProject" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let service = login "svc" "svc" in
  let make mode =
    ok_or_fail
      (Cm_monitor.Monitor.create
         (Cm_monitor.Monitor.default_config ~mode ~service_token:service
            ~security Cm_uml.Cinder_model.resources
            Cm_uml.Cinder_model.behavior)
         (Cloud.handle cloud))
  in
  let alice = login "alice" "alice-pw" in
  (* one volume to GET against *)
  let create =
    Cm_http.Request.make Cm_http.Meth.POST "/v3/myProject/volumes"
      ~body:
        (Json.obj
           [ ( "volume",
               Json.obj [ ("name", Json.string "bench"); ("size", Json.int 1) ]
             )
           ])
    |> Cm_http.Request.with_auth_token alice
  in
  let resp = Cloud.handle cloud create in
  let volume_id =
    match resp.Cm_http.Response.body with
    | Some body ->
      (match Cm_json.Pointer.get [ Key "volume"; Key "id" ] body with
       | Some (Json.String id) -> id
       | _ -> failwith "no volume id")
    | None -> failwith "no create body"
  in
  { cloud;
    monitor_oracle = make Cm_monitor.Monitor.Oracle;
    monitor_enforce = make Cm_monitor.Monitor.Enforce;
    reference =
      ok_or_fail
        (Cm_monitor.Reference.create ~service_token:service ~security
           Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior
           (Cloud.handle cloud));
    alice;
    volume_id
  }

let get_volume_request fx =
  Cm_http.Request.make Cm_http.Meth.GET
    ("/v3/myProject/volumes/" ^ fx.volume_id)
  |> Cm_http.Request.with_auth_token fx.alice

(* A seeded request stream over the fixture's project, compiled from a
   workload-DSL mix (default: the serving benchmark's read-heavy mix).
   All three DSL roles resolve to alice's token — the benches measure
   monitoring cost, not authorization outcomes, and admin passes every
   check the contracts make. *)
let request_stream ?(mix = Cm_workload.Workload.read_heavy) ~seed fx =
  let st =
    { Cm_workload.Exec.st_project = "myProject";
      st_token = (fun _ -> fx.alice);
      st_stable_volumes = [ fx.volume_id ];
      st_victim_volumes = []
    }
  in
  Cm_workload.Exec.requests st (mix.Cm_workload.Workload.compile ~seed)

(* The second worked example, for cross-service fastpath numbers. *)
type glance_fixture = {
  g_cloud : Cm_cloudsim.Cloud.t;
  g_monitor : Cm_monitor.Monitor.t;
  g_reference : Cm_monitor.Reference.t;  (* Oracle mode, same cloud *)
  g_alice : string;
  image_id : string;
}

let glance_security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.glance;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let make_glance_fixture () =
  let module Cloud = Cm_cloudsim.Cloud in
  let cloud = Cloud.create () in
  Cloud.seed cloud Cloud.my_project;
  Cm_cloudsim.Identity.add_user (Cloud.identity cloud) ~password:"svc"
    (Cm_rbac.Subject.make "svc" [ "proj_administrator" ]);
  let login user pw =
    match Cloud.login cloud ~user ~password:pw ~project_id:"myProject" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let service = login "svc" "svc" in
  let monitor =
    ok_or_fail
      (Cm_monitor.Monitor.create
         (Cm_monitor.Monitor.default_config ~service_token:service
            ~security:glance_security Cm_uml.Glance_model.resources
            Cm_uml.Glance_model.behavior)
         (Cloud.handle cloud))
  in
  let alice = login "alice" "alice-pw" in
  let create =
    Cm_http.Request.make Cm_http.Meth.POST "/v3/myProject/images"
      ~body:
        (Json.obj
           [ ( "image",
               Json.obj [ ("name", Json.string "bench"); ("size", Json.int 512) ]
             )
           ])
    |> Cm_http.Request.with_auth_token alice
  in
  let resp = Cm_cloudsim.Cloud.handle cloud create in
  let image_id =
    match resp.Cm_http.Response.body with
    | Some body ->
      (match Cm_json.Pointer.get [ Key "image"; Key "id" ] body with
       | Some (Json.String id) -> id
       | _ -> failwith "no image id")
    | None -> failwith "no create body"
  in
  { g_cloud = cloud;
    g_monitor = monitor;
    g_reference =
      ok_or_fail
        (Cm_monitor.Reference.create ~service_token:service
           ~security:glance_security Cm_uml.Glance_model.resources
           Cm_uml.Glance_model.behavior (Cloud.handle cloud));
    g_alice = alice;
    image_id
  }

let get_image_request fx =
  Cm_http.Request.make Cm_http.Meth.GET
    ("/v3/myProject/images/" ^ fx.image_id)
  |> Cm_http.Request.with_auth_token fx.g_alice
