(* Determinism under parallelism: everything the monitor reports must
   be a pure function of the request stream and the shard count, never
   of how many domains served it.  The suites below re-run the mutation
   campaign, a fuzz slice and a sharded multi-tenant workload at 1, 2
   and 4 domains and require bit-identical verdicts, plus the
   cache-invalidation properties that make the observation cache unable
   to mask real state changes or concurrent interference. *)

module Campaign = Cm_mutation.Campaign
module Mutant = Cm_mutation.Mutant
module Scenario = Cm_mutation.Scenario
module Chaos = Cm_cloudsim.Chaos
module Monitor = Cm_monitor.Monitor
module Obs_cache = Cm_monitor.Obs_cache
module Outcome = Cm_monitor.Outcome
module Response = Cm_http.Response
module Meth = Cm_http.Meth

let domain_counts = [ 1; 2; 4 ]

(* ---- mutation campaign at several domain counts ---- *)

let campaign_projection results =
  List.map
    (fun (r : Campaign.result) ->
      ( (match r.mutant with None -> "baseline" | Some m -> m.Mutant.name),
        r.killed,
        r.exchanges,
        r.first_violation ))
    results

let test_campaign_domains () =
  let runs =
    List.map
      (fun domains ->
        match Campaign.run ~domains Mutant.all with
        | Ok results -> results
        | Error msgs -> Alcotest.fail (String.concat "; " msgs))
      domain_counts
  in
  List.iter
    (fun results ->
      Alcotest.(check bool) "all mutants killed, baseline clean" true
        (Campaign.all_killed results))
    runs;
  match List.map campaign_projection runs with
  | [] -> ()
  | reference :: rest ->
    List.iteri
      (fun i other ->
        Alcotest.(check bool)
          (Printf.sprintf "kill matrix identical at %d domains"
             (List.nth domain_counts (i + 1)))
          true (other = reference))
      rest

let chaos_projection runs =
  List.map
    (fun (r : Campaign.chaos_run) ->
      ( (match r.cr_mutant with None -> "baseline" | Some m -> m.Mutant.name),
        r.cr_killed,
        r.cr_exchanges,
        List.length r.cr_flips,
        r.cr_indefinite ))
    runs

let test_chaos_campaign_domains () =
  let profile =
    match Chaos.find_profile "flaky-network" with
    | Some p -> p
    | None -> Alcotest.fail "flaky-network profile missing"
  in
  let runs =
    List.map
      (fun domains ->
        match Campaign.run_chaos ~domains profile Mutant.all with
        | Ok runs -> runs
        | Error msgs -> Alcotest.fail (String.concat "; " msgs))
      [ 1; 2 ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "no flips, mutants still killed under chaos" true
        (Campaign.chaos_ok r))
    runs;
  match List.map chaos_projection runs with
  | [ reference; two ] ->
    Alcotest.(check bool) "chaos matrix identical at 2 domains" true
      (two = reference)
  | _ -> Alcotest.fail "expected two chaos runs"

(* ---- fuzz slice at several domain counts ---- *)

(* Each fuzz case builds its own cloud + monitor, so cases are
   independent jobs; the verdict of case [i] must not depend on which
   domain ran it.  500 cases of the monitor oracle (the verdict-bearing
   one) without shrinking. *)
let test_fuzz_domains () =
  let oracle =
    match Cm_proptest.Oracle.find "monitor" with
    | Some o -> o
    | None -> Alcotest.fail "monitor oracle missing"
  in
  let cases = 500 in
  let verdict_name index =
    match
      oracle.Cm_proptest.Oracle.run_case ~shrink:false ~seed:42 ~index
        ~size:(2 + (index mod 9))
    with
    | Cm_proptest.Oracle.Pass -> (index, "pass", "")
    | Cm_proptest.Oracle.Fail f ->
      (index, "fail", f.Cm_proptest.Oracle.detail)
  in
  let indices = List.init cases (fun i -> i) in
  let runs =
    List.map
      (fun domains ->
        Cm_core.Domain_pool.map_list ~domains verdict_name indices)
      domain_counts
  in
  match runs with
  | reference :: rest ->
    Alcotest.(check int) "all cases ran" cases (List.length reference);
    List.iter
      (fun (_, verdict, _) ->
        Alcotest.(check string) "fuzz baseline passes" "pass" verdict)
      reference;
    List.iteri
      (fun i other ->
        Alcotest.(check bool)
          (Printf.sprintf "fuzz verdicts identical at %d domains"
             (List.nth domain_counts (i + 1)))
          true (other = reference))
      rest
  | [] -> ()

(* ---- workload mixes over the partitioned store at 1/2/4 domains ---- *)

(* Does the write-effect analysis ({!Cm_analysis.Effects.events}) prove
   the request's event tenant-keyed?  The request is classified as the
   monitor classifies it (a monitor built from the same config; [create]
   never calls the backend).  Unclassified requests — token
   introspections, unmodelled paths — are conservatively cross-shard. *)
let tenant_keyed_predicate (config : Monitor.config) =
  let monitor =
    match
      Monitor.create config (fun _ ->
          Response.error Cm_http.Status.not_found "")
    with
    | Ok m -> m
    | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  in
  let events =
    match
      Cm_analysis.Effects.events
        { Cm_analysis.Input.resources = config.resources;
          behavior = config.behavior;
          security = config.security
        }
    with
    | Ok events -> events
    | Error msg -> Alcotest.fail msg
  in
  fun (req : Cm_http.Request.t) ->
    match Monitor.entry_for_path monitor req.Cm_http.Request.path with
    | None -> false
    | Some entry ->
      let trigger =
        Monitor.trigger_for monitor entry req.Cm_http.Request.meth
      in
      List.exists
        (fun (ev : Cm_analysis.Effects.event) ->
          Cm_uml.Behavior_model.trigger_equal ev.ev_trigger trigger
          && ev.ev_tenant_keyed)
        events

(* The batch-served mixes are restricted to their shard-closed
   projection — but which requests are shard-closed is the static
   analysis' call, not the test's.  A request stays iff the write-effect
   analysis proved its event tenant-keyed ({!tenant_keyed_predicate}),
   or it is a safe method (reads have no write effect — the AN013
   invariant — so they cannot couple shards).  Everything else — token
   revocations writing shared identity state, unmodelled cross-service
   mutations — is conservatively cross-shard and serializes outside the
   batch determinism contract; revocation visibility has its own
   sequential scenario coverage. *)
let shard_safe_predicate config =
  let tenant_keyed = tenant_keyed_predicate config in
  fun (req : Cm_http.Request.t) ->
    tenant_keyed req || Meth.is_safe req.Cm_http.Request.meth

(* A miniature serve-bench world: one cloud, [projects] tenants over the
   RCU-partitioned store, each tenant replaying the same symbolic mix
   (statically compiled, so the stream is a pure function of the mix and
   the tenant).  Per-tenant request lists are projected onto their
   shard-safe part and interleave round-robin; every domain count must
   produce bit-identical verdicts. *)
let mix_world ~projects trace_for =
  let module Cloud = Cm_cloudsim.Cloud in
  let module Store = Cm_cloudsim.Store in
  let module Identity = Cm_cloudsim.Identity in
  let module Request = Cm_http.Request in
  let module Json = Cm_json.Json in
  let cloud = Cloud.create () in
  let identity = Cloud.identity cloud in
  let login user project_id =
    match Cloud.login cloud ~user ~password:"pw" ~project_id with
    | Ok t -> t
    | Error e -> Alcotest.fail ("mix_world login failed: " ^ e)
  in
  let tenants =
    Array.init projects (fun i ->
        let pid = Printf.sprintf "mix-proj-%02d" i in
        ignore
          (Store.add_project (Cloud.store cloud) ~id:pid ~name:pid
             ~quota_volumes:64 ~quota_gigabytes:100_000 ~quota_images:8 ());
        Identity.set_assignment identity ~project_id:pid
          Cm_rbac.Security_table.cinder_assignment;
        let add name groups =
          Identity.add_user identity ~password:"pw"
            (Cm_rbac.Subject.make name groups)
        in
        add (Printf.sprintf "mx-admin-%d" i) [ "proj_administrator" ];
        add (Printf.sprintf "mx-member-%d" i) [ "service_architect" ];
        let admin = login (Printf.sprintf "mx-admin-%d" i) pid in
        let member = login (Printf.sprintf "mx-member-%d" i) pid in
        let create name =
          let body =
            Json.obj
              [ ( "volume",
                  Json.obj
                    [ ("name", Json.string name); ("size", Json.int 1) ] )
              ]
          in
          let resp =
            Cloud.handle cloud
              (Request.make ~body Meth.POST
                 (Printf.sprintf "/v3/%s/volumes" pid)
              |> Request.with_auth_token member)
          in
          match
            Option.bind resp.Response.body (fun b ->
                Cm_json.Pointer.get [ Key "volume"; Key "id" ] b)
          with
          | Some (Json.String id) -> id
          | Some _ | None -> Alcotest.fail "mix_world volume seeding failed"
        in
        let stable = List.init 4 (fun v -> create (Printf.sprintf "s-%d" v)) in
        let victims = List.init 6 (fun v -> create (Printf.sprintf "v-%d" v)) in
        let st =
          { Cm_workload.Exec.st_project = pid;
            st_token =
              (function
              | Cm_workload.Workload.Admin -> admin
              | Cm_workload.Workload.Member | Cm_workload.Workload.User ->
                member);
            st_stable_volumes = stable;
            st_victim_volumes = victims
          }
        in
        (pid, admin, Array.of_list (Cm_workload.Exec.requests st (trace_for i))))
  in
  let service_token_for =
    let table =
      Array.to_list tenants |> List.map (fun (pid, admin, _) -> (pid, admin))
    in
    fun project -> List.assoc_opt project table
  in
  let config =
    Monitor.default_config ~cache:Obs_cache.Cross_request
      ~service_token:(match tenants.(0) with _, admin, _ -> admin)
      ~service_token_for
      ~security:
        { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
          assignment = Cm_rbac.Security_table.cinder_assignment
        }
      Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior
  in
  let shard_safe = shard_safe_predicate config in
  let per_tenant =
    Array.map
      (fun (_, _, reqs) ->
        Array.of_list (List.filter shard_safe (Array.to_list reqs)))
      tenants
  in
  let steps = Array.fold_left (fun m a -> min m (Array.length a)) max_int per_tenant in
  let reqs =
    List.init (steps * projects) (fun step ->
        per_tenant.(step mod projects).(step / projects))
  in
  (config, Cloud.handle cloud, reqs)

let mix_verdicts ~projects trace_for domains =
  let config, backend, reqs = mix_world ~projects trace_for in
  match Cm_monitor.Shard.create ~shards:projects config backend with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok pool ->
    let outcomes = Cm_monitor.Shard.handle_all ~domains pool reqs in
    let names arr =
      List.map
        (fun (o : Outcome.t) ->
          Outcome.conformance_to_string o.Outcome.conformance)
        arr
    in
    (* a shard serves its requests in arrival order *)
    let by_shard = Array.make projects [] in
    List.iteri
      (fun i req ->
        let s = Cm_monitor.Shard.shard_of pool req in
        by_shard.(s) <- outcomes.(i) :: by_shard.(s))
      reqs;
    ( names (Array.to_list outcomes),
      Array.map (fun o -> names (List.rev o)) by_shard )

let check_mix_deterministic name trace_for =
  let runs =
    List.map (fun d -> mix_verdicts ~projects:4 trace_for d) domain_counts
  in
  match runs with
  | (ref_arrival, ref_shards) :: rest ->
    Alcotest.(check bool)
      (name ^ ": workload is non-trivial")
      true
      (List.length ref_arrival > 0);
    List.iteri
      (fun i (arrival, shards) ->
        let d = List.nth domain_counts (i + 1) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: arrival verdicts identical at %d domains" name d)
          true (arrival = ref_arrival);
        Alcotest.(check bool)
          (Printf.sprintf "%s: per-shard sequences identical at %d domains"
             name d)
          true (shards = ref_shards))
      rest
  | [] -> ()

(* ---- sharded serving: arrival order and per-shard sequences ---- *)

(* The read-heavy mix, 4 tenants x 25 steps: every step is a modelled
   volume operation, so the shard-safe projection keeps all 100. *)
let test_shard_determinism () =
  let trace_for i =
    Cm_workload.Workload.read_heavy_trace ~steps:25 ~victims:2 ~seed:(7 + i)
  in
  let _, _, reqs = mix_world ~projects:4 trace_for in
  Alcotest.(check int) "expected workload size" 100 (List.length reqs);
  check_mix_deterministic "read-heavy" trace_for

let test_mix_standard () =
  check_mix_deterministic "standard"
    (fun _ -> Cm_workload.Workload.standard_trace)

let test_mix_cross () =
  check_mix_deterministic "cross"
    (fun _ -> Cm_workload.Workload.cross_trace)

let test_mix_churn_heavy () =
  check_mix_deterministic "churn-heavy" (fun i ->
      Cm_workload.Workload.churn_heavy_trace ~steps:40 ~seed:(11 + i))

(* The projection itself: per symbolic op, is its request kept?  Token
   revocation — a DELETE writing shared identity state from a path that
   binds no project — must be flagged cross-shard {e by the analysis}
   (the old hand-written "drop the revocations" filter), every modelled
   volume operation must be proven tenant-keyed, and unmodelled
   cross-service mutations are conservatively cross-shard while their
   reads stay. *)
let test_shard_safe_projection () =
  let config =
    Monitor.default_config ~service_token:"svc"
      ~security:
        { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
          assignment = Cm_rbac.Security_table.cinder_assignment
        }
      Cm_uml.Cinder_model.resources Cm_uml.Cinder_model.behavior
  in
  let tenant_keyed = tenant_keyed_predicate config in
  let shard_safe = shard_safe_predicate config in
  let st =
    { Cm_workload.Exec.st_project = "proj-a";
      st_token = (fun _ -> "tok");
      st_stable_volumes = [ "sv-0" ];
      st_victim_volumes = [ "vv-0" ]
    }
  in
  let expected (op : Cm_workload.Workload.op) =
    match op with
    (* modelled volume operations: the analysis proves them tenant-keyed *)
    | Cm_workload.Workload.Create_volume _ | Cm_workload.Workload.List_volumes
    | Cm_workload.Workload.Show_volume _ | Cm_workload.Workload.Rename_volume _
    | Cm_workload.Workload.Delete_volume _ ->
      Some true
    (* unmodelled reads: safe methods have no write effect *)
    | Cm_workload.Workload.List_servers | Cm_workload.Workload.Show_server _
    | Cm_workload.Workload.List_images | Cm_workload.Workload.Show_image _ ->
      Some true
    (* unmodelled mutations and the identity write: cross-shard *)
    | Cm_workload.Workload.Volume_action_attach _
    | Cm_workload.Workload.Volume_action_detach _
    | Cm_workload.Workload.Create_server _ | Cm_workload.Workload.Delete_server _
    | Cm_workload.Workload.Attach _ | Cm_workload.Workload.Detach _
    | Cm_workload.Workload.Create_image _
    | Cm_workload.Workload.Set_image_status _
    | Cm_workload.Workload.Delete_image _ | Cm_workload.Workload.Revoke_token _
      ->
      Some false
    (* out-of-band: no request to classify *)
    | Cm_workload.Workload.Relogin _ | Cm_workload.Workload.Churn_project _ ->
      None
  in
  let check_trace name trace =
    List.iter
      (fun (s : Cm_workload.Workload.step) ->
        match
          (Cm_workload.Exec.requests st [ s ], expected s.Cm_workload.Workload.op)
        with
        | [], None -> ()
        | [ req ], Some want ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s shard-safe?" name
               (String.trim (Cm_workload.Workload.render [ s ])))
            want (shard_safe req);
          (* revocations specifically: the *classifier* itself must call
             them cross-shard, not the safe-method escape hatch *)
          (match s.Cm_workload.Workload.op with
           | Cm_workload.Workload.Revoke_token _ ->
             Alcotest.(check bool)
               (name ^ ": revocation flagged cross-shard by the analysis")
               false (tenant_keyed req)
           | _ -> ())
        | reqs, _ ->
          Alcotest.fail
            (Printf.sprintf "%s: unexpected request/expectation shape (%d)"
               name (List.length reqs)))
      trace
  in
  check_trace "standard" Cm_workload.Workload.standard_trace;
  check_trace "cross" Cm_workload.Workload.cross_trace;
  check_trace "churn-heavy"
    (Cm_workload.Workload.churn_heavy_trace ~steps:40 ~seed:11);
  (* and the projection is non-trivial in both directions: something is
     kept, something is dropped *)
  let reqs = Cm_workload.Exec.requests st Cm_workload.Workload.standard_trace in
  let kept = List.filter shard_safe reqs in
  Alcotest.(check bool) "projection keeps work" true (kept <> []);
  Alcotest.(check bool) "projection drops the cross-shard steps" true
    (List.length kept < List.length reqs)

(* ---- RCU snapshots: no torn publishes ---- *)

(* The writer side of both tests: wait until the reader domain runs,
   then write for at least [rounds] rounds and until the reader has
   made a read, so the reads overlap the writes even when the reader
   domain is scheduled late (the cap only keeps a dead reader from
   hanging the test). *)
let write_while_reading ~started ~reads ~rounds write =
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let round = ref 0 in
  while !round < rounds || (Atomic.get reads = 0 && !round < 1000 * rounds) do
    incr round;
    write !round
  done

(* A reader domain hammers [find_project] while a writer adds and
   removes projects.  Snapshot publication is a single [Atomic.set] of
   an immutable map, so every lookup must observe either nothing or a
   fully-formed project — never a half-initialized one. *)
let test_store_torn_publish () =
  let module Store = Cm_cloudsim.Store in
  let store = Store.create () in
  let keys = Array.init 8 (fun i -> Printf.sprintf "torn-%d" i) in
  let started = Atomic.make false in
  let stop = Atomic.make false in
  let reads = Atomic.make 0 in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          Array.iter
            (fun key ->
              Atomic.incr reads;
              match Store.find_project store key with
              | None -> ()
              | Some p ->
                if
                  p.Store.project_id <> key
                  || p.Store.quota_volumes <> 17
                  || p.Store.quota_gigabytes <> 1000
                then Atomic.incr torn)
            keys
        done)
  in
  write_while_reading ~started ~reads ~rounds:400 (fun round ->
      Array.iter
        (fun key ->
          if round land 1 = 1 then
            ignore
              (Store.add_project store ~id:key ~name:key ~quota_volumes:17
                 ~quota_gigabytes:1000 ())
          else ignore (Store.remove_project store key))
        keys);
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check bool) "reader made progress" true (Atomic.get reads > 0);
  Alcotest.(check int) "no torn project observed" 0 (Atomic.get torn)

(* Same shape for identity: tokens are issued and revoked by a writer
   while a reader validates the latest published token.  [validate]
   must answer [None] or a complete token_info for the right project —
   a revoked token must never resolve. *)
let test_identity_torn_publish () =
  let module Identity = Cm_cloudsim.Identity in
  let identity = Identity.create () in
  Identity.add_user identity ~password:"pw"
    (Cm_rbac.Subject.make "torn-user" [ "proj_administrator" ]);
  Identity.set_assignment identity ~project_id:"torn-proj"
    Cm_rbac.Security_table.cinder_assignment;
  let current = Atomic.make "" in
  let started = Atomic.make false in
  let stop = Atomic.make false in
  let reads = Atomic.make 0 in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          let token = Atomic.get current in
          if token <> "" then begin
            Atomic.incr reads;
            match Identity.validate identity ~token with
            | None -> ()
            | Some info ->
              if
                info.Identity.project_id <> "torn-proj"
                || info.Identity.subject.Cm_rbac.Subject.user_name
                   <> "torn-user"
              then Atomic.incr torn
          end
        done)
  in
  write_while_reading ~started ~reads ~rounds:2000 (fun _ ->
      match
        Identity.issue_token identity ~user:"torn-user" ~password:"pw"
          ~project_id:"torn-proj"
      with
      | Error e -> Alcotest.fail ("issue_token failed: " ^ e)
      | Ok token ->
        Atomic.set current token;
        Identity.revoke identity ~token);
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check bool) "reader made progress" true (Atomic.get reads > 0);
  Alcotest.(check int) "no torn token_info observed" 0 (Atomic.get torn);
  (* after the dust settles, the last token is revoked and must not
     resolve through the normal read path *)
  Alcotest.(check bool) "revoked token stays dead" true
    (Identity.validate identity ~token:(Atomic.get current) = None)

(* ---- persistent pool: no spawns in the steady state ---- *)

let test_pool_no_steady_state_spawns () =
  let module DP = Cm_core.Domain_pool in
  let pool = DP.create ~size:0 in
  let batch () =
    let r = DP.run ~pool ~domains:3 12 (fun i -> i * i) in
    Alcotest.(check int) "batch result intact" (11 * 11) r.(11)
  in
  batch ();
  (* first batch may grow the pool *)
  Alcotest.(check int) "pool grew to domains-1 workers" 2 (DP.size pool);
  let spawned_before = DP.spawn_count () in
  for _ = 1 to 25 do
    batch ()
  done;
  Alcotest.(check int) "steady-state batches spawn no domains"
    spawned_before (DP.spawn_count ());
  DP.shutdown pool;
  Alcotest.(check int) "shutdown empties the pool" 0 (DP.size pool)

(* The shard layer serves batches on the shared pool: repeated
   [handle_all] calls at the same domain count must not spawn. *)
let test_shard_serving_reuses_pool () =
  let config, backend, reqs =
    mix_world ~projects:2 (fun _ -> Cm_workload.Workload.standard_trace)
  in
  match Cm_monitor.Shard.create ~shards:2 config backend with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok pool ->
    ignore (Cm_monitor.Shard.handle_all ~domains:2 pool reqs);
    let spawned_before = Cm_core.Domain_pool.spawn_count () in
    for _ = 1 to 5 do
      ignore (Cm_monitor.Shard.handle_all ~domains:2 pool reqs)
    done;
    Alcotest.(check int) "steady-state serving spawns no domains"
      spawned_before
      (Cm_core.Domain_pool.spawn_count ())

(* ---- worker failures are collected, not dropped ---- *)

exception Boom of int

let test_single_failure_reraised () =
  let module DP = Cm_core.Domain_pool in
  let run () =
    ignore
      (DP.run ~domains:2 8 (fun i -> if i = 5 then raise (Boom i) else i))
  in
  (match run () with
   | () -> Alcotest.fail "expected Boom"
   | exception Boom 5 -> ()
   | exception e ->
     Alcotest.fail ("expected Boom 5, got " ^ Printexc.to_string e))

let test_multiple_failures_aggregated () =
  let module DP = Cm_core.Domain_pool in
  let attempt domains =
    match
      DP.run ~domains 8 (fun i -> if i >= 5 then raise (Boom i) else i)
    with
    | _ -> Alcotest.fail "expected Task_failures"
    | exception DP.Task_failures { first; failed; total } ->
      Alcotest.(check int) "every failed task counted" 3 failed;
      Alcotest.(check int) "total is the batch size" 8 total;
      (match first with
       | Boom 5 -> ()
       | e ->
         Alcotest.fail
           ("first should be the lowest failed index: " ^ Printexc.to_string e))
  in
  (* both the spawning path and the pooled path must aggregate *)
  attempt 2;
  let pool = DP.create ~size:0 in
  (match
     DP.run ~pool ~domains:3 8 (fun i -> if i >= 5 then raise (Boom i) else i)
   with
   | _ -> Alcotest.fail "expected Task_failures (pooled)"
   | exception DP.Task_failures { failed; total; _ } ->
     Alcotest.(check int) "pooled path counts failures too" 3 failed;
     Alcotest.(check int) "pooled total" 8 total);
  (* a failing batch must not poison the pool for the next batch *)
  let r = DP.run ~pool ~domains:3 6 (fun i -> i + 1) in
  Alcotest.(check int) "pool still serves after failures" 6 r.(5);
  DP.shutdown pool

(* ---- the monitored read path takes zero locks ---- *)

(* Instrumented-lock acquisitions on the monitored {e read} path: the
   read-heavy mix's GETs (listings and item reads) served twice through
   one pool, the process-global Lockstat counter differenced over the
   second pass — setup and the first pass (logins, seeding, contract
   generation, one-time lazy initialization) lock freely.  With the RCU
   store and lock-free identity validation the delta must be exactly
   zero; any nonzero value means a lock crept back onto the hot path. *)
let test_get_path_lock_free () =
  let config, backend, reqs =
    mix_world ~projects:2 (fun i ->
        Cm_workload.Workload.read_heavy_trace ~steps:30 ~victims:2
          ~seed:(21 + i))
  in
  let gets =
    List.filter (fun (r : Cm_http.Request.t) -> r.meth = Meth.GET) reqs
  in
  Alcotest.(check bool) "the mix has GETs" true (gets <> []);
  match Cm_monitor.Shard.create ~shards:2 config backend with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok pool ->
    ignore (Cm_monitor.Shard.handle_all ~domains:1 pool gets);
    let locks0 = Cm_core.Lockstat.total_acquisitions () in
    ignore (Cm_monitor.Shard.handle_all ~domains:1 pool gets);
    Alcotest.(check int) "gate metric is exactly zero" 0
      (Cm_core.Lockstat.total_acquisitions () - locks0)

(* ---- the cache cannot change what the monitor concludes ---- *)

(* Same standard workload through the reference monitor (no cache, the
   full state observed) and through production under each cache scope:
   identical verdict sequences. *)
let conformances outcomes =
  List.map
    (fun (o : Outcome.t) -> Outcome.conformance_to_string o.Outcome.conformance)
    outcomes

let reference_outcomes ?faults () =
  match Scenario.setup_reference ?faults () with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok rctx -> Scenario.run_reference rctx Cm_workload.Workload.standard_trace

let test_cache_scope_equivalence () =
  let verdicts cache =
    match Scenario.setup ~cache () with
    | Error msgs -> Alcotest.fail (String.concat "; " msgs)
    | Ok ctx ->
      conformances
        (Scenario.run_trace ctx Cm_workload.Workload.standard_trace)
  in
  let reference = conformances (reference_outcomes ()) in
  Alcotest.(check bool) "per-request cache preserves verdicts" true
    (verdicts Obs_cache.Per_request = reference);
  Alcotest.(check bool) "cross-request cache preserves verdicts" true
    (verdicts Obs_cache.Cross_request = reference)

(* Chaos with stale reads plus the cross-request cache: the double-read
   (verified reads) defense re-observes with [fresh:true], so the cache
   must never convert a would-be flip into a wrong definite verdict.
   Judged against the fault-free reference: no definite verdict differs
   from the reference's on the same request. *)
let test_cache_under_stale_chaos () =
  let profile =
    match Chaos.find_profile "degraded-cloud" with
    | Some p -> p
    | None -> Alcotest.fail "degraded-cloud profile missing"
  in
  List.iter
    (fun mutant ->
      let faults =
        match mutant with
        | Some (m : Mutant.t) -> m.Mutant.faults
        | None -> Cm_cloudsim.Faults.none
      in
      let cached =
        match
          Scenario.setup ~faults ~chaos:profile ~chaos_seed:99
            ~resilience:Campaign.chaos_policy ~cache:Obs_cache.Cross_request ()
        with
        | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        | Ok ctx -> Scenario.run_trace ctx Cm_workload.Workload.standard_trace
      in
      let comparable, flips, _ =
        Campaign.compare_outcomes (reference_outcomes ~faults ()) cached
      in
      Alcotest.(check int) "every exchange comparable with the reference's"
        (List.length cached) comparable;
      Alcotest.(check bool) "some verdicts stay definite" true
        (List.exists
           (fun (o : Outcome.t) -> Outcome.is_definite o.Outcome.conformance)
           cached);
      Alcotest.(check int)
        "definite verdicts agree with the reference under stale chaos" 0
        (List.length flips);
      match mutant with
      | Some _ ->
        Alcotest.(check bool) "mutant still killed with cache on" true
          (Cm_monitor.Report.violations cached <> [])
      | None ->
        Alcotest.(check bool) "baseline still clean with cache on" true
          (Cm_monitor.Report.violations cached = []))
    [ None; Mutant.find "M1-delete-privilege-escalation" ]

(* ---- invalidation properties of the cache itself ---- *)

let ok_response body =
  Response.ok (Cm_json.Json.obj [ ("v", Cm_json.Json.string body) ])

let test_cache_invalidation_overlap () =
  let cache = Obs_cache.create Obs_cache.Cross_request in
  let remember path = Obs_cache.remember cache ~token:None path (ok_response path) in
  let cached path = Obs_cache.find cache ~token:None path <> None in
  remember "/v3/p/volumes";
  remember "/v3/p/volumes/vol-1";
  remember "/v3/p/volumes/vol-1/snapshots";
  remember "/v3/p/images";
  Obs_cache.invalidate_overlapping cache "/v3/p/volumes/vol-1";
  Alcotest.(check bool) "ancestor listing dropped" false (cached "/v3/p/volumes");
  Alcotest.(check bool) "the resource itself dropped" false
    (cached "/v3/p/volumes/vol-1");
  Alcotest.(check bool) "descendants dropped" false
    (cached "/v3/p/volumes/vol-1/snapshots");
  Alcotest.(check bool) "unrelated subtree kept" true (cached "/v3/p/images");
  (* segment-prefix, not string-prefix *)
  let cache = Obs_cache.create Obs_cache.Cross_request in
  Obs_cache.remember cache ~token:None "/v3/p/volumes/vol-10"
    (ok_response "ten");
  Obs_cache.invalidate_overlapping cache "/v3/p/volumes/vol-1";
  Alcotest.(check bool) "vol-10 is not a segment-prefix match" true
    (Obs_cache.find cache ~token:None "/v3/p/volumes/vol-10" <> None)

let test_cache_definite_answers_only () =
  let cache = Obs_cache.create Obs_cache.Cross_request in
  Obs_cache.remember cache ~token:None "/a"
    (Response.error Cm_http.Status.service_unavailable "transient");
  Alcotest.(check bool) "5xx never pinned" true
    (Obs_cache.find cache ~token:None "/a" = None);
  Obs_cache.remember cache ~token:None "/b"
    (Response.error Cm_http.Status.not_found "gone");
  Alcotest.(check bool) "404 is a definite answer" true
    (Obs_cache.find cache ~token:None "/b" <> None)

let test_cache_token_isolation () =
  let cache = Obs_cache.create Obs_cache.Cross_request in
  Obs_cache.remember cache ~token:(Some "tok-a") "/a" (ok_response "a");
  Alcotest.(check bool) "other token misses" true
    (Obs_cache.find cache ~token:(Some "tok-b") "/a" = None);
  Alcotest.(check bool) "same token hits" true
    (Obs_cache.find cache ~token:(Some "tok-a") "/a" <> None)

let test_per_request_scope_clears () =
  let cache = Obs_cache.create Obs_cache.Per_request in
  Obs_cache.remember cache ~token:None "/a" (ok_response "a");
  Alcotest.(check bool) "hit within the exchange" true
    (Obs_cache.find cache ~token:None "/a" <> None);
  Obs_cache.begin_request cache;
  Alcotest.(check bool) "cleared at the next exchange" true
    (Obs_cache.find cache ~token:None "/a" = None);
  let cross = Obs_cache.create Obs_cache.Cross_request in
  Obs_cache.remember cross ~token:None "/a" (ok_response "a");
  Obs_cache.begin_request cross;
  Alcotest.(check bool) "cross-request survives exchanges" true
    (Obs_cache.find cross ~token:None "/a" <> None)

let () =
  Alcotest.run "cm_parallel"
    [ ( "campaigns",
        [ Alcotest.test_case "mutant kill matrix at 1/2/4 domains" `Slow
            test_campaign_domains;
          Alcotest.test_case "chaos campaign at 1/2 domains" `Slow
            test_chaos_campaign_domains
        ] );
      ( "fuzz",
        [ Alcotest.test_case "500 monitor cases at 1/2/4 domains" `Slow
            test_fuzz_domains
        ] );
      ( "sharding",
        [ Alcotest.test_case "arrival + per-shard sequences" `Slow
            test_shard_determinism
        ] );
      ( "mixes",
        [ Alcotest.test_case "standard mix at 1/2/4 domains" `Slow
            test_mix_standard;
          Alcotest.test_case "cross mix at 1/2/4 domains" `Slow
            test_mix_cross;
          Alcotest.test_case "churn-heavy mix at 1/2/4 domains" `Slow
            test_mix_churn_heavy;
          Alcotest.test_case "shard-safe projection is analysis-derived" `Quick
            test_shard_safe_projection
        ] );
      ( "rcu",
        [ Alcotest.test_case "store snapshots never tear" `Slow
            test_store_torn_publish;
          Alcotest.test_case "identity snapshots never tear" `Slow
            test_identity_torn_publish
        ] );
      ( "pool",
        [ Alcotest.test_case "no steady-state spawns" `Quick
            test_pool_no_steady_state_spawns;
          Alcotest.test_case "shard serving reuses the pool" `Slow
            test_shard_serving_reuses_pool;
          Alcotest.test_case "single failure re-raised" `Quick
            test_single_failure_reraised;
          Alcotest.test_case "multiple failures aggregated" `Quick
            test_multiple_failures_aggregated
        ] );
      ( "contention",
        [ Alcotest.test_case "monitored GET path takes zero locks" `Slow
            test_get_path_lock_free
        ] );
      ( "cache-verdicts",
        [ Alcotest.test_case "scope equivalence" `Quick
            test_cache_scope_equivalence;
          Alcotest.test_case "stale chaos not masked" `Slow
            test_cache_under_stale_chaos
        ] );
      ( "cache-properties",
        [ Alcotest.test_case "overlap invalidation" `Quick
            test_cache_invalidation_overlap;
          Alcotest.test_case "definite answers only" `Quick
            test_cache_definite_answers_only;
          Alcotest.test_case "token isolation" `Quick test_cache_token_isolation;
          Alcotest.test_case "per-request scope clears" `Quick
            test_per_request_scope_clears
        ] )
    ]
