module Json = Cm_json.Json
module Clock = Cm_core.Clock
module Transport = Cm_core.Transport
module Request = Cm_http.Request
module Response = Cm_http.Response
module Status = Cm_http.Status
module Meth = Cm_http.Meth
module Behavior_model = Cm_uml.Behavior_model
module Resource_model = Cm_uml.Resource_model
module Contract = Cm_contracts.Contract
module Runtime = Cm_contracts.Runtime
module Generate = Cm_contracts.Generate

let log_src =
  Logs.Src.create "cloudmon.monitor" ~doc:"cloud monitor exchange verdicts"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Enforce | Oracle
type degradation = Fail_closed | Fail_open_logged

(* Everything the pre-phase concluded about a request, in serializable
   form: the crash-recovery journal persists this *before* the request
   is forwarded, so a monitor restarted mid-exchange can finish the
   verdict without re-running the pre-phase against a post-state world
   (re-observing after the effect would flip guards — e.g. a DELETE's
   item guard is false once the item is gone). *)
type pre_image = {
  pi_pre_verdict : Cm_ocl.Eval.verdict;
  pi_auth : Cm_ocl.Value.tribool option;  (* None: no authorization guard *)
  pi_functional : Cm_ocl.Value.tribool;
  pi_covered : string list;
  pi_snapshot : Runtime.snapshot;
}

type config = {
  mode : mode;
  service_token : string;
  service_token_for : (string -> string option) option;
  resources : Resource_model.t;
  behavior : Behavior_model.t;
  security : Generate.security option;
  stability_check : bool;
  resilience : Resilience.policy option;
  degradation : degradation;
  clock : Clock.t option;
  cache : Obs_cache.scope;
  journal_pre : (pre_image -> unit) option;
      (* called with the pre-phase conclusion of a contracted request,
         after evaluation and before forwarding — the journal's
         write-ahead hook *)
  journal_barrier : (unit -> unit) option;
      (* called immediately before any backend forward (monitored,
         uncontracted, and fail-open alike) — where the journal makes
         everything appended so far durable *)
  crash : Cm_core.Crash.t option;  (* crash-point injection sites *)
}

let default_config ?(mode = Oracle) ?(stability_check = false) ?resilience
    ?(degradation = Fail_open_logged) ?clock ?(cache = Obs_cache.Per_request)
    ?journal_pre ?journal_barrier ?crash ~service_token ?service_token_for
    ?security resources behavior =
  { mode; service_token; service_token_for; resources; behavior;
    security; stability_check; resilience; degradation; clock; cache;
    journal_pre; journal_barrier; crash
  }

(* What the models determine, generated once per model triple and shared
   by every monitor created over it.  Nothing writes it after
   [generate], so monitors serving on other domains and the shard router
   read it without a lock. *)
type derivation = {
  entries : Cm_uml.Paths.entry list;
  dispatch : (int, Cm_uml.Paths.entry list) Hashtbl.t;
      (* URI entries bucketed by segment count, each bucket presorted by
         specificity (ties keep derivation order), so classification is
         one bucket scan instead of match-all + sort *)
  tenant_param : string;  (* the tenant context's id parameter *)
  contracts : Contract.t list;
  plans : (Behavior_model.trigger * Runtime.plan) list;
      (* each contract staged for checking, by trigger *)
  write_templates :
    (Behavior_model.trigger * Cm_http.Uri_template.t list) list;
      (* per trigger: URI templates locating every piece of state its
         write effect covers — expanded against the request's bindings
         they become the cache-invalidation scopes *)
  shape : Observer.shape;  (* the observer's path index *)
}

(* One monitor: its configuration and derivation, plus everything
   written at run time. *)
type t = {
  config : config;
  derived : derivation;
  backend : Observer.backend;  (* the raw transport *)
  resilient : Resilience.t option;
  unobservable : (string * string) list ref;
      (* (path, failure) of the current observation's reads that the
         resilience layer gave up on and no later read answered *)
  mutable forward_seen : bool;
      (* whether the current [handle] already reached the backend — read
         by exception containment to say if the request may have run *)
  by_trigger : (Behavior_model.trigger, Runtime.prepared) Hashtbl.t;
      (* an instance of each plan: the memo frames this monitor owns *)
  observer_base : Observer.t;
      (* per request this is re-targeted with [with_project] (a cheap
         record copy) instead of re-deriving *)
  cache : Obs_cache.t;
  coverage : (string, int ref) Hashtbl.t;
      (* per SecReq id of every contract: exchanges that exercised it *)
}

let contracts t = t.derived.contracts
let cache_stats t = Some (Obs_cache.stats t.cache)

let eval_stats t =
  Hashtbl.fold
    (fun _ p (acc : Runtime.eval_stats) ->
      let s = Runtime.eval_stats p in
      { Runtime.evals = acc.evals + s.Runtime.evals;
        replays = acc.replays + s.replays;
        node_hits = acc.node_hits + s.node_hits;
        node_evals = acc.node_evals + s.node_evals;
        refreshes = acc.refreshes + s.refreshes;
        slots_changed = acc.slots_changed + s.slots_changed
      })
    t.by_trigger
    { Runtime.evals = 0; replays = 0; node_hits = 0; node_evals = 0;
      refreshes = 0; slots_changed = 0
    }

let flush_cache t = Obs_cache.clear t.cache
let uri_table t = t.derived.entries
let configuration t = t.config
let reset_log t = Hashtbl.iter (fun _ count -> count := 0) t.coverage

let coverage t =
  Hashtbl.fold (fun req_id count acc -> (req_id, !count) :: acc) t.coverage []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dispatch_table entries =
  let table = Hashtbl.create 32 in
  let sorted =
    List.stable_sort
      (fun (a : Cm_uml.Paths.entry) b ->
        Int.compare
          (Cm_http.Uri_template.specificity b.template)
          (Cm_http.Uri_template.specificity a.template))
      entries
  in
  List.iter
    (fun (entry : Cm_uml.Paths.entry) ->
      let key = List.length (Cm_http.Uri_template.segments entry.template) in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt table key) in
      Hashtbl.replace table key (entry :: bucket))
    (List.rev sorted);
  table

(* A successful observation GET must carry the single-key envelope
   [Observer.unwrap] expects; anything else is a corrupt read the
   resilience layer should retry rather than hand to contract
   evaluation.  Scoped to GETs so forwarded mutations are never
   re-judged by shape. *)
let observation_envelope (req : Request.t) (resp : Response.t) =
  match req.Request.meth with
  | Meth.GET when Response.is_success resp ->
    (match resp.Response.body with
     | Some (Json.Obj [ _ ]) -> true
     | Some _ | None -> false)
  | _ -> true

let ( let* ) = Result.bind

(* Validate the models, derive the URI table, generate, typecheck and
   stage the contracts, and run the write-effect analysis.  All
   validation problems are reported together. *)
let generate resources behavior security =
  let issues = Cm_uml.Validate.all resources [ behavior ] in
  let single r = Result.map_error (fun msg -> [ msg ]) r in
  if issues <> [] then
    Error (List.map (Fmt.str "%a" Cm_lint.Lint.pp_finding) issues)
  else
    let* entries = single (Cm_uml.Paths.derive resources) in
    let* contracts = single (Generate.all ?security behavior) in
    let type_errors =
      List.concat_map
        (fun c ->
          List.map
            (Fmt.str "contract %a: %a" Behavior_model.pp_trigger
               c.Contract.trigger Cm_ocl.Typecheck.pp_error)
            (Generate.typecheck resources c))
        contracts
    in
    if type_errors <> [] then Error type_errors
    else
      (* The static analysis layer: per-trigger write effects feed the
         effect-driven cache invalidation. *)
      let analysis_input =
        { Cm_analysis.Input.resources; behavior; security }
      in
      let* events = single (Cm_analysis.Effects.events analysis_input) in
      let write_templates =
        List.filter_map
          (fun (ev : Cm_analysis.Effects.event) ->
            if ev.ev_identity then None
            else
              Some
                ( ev.ev_trigger,
                  List.concat_map
                    (fun (root, fields) ->
                      Cm_analysis.Monitorability.state_templates
                        analysis_input entries root fields)
                    ev.ev_writes ))
          events
      in
      Ok
        { entries;
          dispatch = dispatch_table entries;
          tenant_param =
            Cm_uml.Paths.id_param (Cm_uml.Paths.context resources);
          contracts;
          plans =
            List.map (fun c -> (c.Contract.trigger, Runtime.stage c)) contracts;
          write_templates;
          shape = Observer.shape ~model:resources entries
        }

(* ---- the generation memo ----

   A derivation depends on exactly the models [generate] reads, so it is
   kept per model triple for the life of the process, keyed on the
   physical identity of the resource and behavior models and of the
   security table and assignment (callers build the [security] record
   inline, so its fields are the key, not the record).  Ephemerons hold
   the keys weakly: an entry never keeps alive models nothing else
   holds, and its derivation goes with them.  A security-less triple is
   one two-key ephemeron; a secured one chains a second on the table and
   the assignment.  The list is most recently used first and holds
   [memo_capacity] entries, which bounds the ephemerons whose models are
   gone.  Creates are rare and never on the request path, so one plain
   mutex covers lookup and generation, and racing creates over one
   fresh triple generate it once. *)

type memo_entry =
  | Unsecured of (Resource_model.t, Behavior_model.t, derivation) Ephemeron.K2.t
  | Secured of
      ( Resource_model.t,
        Behavior_model.t,
        ( Cm_rbac.Security_table.t,
          Cm_rbac.Role_assignment.t,
          derivation )
        Ephemeron.K2.t )
      Ephemeron.K2.t

let memo_capacity = 16
let memo : memo_entry list ref = ref []
let memo_lock = Mutex.create ()

let memo_find config = function
  | Unsecured e ->
    (match config.security with
     | None -> Ephemeron.K2.query e config.resources config.behavior
     | Some _ -> None)
  | Secured e ->
    (match config.security with
     | None -> None
     | Some { Generate.table; assignment } ->
       Option.bind
         (Ephemeron.K2.query e config.resources config.behavior)
         (fun e -> Ephemeron.K2.query e table assignment))

let memo_entry config derived =
  match config.security with
  | None ->
    Unsecured (Ephemeron.K2.make config.resources config.behavior derived)
  | Some { Generate.table; assignment } ->
    Secured
      (Ephemeron.K2.make config.resources config.behavior
         (Ephemeron.K2.make table assignment derived))

let rec memo_lookup config = function
  | [] -> None
  | entry :: rest ->
    (match memo_find config entry with
     | Some derived -> Some (entry, derived)
     | None -> memo_lookup config rest)

(* A generation error is returned and not remembered. *)
let derivation config =
  Mutex.protect memo_lock (fun () ->
      match memo_lookup config !memo with
      | Some (entry, derived) ->
        memo := entry :: List.filter (fun e -> e != entry) !memo;
        Ok derived
      | None ->
        let generated =
          generate config.resources config.behavior config.security
        in
        Result.iter
          (fun derived ->
            memo :=
              List.filteri
                (fun i _ -> i < memo_capacity)
                (memo_entry config derived :: !memo))
          generated;
        generated)

(* A monitor over a derivation: it stages nothing, and allocates only
   its own run-time state. *)
let instance config derived backend =
  let by_trigger = Hashtbl.create (2 * List.length derived.contracts + 1) in
  List.iter
    (fun (trigger, plan) ->
      if not (Hashtbl.mem by_trigger trigger) then
        Hashtbl.add by_trigger trigger (Runtime.instance plan))
    derived.plans;
  let coverage = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun req_id -> Hashtbl.replace coverage req_id (ref 0))
        c.Contract.requirements)
    derived.contracts;
  let resilient =
    Option.map
      (fun policy ->
        let clock =
          match config.clock with Some clock -> clock | None -> Clock.create ()
        in
        Resilience.create ~validate:observation_envelope policy clock backend)
      config.resilience
  in
  let unobservable = ref [] in
  let obs_backend =
    match resilient with
    | Some r ->
      fun req ->
        let path = req.Request.path in
        (match Resilience.call_verified r req with
         | Ok resp ->
           unobservable := List.remove_assoc path !unobservable;
           resp
         | Error failure ->
           if not (List.mem_assoc path !unobservable) then
             unobservable :=
               (path, Resilience.failure_to_string failure) :: !unobservable;
           Resilience.degraded_response failure)
    | None -> backend
  in
  let cache = Obs_cache.create config.cache in
  let observer_base =
    Observer.with_cache
      (Observer.of_shape ~backend:obs_backend ~token:config.service_token
         ~project_id:"" derived.shape)
      cache
  in
  { config;
    derived;
    backend;
    resilient;
    unobservable;
    forward_seen = false;
    by_trigger;
    observer_base;
    cache;
    coverage
  }

let create config backend =
  Result.map
    (fun derived -> instance config derived backend)
    (derivation config)

(* ---- request classification ---- *)

type classified = {
  entry : Cm_uml.Paths.entry;
  bindings : (string * string) list;
  trigger : Behavior_model.trigger;
  item : (string * string) option;  (* addressed item: (resource, id) *)
  tenant : string option;  (* the tenant parameter's binding *)
}

(* The resource definition contained in a collection (POST on the
   collection creates one of these). *)
let contained_item resources collection_name =
  match Resource_model.outgoing collection_name resources with
  | child :: _ -> Some child.Resource_model.target
  | [] -> None

let trigger_for t (entry : Cm_uml.Paths.entry) meth =
  let resource =
    if entry.is_item then
      match meth with
      | Meth.POST ->
        (* POST creates into a collection; on an item URI it matches no
           model trigger (the ":item" suffix can never equal a resource
           definition name), so it is blocked/judged uncontracted. *)
        entry.resource ^ ":item"
      | Meth.GET | Meth.PUT | Meth.DELETE | Meth.HEAD | Meth.PATCH
      | Meth.OPTIONS -> entry.resource
    else
      match meth with
      | Meth.POST ->
        Option.value
          (contained_item t.config.resources entry.resource)
          ~default:entry.resource
      | Meth.GET | Meth.PUT | Meth.DELETE | Meth.HEAD | Meth.PATCH
      | Meth.OPTIONS -> entry.resource
  in
  { Behavior_model.meth; resource }

(* The dispatch table buckets by segment count — a template only ever
   matches paths with its own segment count, so the winning entry (most
   specific match, derivation order breaking ties) is the first match in
   the presorted bucket. *)
let match_path t path =
  let segments = Cm_http.Uri_template.split_path path in
  match Hashtbl.find_opt t.derived.dispatch (List.length segments) with
  | None -> None
  | Some bucket ->
    List.find_map
      (fun (entry : Cm_uml.Paths.entry) ->
        match Cm_http.Uri_template.matches_segments entry.template segments with
        | Some bindings -> Some (entry, bindings)
        | None -> None)
      bucket

let entry_for_path t path = Option.map fst (match_path t path)

let tenant_of t (req : Request.t) =
  match match_path t req.Request.path with
  | None -> None
  | Some (_, bindings) -> List.assoc_opt t.derived.tenant_param bindings

let classify t (req : Request.t) =
  match match_path t req.Request.path with
  | None -> None
  | Some (entry, bindings) ->
    let id_param = Cm_uml.Paths.id_param entry.resource in
    Some
      { entry;
        bindings;
        trigger = trigger_for t entry req.Request.meth;
        item =
          (if entry.is_item then
             Option.map
               (fun id -> (entry.resource, id))
               (List.assoc_opt id_param bindings)
           else None);
        tenant = List.assoc_opt t.derived.tenant_param bindings
      }

let prepared_for t trigger = Hashtbl.find_opt t.by_trigger trigger

let contract_for_trigger t trigger =
  Option.map Runtime.contract (prepared_for t trigger)

(* ---- observation ---- *)

(* One request's observation: the shared observer re-targeted at the
   request's tenant, service token and the contract's footprint, with
   the request's user token and body bound in.  Each call reads afresh
   and forgets the previous call's unobservable reads; [~fresh:true]
   also bypasses the observation cache. *)
let observation t classified prepared (req : Request.t) =
  let project_id = Option.value ~default:"" classified.tenant in
  let observer = Observer.with_project t.observer_base ~project_id in
  let observer =
    match t.config.service_token_for with
    | Some resolve ->
      (match resolve project_id with
       | Some token -> Observer.with_token observer ~token
       | None -> observer)
    | None -> observer
  in
  let observer =
    Observer.with_footprint observer (Some (Runtime.footprint prepared))
  in
  let user_token = Request.auth_token req in
  fun ~fresh ->
    t.unobservable := [];
    Observer.env ~fresh ?item:classified.item ~bindings:classified.bindings
      ?user_token ?request_body:req.Request.body observer

(* A read the resilience layer could not complete is not the cloud's
   answer: the state it covers is unknown, not absent.  The observer
   binds it as absent all the same, so a verdict resting on it (say
   [project.id->size() = 1] over a project document that never arrived)
   would be definite where the monitor could not see.  Called right
   after an observation: the Undefined verdict that replaces the
   phase's verdict when a read of that observation went unanswered. *)
let unobservable_verdict t phase =
  match List.rev !(t.unobservable) with
  | [] -> None
  | (path, why) :: _ ->
    Some
      (Cm_ocl.Eval.Undefined_verdict
         (Printf.sprintf "%s unobservable: GET %s: %s" phase path why))

let unless_unobservable unobservable verdict =
  Option.value unobservable ~default:verdict

(* ---- verdict helpers ---- *)

let expected_success_codes = function
  | Meth.GET | Meth.HEAD | Meth.OPTIONS -> [ 200 ]
  | Meth.PUT | Meth.PATCH -> [ 200; 202 ]
  | Meth.POST -> [ 200; 201; 202 ]
  | Meth.DELETE -> [ 202; 204 ]

let is_auth_failure (resp : Response.t) =
  resp.Response.status = Status.unauthorized
  || resp.Response.status = Status.forbidden

(* The monitor's own answer in place of the cloud's: 403 for a request
   blocked before forwarding, 500 for a postcondition that does not
   hold, 503 when failing closed. *)
let diagnostic status conformance detail =
  Response.make
    ~headers:(Cm_http.Headers.content_type_json Cm_http.Headers.empty)
    ~body:
      (Json.obj
         [ ( "monitor",
             Json.obj
               [ ( "verdict",
                   Json.string (Outcome.conformance_to_string conformance) );
                 ("detail", Json.string detail)
               ] )
         ])
    status

let record t outcome =
  (if Outcome.is_violation outcome.Outcome.conformance then
     Log.warn (fun m -> m "%a" Outcome.pp outcome)
   else Log.debug (fun m -> m "%a" Outcome.pp outcome));
  List.iter
    (fun req_id -> Option.iter incr (Hashtbl.find_opt t.coverage req_id))
    outcome.Outcome.covered_requirements;
  outcome

(* A post-state violation is only trustworthy if the observation is
   stable: re-observe and compare.  Unequal observations mean another
   client is mutating the state concurrently — the verdict cannot be
   attributed to this exchange. *)
let envs_equal a b =
  let canon env =
    List.sort compare
      (List.map
         (fun (k, v) -> (k, Cm_json.Printer.to_string (Cm_json.Json.sort_keys v)))
         (Cm_ocl.Eval.bindings env))
  in
  canon a = canon b

let stable_post_verdict t ~observe post_env post_verdict =
  match post_verdict with
  | Cm_ocl.Eval.Violated when t.config.stability_check ->
    (* [~fresh:true]: the re-observation must reach the cloud, not the
       observation cache, or concurrent interference could be masked by
       replaying our own cached reads. *)
    if envs_equal post_env (observe ~fresh:true) then post_verdict
    else
      Cm_ocl.Eval.Undefined_verdict
        "state changed between observations: concurrent interference \
         suspected"
  | verdict -> verdict

(* ---- the main flows ---- *)

let outcome_base req response cloud_response conformance detail =
  { Outcome.request = req;
    response;
    cloud_response;
    conformance;
    pre_verdict = None;
    post_verdict = None;
    covered_requirements = [];
    contract_requirements = [];
    snapshot_bytes = 0;
    detail
  }

(* The pre-phase fields of a contracted request's outcome. *)
let with_pre_phase prepared ~pre_verdict ~covered (outcome : Outcome.t) =
  { outcome with
    pre_verdict = Some pre_verdict;
    covered_requirements = covered;
    contract_requirements = (Runtime.contract prepared).Contract.requirements
  }

(* One forwarded request, three possible worlds: the backend answered;
   the breaker refused to send (the cloud definitely did not see it); or
   retries ran out (the last attempt may have reached the cloud). *)
type forwarded =
  | Delivered of Response.t
  | Not_delivered of Resilience.failure
  | Unknown_outcome of Resilience.failure

(* A forwarded mutation (or one that may have executed) invalidates the
   cache entries its write-set overlaps: the mutated path itself,
   anything beneath it, and every ancestor/listing whose document can
   reflect it.  Unmodelled mutations (e.g. POST .../action) pass through
   here too, so the cache never survives a write it cannot classify.

   Path overlap alone is too narrow across services: an attach under
   /v3/{p}/servers/{s}/attach writes *volume* state, whose cached
   listing lives under /v3/{p}/volumes.  For modelled triggers the
   static write-effect table supplies the precise scopes — the derived
   URI of every piece of state the effect covers, expanded against the
   request's own path bindings — so sibling caches the trigger provably
   cannot touch survive.  Mutations the model does not classify fall
   back to dropping the whole tenant scope (the path's first two
   segments).  Token introspections (a different first segment)
   survive either way. *)
let tenant_scope_of_path path =
  match String.split_on_char '/' path |> List.filter (fun s -> s <> "") with
  | base :: context :: _ :: _ -> Some ("/" ^ base ^ "/" ^ context)
  | _ -> None

(* Expand a scope template against the request's path bindings,
   truncating at the first unbound parameter: /v3/{p}/volumes/{vid}
   with only [p] bound becomes /v3/<p>/volumes — a prefix covering
   every concrete instance the write could have touched. *)
let expand_scope bindings template =
  let rec go acc = function
    | [] -> List.rev acc
    | Cm_http.Uri_template.Literal s :: rest -> go (s :: acc) rest
    | Cm_http.Uri_template.Param p :: rest ->
      (match List.assoc_opt p bindings with
       | Some v -> go (v :: acc) rest
       | None -> List.rev acc)
  in
  match go [] (Cm_http.Uri_template.segments template) with
  | [] -> None
  | segs -> Some ("/" ^ String.concat "/" segs)

let write_scopes t classified =
  match List.assoc_opt classified.trigger t.derived.write_templates with
  | None -> None
  | Some templates ->
    Some
      (List.sort_uniq String.compare
         (List.filter_map (expand_scope classified.bindings) templates))

(* [classified] is the classification the exchange already made, [None]
   for an unclassified request. *)
let invalidate_after_mutation t classified (req : Request.t) =
  if not (Meth.is_safe req.Request.meth) then begin
    let paths =
      match Option.bind classified (write_scopes t) with
      | Some (_ :: _ as scopes) ->
        (* the mutated path itself is always dropped too: an effect can
           under-specify the addressed document even when the analysis
           classified the trigger *)
        List.sort_uniq String.compare (req.Request.path :: scopes)
      | Some [] | None ->
        (* unclassified mutation: the scope is a segment prefix of the
           path, so every entry the path itself overlaps is also
           overlapped by the scope — one invalidation covers both.
           Only two mutations land here: token revocation
           (DELETE /identity/v3/auth/tokens, whose scope /identity/v3
           drops the cached introspections) and the uncontracted volume
           action (POST /v3/{p}/volumes/{id}/action).  A 1-second
           [cmbench --seed 42] run per workload counted 1952 of 33208
           churn requests (5.9%), 1661 of 28740 journaled (5.8%), 513
           of 8208 campaign (6.3%) and none of 19426 read-heavy. *)
        [ (match tenant_scope_of_path req.Request.path with
          | Some scope -> scope
          | None -> req.Request.path)
        ]
    in
    List.iter (Obs_cache.invalidate_overlapping t.cache) paths
  end

let forward t classified req =
  (* WAL barrier: before the backend can see the request, the journal
     (when one is attached) must have synced the request record and any
     pre-image appended for it — recovery depends on "forwarded implies
     durably journaled". *)
  Option.iter (fun barrier -> barrier ()) t.config.journal_barrier;
  let result =
    match t.resilient with
    | None ->
      t.forward_seen <- true;
      Delivered (t.backend req)
    | Some r ->
      (* [call_verified] so the double-read stale defense also covers
         forwarded GETs (a stale 200 for a deleted resource would flip a
         definite verdict); for non-GETs it is exactly [call]. *)
      (match Resilience.call_verified r req with
       | Ok resp ->
         t.forward_seen <- true;
         Delivered resp
       | Error (Resilience.Circuit_open _ as failure) -> Not_delivered failure
       | Error (Resilience.Exhausted _ as failure) ->
         t.forward_seen <- true;
         Unknown_outcome failure)
  in
  (match result with
  | Delivered _ | Unknown_outcome _ ->
    Cm_core.Crash.at t.config.crash "monitor.after-forward";
    invalidate_after_mutation t classified req;
    Cm_core.Crash.at t.config.crash "monitor.after-invalidate"
  | Not_delivered _ -> ());
  result

(* The circuit is open: monitoring cannot complete, and nothing was
   sent.  [Fail_closed] rejects outright (availability sacrificed for
   certainty); [Fail_open_logged] forwards raw — one shot, unmonitored —
   so the cloud stays reachable behind a wedged monitor.  Either way the
   exchange is logged as [Degraded], never as a cloud verdict. *)
let degrade t classified req failure =
  let why = Resilience.failure_to_string failure in
  match t.config.degradation with
  | Fail_closed ->
    let detail = "fail-closed: " ^ why in
    outcome_base req
      (diagnostic Status.service_unavailable (Outcome.Degraded detail) detail)
      None (Outcome.Degraded detail) detail
  | Fail_open_logged ->
    let detail = "fail-open: forwarded unmonitored (" ^ why ^ ")" in
    Option.iter (fun barrier -> barrier ()) t.config.journal_barrier;
    (match t.backend req with
     | response ->
       t.forward_seen <- true;
       invalidate_after_mutation t classified req;
       outcome_base req response (Some response) (Outcome.Degraded detail)
         detail
     | exception exn when Transport.is_failure exn ->
       let detail = detail ^ "; raw forward failed: " ^ Transport.describe exn in
       invalidate_after_mutation t classified req;
       outcome_base req
         (Response.error Status.bad_gateway detail)
         None (Outcome.Degraded detail) detail)

(* Retries exhausted after the request may have reached the cloud: the
   outcome of this exchange is genuinely three-valued. *)
let unknown_hint failure =
  "forwarding outcome unknown: " ^ Resilience.failure_to_string failure

(* Forward a request no contract judges; [judge] classifies the cloud's
   answer into a conformance and a detail. *)
let forward_uncontracted t classified req judge =
  match forward t classified req with
  | Not_delivered failure -> degrade t classified req failure
  | Unknown_outcome failure ->
    let hint = unknown_hint failure in
    outcome_base req
      (Response.error Status.gateway_timeout hint)
      None (Outcome.Undefined hint) hint
  | Delivered response ->
    let conformance, detail = judge response in
    outcome_base req response (Some response) conformance detail

let not_monitored t req =
  forward_uncontracted t None req (fun _ ->
      (Outcome.Not_monitored, "no model entry for this URI"))

let no_contract t classified req =
  match t.config.mode with
  | Enforce ->
    let allowed =
      Behavior_model.methods_on classified.trigger.Behavior_model.resource
        t.config.behavior
      |> List.map Meth.to_string |> String.concat ", "
    in
    let response =
      Response.error Status.method_not_allowed
        (Printf.sprintf "method not permitted by the model (allowed: %s)"
           allowed)
    in
    outcome_base req response None Outcome.Conform_denied
      "no contract for trigger"
  | Oracle ->
    forward_uncontracted t (Some classified) req (fun response ->
        ( (if Response.is_success response then
             Outcome.Functional_wrongly_accepted
           else Outcome.Conform_denied),
          "method has no contract in the model" ))

let tri_tag hint = function
  | Cm_ocl.Value.True -> `True
  | Cm_ocl.Value.False -> `False
  | Cm_ocl.Value.Unknown -> `Unknown hint

let auth_tag = function
  | None -> `True
  | Some tri -> tri_tag "authorization guard undefined" tri

let functional_tag tri = tri_tag "functional precondition undefined" tri

(* Enforce: the cloud's answer reaches the client only under a holding
   postcondition; otherwise the client gets the 500 diagnostic. *)
let enforce_judgement cloud_response post_verdict =
  match post_verdict with
  | Cm_ocl.Eval.Holds -> (cloud_response, Outcome.Conform, "")
  | Cm_ocl.Eval.Violated ->
    let detail = "postcondition violated after forwarding" in
    ( diagnostic Status.internal_server_error Outcome.Post_violated detail,
      Outcome.Post_violated,
      detail )
  | Cm_ocl.Eval.Undefined_verdict hint ->
    let detail = "postcondition undefined: " ^ hint in
    ( diagnostic Status.internal_server_error (Outcome.Undefined hint) detail,
      Outcome.Undefined hint,
      detail )

(* Oracle: compare the authorization and functional truth values of the
   pre-image with the cloud's answer.  The postcondition is checked
   ([post ()]) only for a permitted request the cloud performed with an
   expected status. *)
let oracle_judgement req (image : pre_image) cloud_response post =
  let success = Response.is_success cloud_response in
  match auth_tag image.pi_auth, functional_tag image.pi_functional with
  | `Unknown hint, _ | _, `Unknown hint ->
    (Outcome.Undefined hint, None, "precondition undefined")
  | `False, _ ->
    if success then
      ( Outcome.Security_unauthorized_allowed,
        None,
        "specification forbids this subject, yet the cloud performed the \
         request" )
    else (Outcome.Conform_denied, None, "")
  | `True, `False ->
    if success then
      ( Outcome.Functional_wrongly_accepted,
        None,
        "behavioural precondition false, yet the cloud performed the request"
      )
    else (Outcome.Conform_denied, None, "")
  | `True, `True ->
    if is_auth_failure cloud_response then
      ( Outcome.Security_authorized_denied,
        None,
        "specification permits this subject, yet the cloud denied" )
    else if not success then
      ( Outcome.Functional_wrongly_rejected,
        None,
        Printf.sprintf "expected success, got %d" cloud_response.Response.status
      )
    else if
      not
        (List.mem cloud_response.Response.status
           (expected_success_codes req.Request.meth))
    then
      ( Outcome.Functional_bad_status,
        None,
        Printf.sprintf "success status %d not in the expected set"
          cloud_response.Response.status )
    else begin
      let post_verdict = post () in
      match post_verdict with
      | Cm_ocl.Eval.Holds -> (Outcome.Conform, Some post_verdict, "")
      | Cm_ocl.Eval.Violated ->
        (Outcome.Post_violated, Some post_verdict, "postcondition violated")
      | Cm_ocl.Eval.Undefined_verdict hint ->
        (Outcome.Undefined hint, Some post_verdict, "postcondition undefined")
    end

(* Everything downstream of the pre-phase: journal the pre-image,
   forward, observe the post-state, judge the exchange.  Shared by the
   live path ([monitored]) and crash recovery ([resume]), which
   re-enters here with the *journaled* pre-image instead of re-running
   the pre-phase — after the effect is applied, re-observed guards
   would lie about the pre-state (a DELETE's item guard is false once
   the item is gone). *)
let conclude t classified prepared req ~observe (image : pre_image) =
  Option.iter (fun sink -> sink image) t.config.journal_pre;
  let with_pre =
    with_pre_phase prepared ~pre_verdict:image.pi_pre_verdict
      ~covered:image.pi_covered
  in
  let judged response cloud_response conformance post_verdict detail =
    { (with_pre (outcome_base req response cloud_response conformance detail))
      with
      post_verdict;
      snapshot_bytes = Runtime.snapshot_bytes image.pi_snapshot
    }
  in
  (* Observe the post-state now; the returned thunk checks the
     postcondition against it, re-observing for the stability check
     when [stable]. *)
  let observe_post ~stable =
    let post_obs = Runtime.observe prepared (observe ~fresh:false) in
    let unobservable = unobservable_verdict t "post-state" in
    fun () ->
      let verdict =
        Runtime.check_post_observed prepared image.pi_snapshot post_obs
      in
      (if stable then
         stable_post_verdict t ~observe (Runtime.observed_env post_obs) verdict
       else verdict)
      |> unless_unobservable unobservable
  in
  match forward t (Some classified) req with
  | Not_delivered failure -> with_pre (degrade t (Some classified) req failure)
  | Unknown_outcome failure ->
    (* The request may or may not have executed.  Re-probe the observed
       state and record how it reconciles with the pre-snapshot, but
       keep the verdict three-valued — the presence (or absence) of the
       effect cannot be attributed to this request, so claiming
       [Conform] or [Post_violated] here would be a coin-flip dressed as
       a verdict. *)
    let post_verdict = observe_post ~stable:false () in
    let hint = unknown_hint failure in
    let reconcile =
      match post_verdict with
      | Cm_ocl.Eval.Holds -> "re-probe: post-state consistent with execution"
      | Cm_ocl.Eval.Violated ->
        "re-probe: post-state does not show the expected effect"
      | Cm_ocl.Eval.Undefined_verdict _ -> "re-probe: post-state unobservable"
    in
    let detail = hint ^ "; " ^ reconcile in
    judged
      (Response.error Status.gateway_timeout detail)
      None (Outcome.Undefined hint) (Some post_verdict) detail
  | Delivered cloud_response ->
    let post = observe_post ~stable:true in
    (match t.config.mode with
     | Enforce ->
       let post_verdict = post () in
       let response, conformance, detail =
         enforce_judgement cloud_response post_verdict
       in
       judged response (Some cloud_response) conformance (Some post_verdict)
         detail
     | Oracle ->
       let conformance, post_verdict, detail =
         oracle_judgement req image cloud_response post
       in
       judged cloud_response (Some cloud_response) conformance post_verdict
         detail)

(* The live pre-phase: observe and evaluate the precondition.  Enforce
   blocks a request whose precondition is false or undefined with a 403
   before it reaches the cloud; everything else is concluded. *)
let monitored t req classified prepared observe =
  let pre_obs = Runtime.observe prepared (observe ~fresh:false) in
  let unobservable = unobservable_verdict t "pre-state" in
  let pre_verdict =
    Runtime.check_pre_observed prepared pre_obs
    |> unless_unobservable unobservable
  in
  let covered = Runtime.covered_requirements_observed prepared pre_obs in
  let auth = Runtime.auth_guard_tri prepared pre_obs in
  let functional =
    match unobservable with
    | Some _ -> Cm_ocl.Value.Unknown
    | None -> Runtime.functional_pre_tri prepared pre_obs
  in
  let blocked conformance detail =
    with_pre_phase prepared ~pre_verdict ~covered
      (outcome_base req
         (diagnostic Status.forbidden conformance detail)
         None conformance detail)
  in
  match t.config.mode, pre_verdict with
  | Enforce, Cm_ocl.Eval.Violated ->
    blocked Outcome.Conform_denied
      (match auth_tag auth with
       | `False -> "precondition violated: authorization"
       | `True | `Unknown _ -> "precondition violated: behavioural guard")
  | Enforce, Cm_ocl.Eval.Undefined_verdict hint ->
    blocked (Outcome.Undefined hint) ("precondition undefined: " ^ hint)
  | Enforce, Cm_ocl.Eval.Holds | Oracle, _ ->
    conclude t classified prepared req ~observe
      { pi_pre_verdict = pre_verdict;
        pi_auth = auth;
        pi_functional = functional;
        pi_covered = covered;
        pi_snapshot = Runtime.take_snapshot_observed prepared pre_obs
      }

(* Classification, contract lookup and observation set-up, shared by
   [handle] and [resume]: a contracted request goes to [contracted]
   with its prepared contract and its observation. *)
let dispatch t req contracted =
  match classify t req with
  | None -> not_monitored t req
  | Some classified ->
    (match prepared_for t classified.trigger with
     | None -> no_contract t classified req
     | Some prepared ->
       contracted classified prepared (observation t classified prepared req))

(* Per-request exception containment.  A transport failure that escapes
   (no resilience layer configured) degrades the exchange; any other
   exception is a bug in the monitor itself and is reported as
   [Monitor_error] — a monitor bug must never surface as a cloud
   violation, and must never take the proxy down with it.  Resource
   exhaustion is not containable and is re-raised, and so is injected
   [Crash.Crashed]: a kill site must actually kill the monitor, or
   crash campaigns would measure the containment instead of recovery. *)
let contained t req run =
  t.forward_seen <- false;
  Obs_cache.begin_request t.cache;
  match run () with
  | outcome -> record t outcome
  | exception
      ((Stack_overflow | Out_of_memory | Cm_core.Crash.Crashed _) as exn) ->
    raise exn
  | exception exn ->
    let suffix =
      if t.forward_seen then " (the request may have reached the cloud)"
      else " (before the request reached the cloud)"
    in
    if Transport.is_failure exn then begin
      let detail =
        "transport failure escaped monitoring: " ^ Transport.describe exn
        ^ suffix
      in
      record t
        (outcome_base req
           (Response.error Status.bad_gateway detail)
           None (Outcome.Degraded detail) detail)
    end
    else begin
      let detail =
        "internal monitor exception contained: " ^ Printexc.to_string exn
        ^ suffix
      in
      Log.err (fun m -> m "%s" detail);
      record t
        (outcome_base req
           (Response.error Status.internal_server_error detail)
           None (Outcome.Monitor_error detail) detail)
    end

let handle t req = contained t req (fun () -> dispatch t req (monitored t req))

(* Recovery re-entry: finish a request whose pre-phase already ran (and
   was journaled) before a crash.  Re-forwarding is idempotent by the
   request's X-Request-Id — the backend's dedup replays the original
   response if the first attempt got through — and the journaled
   pre-image stands in for the pre-phase, whose guards can no longer be
   observed truthfully once the effect may have been applied. *)
let resume t req image =
  contained t req (fun () ->
      dispatch t req (fun classified prepared observe ->
          conclude t classified prepared req ~observe image))

let handle_response t req = (handle t req).Outcome.response
