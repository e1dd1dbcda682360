module Json = Cm_json.Json
module Request = Cm_http.Request
module Response = Cm_http.Response
module Status = Cm_http.Status
module Meth = Cm_http.Meth
module Template = Cm_http.Uri_template
module RM = Cm_uml.Resource_model
module BM = Cm_uml.Behavior_model
module Paths = Cm_uml.Paths
module Contract = Cm_contracts.Contract
module Snapshot = Cm_contracts.Snapshot
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value

type mode = Enforce | Oracle

type t = {
  mode : mode;
  service_token : string;
  service_token_for : (string -> string option) option;
  resources : RM.t;
  behavior : BM.t;
  entries : Paths.entry list;
  contracts : Contract.t list;
  backend : Request.t -> Response.t;
  mutable evals : int;
}

let create ?(mode = Oracle) ~service_token ?service_token_for ~security
    resources behavior backend =
  match (Paths.derive resources, Cm_contracts.Generate.all ~security behavior)
  with
  | Error msg, _ | _, Error msg -> Error [ msg ]
  | Ok entries, Ok contracts ->
    Ok { mode; service_token; service_token_for; resources; behavior; entries;
         contracts; backend; evals = 0 }

let evals t = t.evals

(* Every template the path matches, the most specific first (derivation
   order breaks ties). *)
let classify t path =
  List.filter_map
    (fun (e : Paths.entry) ->
      Option.map (fun b -> (e, b)) (Template.matches e.template path))
    t.entries
  |> List.stable_sort (fun ((a : Paths.entry), _) ((b : Paths.entry), _) ->
         Int.compare (Template.specificity b.template)
           (Template.specificity a.template))
  |> function [] -> None | best :: _ -> Some best

(* The trigger a method on a URI fires: POST on a collection creates the
   item the collection contains; POST on an item URI fires none. *)
let trigger t (e : Paths.entry) meth =
  match meth, e.is_item, RM.outgoing e.resource t.resources with
  | Meth.POST, true, _ -> None
  | Meth.POST, false, child :: _ -> Some { BM.meth; resource = child.target }
  | _ -> Some { BM.meth; resource = e.resource }

let get t ~token ?subject path =
  let headers =
    Cm_http.Headers.of_list
      (Option.fold subject ~none:[] ~some:(fun s -> [ ("X-Subject-Token", s) ]))
  in
  t.backend
    (Request.make ~headers Meth.GET path |> Request.with_auth_token token)

(* GET the item or collection URI of a resource definition, its
   parameters taken from [bindings]; a successful answer's payload comes
   unwrapped from its single-key envelope ([{"volume": {...}}]). *)
let fetch t ~token bindings ~resource ~item =
  match
    List.find_opt
      (fun (e : Paths.entry) -> e.resource = resource && e.is_item = item)
      t.entries
    |> Option.map (fun (e : Paths.entry) -> Template.expand e.template bindings)
  with
  | Some (Ok path) ->
    (match get t ~token path with
     | { body = Some (Json.Obj [ (_, payload) ]); _ } as resp
       when Response.is_success resp -> Some payload
     | _ -> None)
  | Some (Error _) | None -> None

(* A listing: an association to a collection, or a many-association. *)
let is_listing t (assoc : RM.association) =
  match RM.find_resource assoc.target t.resources with
  | Some def ->
    def.kind = RM.Collection
    || Cm_uml.Multiplicity.is_collection assoc.multiplicity
  | None -> false

(* An item document carries the listing of each of its sub-collections
   as a member named by the role: what makes [project.volumes->size()]
   evaluable. *)
let with_listings t ~token bindings def = function
  | Json.Obj members ->
    let listing (assoc : RM.association) =
      match
        if is_listing t assoc then
          fetch t ~token bindings ~resource:assoc.target ~item:false
        else None
      with
      | Some (Json.List _ as items) -> Some (assoc.role, items)
      | Some _ | None -> None
    in
    Json.Obj (members @ List.filter_map listing (RM.outgoing def t.resources))
  | other -> other

(* The ["user"] binding the authorization guards read: the token's user,
   groups and roles, and the most privileged role as [role] and
   [id.groups]. *)
let subject_of body =
  let field name = Cm_json.Pointer.get [ Key "token"; Key name ] body in
  let items name = match field name with Some (Json.List l) -> l | _ -> [] in
  let rank = function "admin" -> 0 | "member" -> 1 | "user" -> 2 | _ -> 3 in
  let role =
    items "roles"
    |> List.filter_map (function Json.String s -> Some s | _ -> None)
    |> List.stable_sort (fun a b -> Int.compare (rank a) (rank b))
    |> function r :: _ -> r | [] -> ""
  in
  let name = match field "user" with Some (Json.String s) -> s | _ -> "" in
  Json.obj
    [ ("name", Json.string name); ("groups", Json.List (items "groups"));
      ("roles", Json.List (items "roles")); ("role", Json.string role);
      ("id", Json.obj [ ("groups", Json.string role) ]) ]

(* Token introspection: a token the identity service definitely does not
   know (404) is a subject with no groups and no roles; any other
   failure leaves the subject unobserved. *)
let introspect t ~token user =
  let resp = get t ~token ~subject:user "/identity/v3/auth/tokens" in
  if Response.is_success resp then Option.map subject_of resp.body
  else if resp.status = Status.not_found then Some (subject_of (Json.Obj []))
  else None

(* The context resource (the item the root collection contains, e.g.
   [project]) with its listings; its singleton children; every other
   item whose URI parameters the request binds (the addressed item and
   its ancestors) with their listings; the subject; the request body. *)
let observe t (req : Request.t) bindings =
  let lc = String.lowercase_ascii in
  let context =
    match RM.outgoing t.resources.root t.resources with
    | child :: _ -> child.target | [] -> "project"
  in
  let param = Paths.id_param context in
  let project = Option.value ~default:"" (List.assoc_opt param bindings) in
  let bindings = (param, project) :: bindings in
  let token =
    Option.value ~default:t.service_token
      (Option.bind t.service_token_for (fun resolve -> resolve project))
  in
  let fetch = fetch t ~token bindings in
  let with_listings = with_listings t ~token bindings in
  let context_doc =
    match fetch ~resource:context ~item:true with
    | Some (Json.Obj _ as doc) -> doc | Some _ | None -> Json.Obj []
  in
  let singletons =
    List.filter_map
      (fun (assoc : RM.association) ->
        if is_listing t assoc then None
        else
          Option.map (fun doc -> (lc assoc.target, doc))
            (fetch ~resource:assoc.target ~item:true))
      (RM.outgoing context t.resources)
  in
  let add_item bound (e : Paths.entry) =
    let name = lc e.resource in
    if
      e.is_item
      && (not (List.mem_assoc name bound))
      && List.for_all (fun p -> List.mem_assoc p bindings)
           (Template.param_names e.template)
    then
      match fetch ~resource:e.resource ~item:true with
      | Some doc -> bound @ [ (name, with_listings e.resource doc) ]
      | None -> bound
    else bound
  in
  let state =
    List.fold_left add_item
      ((lc context, with_listings context context_doc) :: singletons)
      t.entries
  in
  let user = Option.bind (Request.auth_token req) (introspect t ~token) in
  Eval.env_of_bindings
    (state
    @ Option.to_list (Option.map (fun s -> ("user", s)) user)
    @ Option.to_list (Option.map (fun b -> ("request", b)) req.body))

let counted t f = t.evals <- t.evals + 1; f ()

let outcome req ?cloud ?pre ?post ?(covered = []) ?(requirements = [])
    ?(snapshot = 0) response conformance detail =
  { Outcome.request = req; response; cloud_response = cloud; conformance;
    pre_verdict = pre; post_verdict = post; covered_requirements = covered;
    contract_requirements = requirements; snapshot_bytes = snapshot; detail }

(* The monitor's own answer in the cloud's place. *)
let diagnostic status conformance detail =
  let verdict = Json.string (Outcome.conformance_to_string conformance) in
  Response.make status
    ~headers:(Cm_http.Headers.content_type_json Cm_http.Headers.empty)
    ~body:
      (Json.obj
         [ ("monitor",
            Json.obj [ ("verdict", verdict); ("detail", Json.string detail) ])
         ])

let expected_codes : Meth.t -> int list = function
  | GET | HEAD | OPTIONS -> [ 200 ] | PUT | PATCH -> [ 200; 202 ]
  | POST -> [ 200; 201; 202 ] | DELETE -> [ 202; 204 ]

(* Oracle mode: what the pre-state permitted against what the cloud did;
   the postcondition is judged only for a permitted request the cloud
   performed with an expected status. *)
let oracle_judgement (req : Request.t) ~auth ~functional ~post
    (resp : Response.t) =
  let ok = Response.is_success resp and status = resp.status in
  let undefined h = (Outcome.Undefined h, None, "precondition undefined") in
  let performed c detail =
    if ok then (c, None, detail) else (Outcome.Conform_denied, None, "")
  in
  match auth, functional with
  | Some Value.Unknown, _ -> undefined "authorization guard undefined"
  | _, Value.Unknown -> undefined "functional precondition undefined"
  | Some Value.False, _ ->
    performed Outcome.Security_unauthorized_allowed
      "specification forbids this subject, yet the cloud performed the request"
  | _, Value.False ->
    performed Outcome.Functional_wrongly_accepted
      "behavioural precondition false, yet the cloud performed the request"
  | _ when status = Status.unauthorized || status = Status.forbidden ->
    ( Outcome.Security_authorized_denied, None,
      "specification permits this subject, yet the cloud denied" )
  | _ when not ok ->
    ( Outcome.Functional_wrongly_rejected, None,
      Printf.sprintf "expected success, got %d" status )
  | _ when not (List.mem status (expected_codes req.meth)) ->
    ( Outcome.Functional_bad_status, None,
      Printf.sprintf "success status %d not in the expected set" status )
  | _ ->
    (match post () with
     | Eval.Holds as v -> (Outcome.Conform, Some v, "")
     | Eval.Violated as v ->
       (Outcome.Post_violated, Some v, "postcondition violated")
     | Eval.Undefined_verdict hint as v ->
       (Outcome.Undefined hint, Some v, "postcondition undefined"))

(* §V: evaluate Pre(m) in the observed pre-state, forward unless Enforce
   blocks, evaluate Post(m) in the observed post-state with the whole
   pre-state attached. *)
let contracted t req bindings (c : Contract.t) =
  let pre_env = observe t req bindings in
  let check expr = counted t (fun () -> Eval.check pre_env expr) in
  let pre = counted t (fun () -> Eval.verdict pre_env c.pre) in
  let covered = counted t (fun () -> Contract.covered_requirements c pre_env) in
  let auth = Option.map check c.auth_guard in
  let functional = check c.functional_pre in
  let judged ?cloud ?post ?snapshot response conformance detail =
    outcome req ?cloud ~pre ?post ~covered ~requirements:c.requirements
      ?snapshot response conformance detail
  in
  let blocked conformance detail =
    judged (diagnostic Status.forbidden conformance detail) conformance detail
  in
  match t.mode, pre with
  | Enforce, Eval.Violated ->
    blocked Outcome.Conform_denied
      (if auth = Some Value.False then "precondition violated: authorization"
       else "precondition violated: behavioural guard")
  | Enforce, Eval.Undefined_verdict hint ->
    blocked (Outcome.Undefined hint) ("precondition undefined: " ^ hint)
  | Enforce, Eval.Holds | Oracle, _ ->
    let snapshot =
      counted t (fun () ->
          Snapshot.size_bytes (Snapshot.take (Snapshot.compile c.post) pre_env))
    in
    let cloud = t.backend req in
    let post () =
      let post_env = observe t req bindings in
      counted t (fun () ->
          Snapshot.post_verdict
            (Snapshot.check_post_full c.post ~pre:pre_env post_env))
    in
    (match t.mode with
     | Enforce ->
       let verdict = post () in
       let judged = judged ~cloud ~post:verdict ~snapshot in
       let refused c d =
         judged (diagnostic Status.internal_server_error c d) c d
       in
       (match verdict with
        | Eval.Holds -> judged cloud Outcome.Conform ""
        | Eval.Violated ->
          refused Outcome.Post_violated
            "postcondition violated after forwarding"
        | Eval.Undefined_verdict hint ->
          refused (Outcome.Undefined hint) ("postcondition undefined: " ^ hint))
     | Oracle ->
       let conformance, post, detail =
         oracle_judgement req ~auth ~functional ~post cloud
       in
       judged ~cloud ?post ~snapshot cloud conformance detail)

(* A request no contract judges: Enforce refuses a method the model does
   not permit; Oracle forwards it and flags a performed one. *)
let uncontracted t req trigger =
  match t.mode with
  | Enforce ->
    let allowed =
      Option.fold trigger ~none:[] ~some:(fun (tr : BM.trigger) ->
          BM.methods_on tr.resource t.behavior)
    in
    outcome req
      (Response.error Status.method_not_allowed
         (Printf.sprintf "method not permitted by the model (allowed: %s)"
            (String.concat ", " (List.map Meth.to_string allowed))))
      Outcome.Conform_denied "no contract for trigger"
  | Oracle ->
    let cloud = t.backend req in
    outcome req ~cloud cloud
      (if Response.is_success cloud then Outcome.Functional_wrongly_accepted
       else Outcome.Conform_denied)
      "method has no contract in the model"

let handle t (req : Request.t) =
  match classify t req.path with
  | None ->
    let cloud = t.backend req in
    outcome req ~cloud cloud Outcome.Not_monitored
      "no model entry for this URI"
  | Some (entry, bindings) ->
    let trigger = trigger t entry req.meth in
    let contract (tr : BM.trigger) =
      List.find_opt (fun (c : Contract.t) -> BM.trigger_equal c.trigger tr)
        t.contracts
    in
    (match Option.bind trigger contract with
     | None -> uncontracted t req trigger
     | Some c -> contracted t req bindings c)
