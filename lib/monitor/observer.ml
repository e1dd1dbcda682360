module Json = Cm_json.Json
module Request = Cm_http.Request
module Response = Cm_http.Response
module RM = Cm_uml.Resource_model
module Footprint = Cm_ocl.Footprint

type backend = Request.t -> Response.t

(* What the resource model determines: its URI entries, their index and
   the tenant context.  Built once per generation and shared by every
   observer over it; nothing writes it. *)
type shape = {
  s_model : RM.t;
  s_entries : Cm_uml.Paths.entry list;
  s_index : Cm_uml.Paths.index;
  s_context_def : string;
  s_context_param : string;
}

type t = {
  backend : backend;
  token : string;
  model : RM.t;
  project_id : string;
  entries : Cm_uml.Paths.entry list;
  entry_index : Cm_uml.Paths.index;
  context_def : string;  (* the tenant context ([Paths.context]) *)
  context_param : string;  (* its id parameter, the tenant key *)
  footprint : Footprint.t option;
      (* None = observe everything; Some fp = fetch only what fp reads *)
  cache : Obs_cache.t option;
  lc_names : (string, string) Hashtbl.t;
      (* interned lowercased resource names — root binding keys are
         produced on every observation, so don't re-derive the string
         each time (shared across [with_project] copies; each monitor
         owns its observer, so single-threaded) *)
}

let shape ~model entries =
  let context_def = Cm_uml.Paths.context model in
  { s_model = model;
    s_entries = entries;
    s_index = Cm_uml.Paths.index entries;
    s_context_def = context_def;
    s_context_param = Cm_uml.Paths.id_param context_def
  }

let of_shape ~backend ~token ~project_id shape =
  { backend;
    token;
    model = shape.s_model;
    project_id;
    entries = shape.s_entries;
    entry_index = shape.s_index;
    context_def = shape.s_context_def;
    context_param = shape.s_context_param;
    footprint = None;
    cache = None;
    lc_names = Hashtbl.create 16
  }

let create ~backend ~token ~model ~project_id =
  match Cm_uml.Paths.derive model with
  | Ok entries ->
    Ok (of_shape ~backend ~token ~project_id (shape ~model entries))
  | Error msg ->
    (* A model whose URI scheme cannot be derived would otherwise yield a
       monitor that observes nothing and vacuously passes everything. *)
    Error (Printf.sprintf "observer: cannot derive URI scheme: %s" msg)

let create_exn ~backend ~token ~model ~project_id =
  match create ~backend ~token ~model ~project_id with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let lc t s =
  match Hashtbl.find_opt t.lc_names s with
  | Some v -> v
  | None ->
    let v = String.lowercase_ascii s in
    Hashtbl.add t.lc_names s v;
    v

let with_project t ~project_id = { t with project_id }
let with_token t ~token = { t with token }
let with_footprint t footprint = { t with footprint }
let with_cache t cache = { t with cache = Some cache }

(* ---- footprint pruning ----------------------------------------------- *)

let wants_root t name =
  match t.footprint with
  | None -> true
  | Some fp -> Footprint.mentions fp (lc t name)

let wants_member t root field =
  match t.footprint with
  | None -> true
  | Some fp -> Footprint.needs_field fp ~root:(lc t root) field

(* The context document's own attributes vs. the members we graft from
   child listings: if the contracts only read grafted roles, the doc GET
   itself is dead weight. *)
let wants_own_attrs t root ~grafted_roles =
  match t.footprint with
  | None -> true
  | Some fp ->
    let root = lc t root in
    (match List.assoc_opt root fp with
     | None -> false
     | Some Footprint.All -> true
     | Some (Footprint.Fields fs) ->
       List.exists (fun f -> not (List.mem f grafted_roles)) fs)

(* ---- cached GETs ------------------------------------------------------ *)

let backend_get ?(subject_token = None) t path =
  let req =
    Request.make Cm_http.Meth.GET path |> Request.with_auth_token t.token
  in
  let req =
    match subject_token with
    | None -> req
    | Some token ->
      { req with
        Request.headers =
          Cm_http.Headers.replace "X-Subject-Token" token req.Request.headers
      }
  in
  t.backend req

(* [fresh] bypasses cache reads but still refreshes the entry: the
   stability re-observation must see the cloud, not the cache, or
   concurrent interference would be masked. *)
let get ?(fresh = false) ?(subject_token = None) t path =
  match t.cache with
  | Some cache ->
    let cached =
      if fresh then None else Obs_cache.find cache ~token:subject_token path
    in
    (match cached with
     | Some resp -> resp
     | None ->
       let resp = backend_get ~subject_token t path in
       Obs_cache.remember cache ~token:subject_token path resp;
       resp)
  | None -> backend_get ~subject_token t path

let successful_body resp =
  if Response.is_success resp then resp.Response.body else None

(* API bodies wrap the payload in a single-key envelope; the key's
   spelling varies (volume / quota_set / ...), so unwrap positionally. *)
let unwrap = function
  | Some (Json.Obj [ (_, payload) ]) -> Some payload
  | Some _ | None -> None

let template_for t ~resource ~item =
  Cm_uml.Paths.find t.entry_index ~resource ~item
  |> Option.map (fun (e : Cm_uml.Paths.entry) -> e.template)

let expand t template bindings =
  match
    Cm_http.Uri_template.expand template
      ((t.context_param, t.project_id) :: bindings)
  with
  | Ok path -> Some path
  | Error _ -> None

let get_unwrapped ?fresh t ~resource ~item bindings =
  match template_for t ~resource ~item with
  | None -> None
  | Some template ->
    (match expand t template bindings with
     | None -> None
     | Some path -> unwrap (successful_body (get ?fresh t path)))

(* Sub-collections of a bound item: graft each reachable listing into the
   item document as a member named by the role — this is what makes
   [volume.snapshots->size()] evaluable. *)
let graft_sub_collections ?fresh t request_bindings (def_name : string) doc =
  match doc with
  | Json.Obj members ->
    let extra =
      List.filter_map
        (fun (assoc : RM.association) ->
          if assoc.source <> def_name then None
          else if not (wants_member t def_name assoc.role) then None
          else
            match RM.find_resource assoc.target t.model with
            | None -> None
            | Some target_def ->
              let listing_resource =
                match target_def.kind with
                | RM.Collection ->
                  (* role points at a collection definition *)
                  Some target_def.def_name
                | RM.Normal
                  when Cm_uml.Multiplicity.is_collection assoc.multiplicity ->
                  Some target_def.def_name
                | RM.Normal -> None
              in
              (match listing_resource with
               | None -> None
               | Some resource ->
                 (match
                    get_unwrapped ?fresh t ~resource ~item:false
                      request_bindings
                  with
                  | Some (Json.List _ as items) -> Some (assoc.role, items)
                  | Some _ | None -> None)))
        t.model.RM.associations
    in
    Json.Obj (members @ extra)
  | other -> other

(* Items addressable with the available URI parameters: for each item
   entry whose every parameter is known, GET and bind it. The context
   resource is excluded (it gets richer treatment below). *)
let ancestor_bindings ?fresh t request_bindings =
  let available = (t.context_param, t.project_id) :: request_bindings in
  List.filter_map
    (fun (entry : Cm_uml.Paths.entry) ->
      if (not entry.is_item) || entry.resource = t.context_def then None
      else if not (wants_root t entry.resource) then None
      else begin
        let params = Cm_http.Uri_template.param_names entry.template in
        (* single-param items (the context's singleton children) are
           already bound by the context walk; ancestors proper need at
           least one id from the request *)
        let all_known =
          List.length params >= 2
          && List.for_all (fun p -> List.mem_assoc p available) params
        in
        if not all_known then None
        else
          match
            get_unwrapped ?fresh t ~resource:entry.resource ~item:true
              request_bindings
          with
          | Some doc ->
            Some
              ( lc t entry.resource,
                graft_sub_collections ?fresh t request_bindings entry.resource
                  doc )
          | None -> None
      end)
    t.entries

let observe ?(fresh = false) ?item ?(bindings = []) t =
  (* which roles the context walk can graft (for dead-doc elimination) *)
  let children = RM.outgoing t.context_def t.model in
  let collection_roles =
    List.filter_map
      (fun (assoc : RM.association) ->
        match RM.find_resource assoc.target t.model with
        | None -> None
        | Some target_def ->
          if
            target_def.kind = RM.Collection
            || Cm_uml.Multiplicity.is_collection assoc.multiplicity
          then Some assoc.role
          else None)
      children
  in
  (* 1. the context resource's own document *)
  let context_members =
    if not (wants_own_attrs t t.context_def ~grafted_roles:collection_roles)
    then []
    else
      match get_unwrapped ~fresh t ~resource:t.context_def ~item:true [] with
      | Some (Json.Obj members) -> members
      | Some _ | None -> []
  in
  (* 2. children of the context: collections become members under their
     role; singleton normals become top-level bindings *)
  let member_bindings, toplevel_bindings =
    List.fold_left
      (fun (members, toplevels) (assoc : RM.association) ->
        match RM.find_resource assoc.target t.model with
        | None -> (members, toplevels)
        | Some target_def ->
          let is_sub_collection =
            target_def.kind = RM.Collection
            || RM.Collection <> target_def.kind
               && Cm_uml.Multiplicity.is_collection assoc.multiplicity
          in
          if is_sub_collection then begin
            if not (wants_member t t.context_def assoc.role) then
              (members, toplevels)
            else
              let listing =
                get_unwrapped ~fresh t ~resource:target_def.def_name
                  ~item:false []
              in
              match listing with
              | Some (Json.List _ as items) ->
                ((assoc.role, items) :: members, toplevels)
              | Some _ | None -> (members, toplevels)
          end
          else if not (wants_root t target_def.def_name) then
            (members, toplevels)
          else begin
            match
              get_unwrapped ~fresh t ~resource:target_def.def_name ~item:true
                []
            with
            | Some doc ->
              ( members,
                (lc t target_def.def_name, doc) :: toplevels )
            | None -> (members, toplevels)
          end)
      ([], []) children
  in
  let context_binding =
    ( lc t t.context_def,
      Json.Obj (context_members @ List.rev member_bindings) )
  in
  (* 3. every item reachable with the request's URI parameters —
     including the addressed item itself and all its ancestors — each
     enriched with its own sub-collection listings *)
  let nested = ancestor_bindings ~fresh t bindings in
  (* 4. an explicitly requested item (used by drivers that know an id
     without having a full request path) *)
  let item_binding =
    match item with
    | None -> []
    | Some (resource, _) when not (wants_root t resource) -> []
    | Some (resource, id)
      when not (List.mem_assoc (lc t resource) nested) ->
      let id_param = Cm_uml.Paths.id_param resource in
      let request_bindings = (id_param, id) :: bindings in
      (match get_unwrapped ~fresh t ~resource ~item:true request_bindings with
       | Some doc ->
         [ ( lc t resource,
             graft_sub_collections ~fresh t request_bindings resource doc )
         ]
       | None -> [])
    | Some _ -> []
  in
  (context_binding :: List.rev toplevel_bindings) @ nested @ item_binding

let privilege = function "admin" -> 0 | "member" -> 1 | "user" -> 2 | _ -> 3

let introspection_path = "/identity/v3/auth/tokens"

let parse_subject_body body =
  let get_str field =
    match Cm_json.Pointer.get [ Key "token"; Key field ] body with
    | Some (Json.String s) -> Some s
    | Some _ | None -> None
  in
  let get_list field =
    match Cm_json.Pointer.get [ Key "token"; Key field ] body with
    | Some (Json.List items) -> items
    | Some _ | None -> []
  in
  let roles =
    List.filter_map
      (function Json.String s -> Some s | _ -> None)
      (get_list "roles")
  in
  let primary =
    match
      List.sort (fun a b -> Int.compare (privilege a) (privilege b)) roles
    with
    | strongest :: _ -> strongest
    | [] -> ""
  in
  Some
    (Json.obj
       [ ("name", Json.string (Option.value ~default:"" (get_str "user")));
         ("groups", Json.List (get_list "groups"));
         ("roles", Json.List (get_list "roles"));
         ("role", Json.string primary);
         ("id", Json.obj [ ("groups", Json.string primary) ])
       ])

let subject_binding backend ~token =
  let req =
    Request.make Cm_http.Meth.GET introspection_path
    |> fun r ->
    { r with
      Request.headers =
        Cm_http.Headers.replace "X-Subject-Token" token r.Request.headers
    }
  in
  match successful_body (backend req) with
  | None -> None
  | Some body -> parse_subject_body body

(* A token identity definitely does not know (revoked or never issued)
   binds an empty subject: groups/roles are [], so auth guards evaluate
   to a definite False rather than Unknown.  Transport-level failures
   stay [None] (Unknown) — we could not observe, so we must not judge. *)
let empty_subject =
  Json.obj
    [ ("name", Json.string "");
      ("groups", Json.List []);
      ("roles", Json.List []);
      ("role", Json.string "");
      ("id", Json.obj [ ("groups", Json.string "") ])
    ]

(* Token introspections are cached under the subject token.  Revocations
   flow through the monitored API as DELETEs on the introspection path,
   whose mutation invalidation clears the cached introspection. *)
let subject_binding_cached ?(fresh = false) t ~token =
  let resp = get ~fresh ~subject_token:(Some token) t introspection_path in
  if Response.is_success resp then
    Option.bind resp.Response.body parse_subject_body
  else if resp.Response.status = Cm_http.Status.not_found then
    Some empty_subject
  else None

let env ?fresh ?item ?bindings ?user_token ?request_body t =
  let observed = observe ?fresh ?item ?bindings t in
  let user_binding =
    match user_token with
    | None -> []
    | Some _ when not (wants_root t "user") -> []
    | Some token ->
      (match subject_binding_cached ?fresh t ~token with
       | Some user -> [ ("user", user) ]
       | None -> [])
  in
  (* The request body is evidence the monitor already holds — no
     observation needed; contracts navigate it as [request.<field>]. *)
  let request_binding =
    match request_body with
    | Some body when wants_root t "request" -> [ ("request", body) ]
    | Some _ | None -> []
  in
  Cm_ocl.Eval.env_of_bindings (observed @ user_binding @ request_binding)
