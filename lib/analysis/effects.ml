module Ast = Cm_ocl.Ast
module Footprint = Cm_ocl.Footprint
module BM = Cm_uml.Behavior_model
module RM = Cm_uml.Resource_model
module Paths = Cm_uml.Paths
module Meth = Cm_http.Meth
module J = Cm_json.Json

(* The identity service's token store is the one piece of monitored
   state that carries no tenant key: a revocation's URI names a token,
   not a project, so its effect is visible from every shard.  The
   analysis models it as one pseudo-resource written by DELETE. *)
let identity_resource = "token"
let identity_trigger = { BM.meth = Meth.DELETE; resource = identity_resource }
let identity_writes : Footprint.t = [ ("user", Footprint.All) ]

type event = {
  ev_trigger : BM.trigger;
  ev_tenant_keyed : bool;
  ev_identity : bool;
  ev_writes : Footprint.t;
}

(* ---- write footprint of one effect expression ---- *)

let conjuncts expr =
  let rec go acc = function
    | Ast.Binop (Ast.And, a, b) -> go (go acc b) a
    | e -> e :: acc
  in
  go [] expr

(* ---- frame detection ---- *)

(* A conjunct of an effect is a *frame condition* — it documents that
   nothing changed — in exactly two shapes:

   - [e = pre(e)] (either orientation): post-state value pinned to the
     pre-state value;
   - a pre()-free conjunct already implied by the transition's
     precondition [inv(source) /\ guard]: it holds of the unmodified
     state, so asserting it of the post-state constrains nothing new
     (e.g. [project.volumes->size() = 0] on a GET out of the empty
     state).  Implication is checked with the solver
     ([pre /\ not conjunct] unsatisfiable); {!Solver.Unknown} is treated
     as "not a frame", which over-approximates writes — the sound
     direction for subscriptions and cache invalidation. *)
let is_frame_conjunct ~pre conjunct =
  let pre_equality a b =
    match b with Ast.At_pre b' -> Ast.equal a b' | _ -> false
  in
  match conjunct with
  | Ast.Binop (Ast.Eq, a, b) when pre_equality a b || pre_equality b a -> true
  | c when not (Ast.has_pre c) ->
    (match Solver.satisfiable (Ast.conj [ pre; Ast.Unop (Ast.Not, c) ]) with
     | Solver.Unsat -> true
     | Solver.Sat _ | Solver.Unknown -> false)
  | _ -> false

(* [pre(e)] reads the pre-state; only what the conjunct says about the
   post-state is a write.  Erase every pre-subtree before taking the
   footprint, so [x = pre(x) + 1] writes {x} and nothing else. *)
let post_footprint conjunct =
  let rec go = function
    | Ast.At_pre _ -> Ast.Null_lit
    | Ast.Nav (e, f) -> Ast.Nav (go e, f)
    | Ast.Coll (e, op) -> Ast.Coll (go e, op)
    | Ast.Member (e, incl, x) -> Ast.Member (go e, incl, go x)
    | Ast.Count (e, x) -> Ast.Count (go e, go x)
    | Ast.Iter (e, k, v, body) -> Ast.Iter (go e, k, v, go body)
    | Ast.Unop (op, e) -> Ast.Unop (op, go e)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, go a, go b)
    | (Ast.Bool_lit _ | Ast.Int_lit _ | Ast.String_lit _ | Ast.Null_lit
      | Ast.Var _) as e ->
      e
  in
  Footprint.of_expr (go conjunct)

(* Write footprint of one transition: the non-frame conjuncts of its
   effect, plus — for unsafe methods — the addressed resource itself
   (the HTTP semantics of the method: a POST/PUT/DELETE on [r] changes
   [r]'s state even when the model's effect under-specifies it). *)
let transition_writes behavior (tr : BM.transition) =
  let inv =
    match BM.find_state tr.source behavior with
    | Some s -> s.BM.invariant
    | None -> Ast.Bool_lit true
  in
  let pre =
    Ast.conj (inv :: (match tr.guard with Some g -> [ g ] | None -> []))
  in
  let from_effect =
    match tr.effect with
    | None -> Footprint.empty
    | Some effect ->
      List.fold_left
        (fun acc c ->
          if is_frame_conjunct ~pre c then acc
          else Footprint.union acc (post_footprint c))
        Footprint.empty (conjuncts effect)
      (* The request body is per-call input, not system state: an effect
         mentioning [request.x] reads it, nothing can write it. *)
      |> List.filter (fun (root, _) -> not (String.equal root "request"))
  in
  if Meth.is_safe tr.trigger.meth then from_effect
  else
    Footprint.union from_effect
      [ (String.lowercase_ascii tr.trigger.resource, Footprint.All) ]

(* ---- per-trigger events ---- *)

(* A trigger's event keys on the tenant iff its URI path passes through
   the tenant context's item — i.e. some derived template for the
   resource binds the tenant parameter.  Resources outside the derived
   surface (and the identity pseudo-event) are conservatively
   cross-shard. *)
let tenant_keyed model entries resource =
  let param = Paths.id_param (Paths.context model) in
  let wanted = String.lowercase_ascii resource in
  List.exists
    (fun (e : Paths.entry) ->
      String.equal (String.lowercase_ascii e.resource) wanted
      && List.mem param (Cm_http.Uri_template.param_names e.template))
    entries

let compare_trigger (a : BM.trigger) (b : BM.trigger) =
  let c = String.compare a.resource b.resource in
  if c <> 0 then c else Meth.compare a.meth b.meth

let events (input : Input.t) =
  match Paths.derive input.resources with
  | Error msg -> Error msg
  | Ok entries ->
    let by_trigger = Hashtbl.create 16 in
    List.iter
      (fun (tr : BM.transition) ->
        let w = transition_writes input.behavior tr in
        let acc =
          Option.value ~default:Footprint.empty
            (Hashtbl.find_opt by_trigger tr.trigger)
        in
        Hashtbl.replace by_trigger tr.trigger (Footprint.union acc w))
      input.behavior.BM.transitions;
    let model_events =
      Hashtbl.fold
        (fun trigger writes acc ->
          { ev_trigger = trigger;
            ev_tenant_keyed =
              tenant_keyed input.resources entries trigger.BM.resource;
            ev_identity = false;
            ev_writes = writes
          }
          :: acc)
        by_trigger []
      |> List.sort (fun a b -> compare_trigger a.ev_trigger b.ev_trigger)
    in
    let identity =
      { ev_trigger = identity_trigger;
        ev_tenant_keyed = false;
        ev_identity = true;
        ev_writes = identity_writes
      }
    in
    Ok (model_events @ [ identity ])

(* Field-aware footprint intersection: a write to [root.f] interferes
   with a read of [root.g] only when [f = g] or either side is [All]. *)
let footprints_interfere (reads : Footprint.t) (writes : Footprint.t) =
  List.exists
    (fun (root, wfs) ->
      match List.assoc_opt root reads with
      | None -> false
      | Some Footprint.All -> true
      | Some (Footprint.Fields rfs) ->
        (match wfs with
         | Footprint.All -> true
         | Footprint.Fields fs -> List.exists (fun f -> List.mem f rfs) fs))
    writes

let event_to_json e =
  J.Obj
    [ ("trigger", J.String (Fmt.str "%a" BM.pp_trigger e.ev_trigger));
      ("tenant_keyed", J.Bool e.ev_tenant_keyed);
      ("identity", J.Bool e.ev_identity);
      ("writes", Footprint.to_json e.ev_writes)
    ]

let to_json evs = J.List (List.map event_to_json evs)
