module Lint = Cm_lint.Lint
module Ast = Cm_ocl.Ast
module Footprint = Cm_ocl.Footprint
module BM = Cm_uml.Behavior_model
module Meth = Cm_http.Meth
module J = Cm_json.Json

type subscription = {
  sub_trigger : BM.trigger;
  sub_events : Effects.event list;
  sub_shard_closed : bool;
}

(* ---- subscription maps ---- *)

(* A contract must re-evaluate on event [T] iff [T]'s write effect meets
   the contract's read footprint (field-granular), or [T] is the
   contract's own trigger.  The identity pseudo-event writes [user], so
   every auth-guarded contract subscribes to it through plain
   interference — no special case.  Everything else is provably inert:
   the dynamic oracle in {!Crosscheck.run_subscriptions} perturbs
   exactly the non-subscribed events and asserts verdict stability. *)
let contract_reads (c : Cm_contracts.Contract.t) =
  Footprint.of_exprs
    ([ c.pre; c.functional_pre; c.post ]
    @ Option.to_list c.auth_guard
    @ List.concat_map
        (fun (b : Cm_contracts.Contract.branch) ->
          [ b.branch_pre; b.branch_post ])
        c.branches)

let subscription_of events (c : Cm_contracts.Contract.t) =
  let reads = contract_reads c in
  let subscribed =
    List.filter
      (fun (ev : Effects.event) ->
        BM.trigger_equal ev.ev_trigger c.trigger
        || Effects.footprints_interfere reads ev.ev_writes)
      events
  in
  { sub_trigger = c.trigger;
    sub_events = subscribed;
    sub_shard_closed =
      List.for_all (fun (ev : Effects.event) -> ev.ev_tenant_keyed) subscribed
  }

let subscriptions (input : Input.t) =
  match
    (Cm_contracts.Generate.all ?security:input.security input.behavior,
     Effects.events input)
  with
  | Error e, _ | _, Error e -> Error e
  | Ok contracts, Ok events ->
    Ok (List.map (subscription_of events) contracts)

let subscription_for subs trigger =
  List.find_opt (fun s -> BM.trigger_equal s.sub_trigger trigger) subs

let cross_shard_events s =
  List.filter (fun (ev : Effects.event) -> not ev.ev_tenant_keyed) s.sub_events

(* ---- AN013/AN014/AN015 ---- *)

let findings (input : Input.t) =
  let an013 =
    (* Safe methods must be observationally pure: a GET whose effect
       writes state breaks every cache and every commutation argument
       built on Meth.is_safe. *)
    match Effects.events input with
    | Error _ -> []
    | Ok events ->
      List.filter_map
        (fun (ev : Effects.event) ->
          if
            (not ev.ev_identity)
            && Meth.is_safe ev.ev_trigger.BM.meth
            && ev.ev_writes <> Footprint.empty
          then
            Some
              (Lint.finding ~rule:"AN013" ~severity:Lint.Error
                 ~where:(Fmt.str "trigger %a" BM.pp_trigger ev.ev_trigger)
                 (Fmt.str
                    "safe method has a non-frame write effect %a: the \
                     observer assumes safe methods mutate nothing"
                    Footprint.pp ev.ev_writes))
          else None)
        events
  in
  let an014 =
    (* The identity subject inside functional expressions (not the
       generated auth guard) couples the contract to the cross-shard
       token stream even where the modeller only meant behaviour. *)
    let check where expr =
      if List.mem "user" (Ast.free_vars expr) then
        Some
          (Lint.finding ~rule:"AN014" ~severity:Lint.Warning ~where
             "functional expression reads the identity subject [user]: \
              the contract subscribes to the cross-shard token stream \
              beyond its authorization guard")
      else None
    in
    List.filter_map
      (fun (s : BM.state) -> check s.state_name s.invariant)
      input.behavior.BM.states
    @ List.concat
        (List.mapi
           (fun i (tr : BM.transition) ->
             let where part =
               Fmt.str "%s of transition #%d %s->%s on %a" part i tr.source
                 tr.target BM.pp_trigger tr.trigger
             in
             List.filter_map
               (fun x -> x)
               [ Option.bind tr.guard (check (where "guard"));
                 Option.bind tr.effect (check (where "effect"))
               ])
           input.behavior.BM.transitions)
  in
  let an015 =
    (* Cross-tenant interference: a contract subscribed to a model event
       whose URI carries no tenant key can see verdict changes from
       another tenant's traffic — sharding by project would silently
       drop those events. *)
    match subscriptions input with
    | Error _ -> []
    | Ok subs ->
      List.concat_map
        (fun s ->
          List.filter_map
            (fun (ev : Effects.event) ->
              if ev.ev_identity || ev.ev_tenant_keyed then None
              else
                Some
                  (Lint.finding ~rule:"AN015" ~severity:Lint.Error
                     ~where:
                       (Fmt.str "contract %a" BM.pp_trigger s.sub_trigger)
                     (Fmt.str
                        "subscribes to %a whose URI carries no tenant \
                         key: another tenant's traffic can change this \
                         contract's verdict, so per-tenant sharding is \
                         unsound"
                        BM.pp_trigger ev.ev_trigger)))
            s.sub_events)
        subs
  in
  an013 @ an014 @ an015

(* ---- stable JSON (the golden subscription map) ---- *)

let subscription_to_json s =
  J.Obj
    [ ("trigger", J.String (Fmt.str "%a" BM.pp_trigger s.sub_trigger));
      ( "subscribes",
        J.List
          (List.map
             (fun (ev : Effects.event) ->
               J.Obj
                 [ ( "event",
                     J.String (Fmt.str "%a" BM.pp_trigger ev.ev_trigger) );
                   ("tenant_keyed", J.Bool ev.ev_tenant_keyed);
                   ("identity", J.Bool ev.ev_identity)
                 ])
             s.sub_events) );
      ("shard_closed", J.Bool s.sub_shard_closed);
      ( "cross_shard_events",
        J.List
          (List.map
             (fun (ev : Effects.event) ->
               J.String (Fmt.str "%a" BM.pp_trigger ev.ev_trigger))
             (cross_shard_events s)) )
    ]

let to_json subs = J.List (List.map subscription_to_json subs)
