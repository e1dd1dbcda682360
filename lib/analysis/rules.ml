module Lint = Cm_lint.Lint
module Ast = Cm_ocl.Ast
module BM = Cm_uml.Behavior_model
module RM = Cm_uml.Resource_model
module Footprint = Cm_ocl.Footprint

type input = Input.t = {
  resources : RM.t;
  behavior : BM.t;
  security : Cm_contracts.Generate.security option;
}

let catalogue =
  [ Lint.rule ~code:"AN001" ~title:"unsatisfiable state invariant"
      ~severity:Lint.Error
      "No observable state can satisfy the invariant: the state is \
       uninhabitable, every outgoing transition is dead and every \
       incoming postcondition is unsatisfiable.";
    Lint.rule ~code:"AN002" ~title:"dead transition" ~severity:Lint.Error
      "The source invariant and the guard are jointly unsatisfiable: \
       the transition can never fire, its disjunct in Pre(m) is noise \
       and its implication in Post(m) is vacuously true.";
    Lint.rule ~code:"AN003" ~title:"vacuous postcondition"
      ~severity:Lint.Error
      "The consequent inv(target) and effect can never evaluate to \
       false: monitoring this transition can never report a violation.";
    Lint.rule ~code:"AN004" ~title:"guard-overlap nondeterminism"
      ~severity:Lint.Error
      "Two transitions with the same trigger leave one state under \
       jointly satisfiable guards but disagree on target or effect: the \
       generated postcondition demands both outcomes at once in the \
       overlap.";
    Lint.rule ~code:"AN005" ~title:"trigger without security row"
      ~severity:Lint.Error
      "The behavior model fires a method with no security-table row; \
       generation is fail-closed, so the contract rejects every request \
       on this trigger.";
    Lint.rule ~code:"AN006" ~title:"role without usergroup"
      ~severity:Lint.Error
      "A security row grants a role that no usergroup is assigned: no \
       token can ever prove it, so the grant is unusable.";
    Lint.rule ~code:"AN007" ~title:"dangling security row"
      ~severity:Lint.Warning
      "A security row references a resource the model does not define, \
       or a (resource, method) pair no transition exercises.";
    Lint.rule ~code:"AN008" ~title:"role-unreachable transition"
      ~severity:Lint.Error
      "The transition is functionally satisfiable but becomes \
       unsatisfiable once the authorization guard is conjoined: no \
       authorized subject can ever exercise it.";
    Lint.rule ~code:"AN009" ~title:"footprint blind spot"
      ~severity:Lint.Error
      "A generated contract reads state the observer never binds (or a \
       member no resource-model path produces): the monitor would \
       evaluate over permanently undefined values.";
    Lint.rule ~code:"AN010" ~title:"unsnapshotable pre()"
      ~severity:Lint.Error
      "pre() captures an iterator binder: the binder ranges over a \
       post-state collection, so no pre-call snapshot exists and the \
       contract cannot be monitored by any observer.";
    Lint.rule ~code:"AN011" ~title:"pre() in a pre-state context"
      ~severity:Lint.Error
      "A guard or state invariant uses pre(): these expressions are \
       evaluated against the state the call arrives in, there is no \
       earlier state to refer to and generation would silently drop the \
       operator's meaning.";
    Lint.rule ~code:"AN012" ~title:"undischarged fresh-read obligation"
      ~severity:Lint.Warning
      "Under path-prefix cache invalidation a contract reads state that \
       another trigger mutates from a non-overlapping URI: the cached \
       copy goes stale and verdicts may be computed over old values. \
       Effect-driven invalidation discharges the obligation.";
    Lint.rule ~code:"AN013" ~title:"mutating safe method"
      ~severity:Lint.Error
      "A safe (read-only) HTTP method has a non-frame write effect: \
       caching and commutation arguments built on method safety are \
       unsound for this model.";
    Lint.rule ~code:"AN014" ~title:"identity read in functional expression"
      ~severity:Lint.Warning
      "An invariant, guard or effect (not the generated authorization \
       guard) reads the identity subject: the contract subscribes to \
       the cross-shard token stream beyond its auth guard.";
    Lint.rule ~code:"AN015" ~title:"cross-tenant interference"
      ~severity:Lint.Error
      "A contract subscribes to a model event whose URI carries no \
       tenant key: another tenant's traffic can change its verdict, so \
       per-tenant sharding would be unsound."
  ]

let full_catalogue = Cm_uml.Validate.catalogue @ catalogue

let err ?witness ~rule ~where msg =
  Lint.finding ?witness ~rule ~severity:Lint.Error ~where msg

let warn ~rule ~where msg =
  Lint.finding ~rule ~severity:Lint.Warning ~where msg

let guard_of (tr : BM.transition) =
  Option.value tr.guard ~default:(Ast.Bool_lit true)

let inv_of behavior name =
  match BM.find_state name behavior with
  | Some s -> s.BM.invariant
  | None -> Ast.Bool_lit true

let where_of_transition i (tr : BM.transition) =
  Fmt.str "transition #%d %s->%s on %a" i tr.source tr.target BM.pp_trigger
    tr.trigger

let where_of_row (e : Cm_rbac.Security_table.entry) =
  Fmt.str "security row %s %a %s" e.req_id Cm_http.Meth.pp e.meth e.resource

(* ---- AN001: unsatisfiable state invariants ---- *)

let unsat_invariants (input : input) =
  List.fold_left
    (fun (findings, bad) (s : BM.state) ->
      match Solver.satisfiable s.invariant with
      | Solver.Unsat ->
        ( err ~rule:"AN001" ~where:s.state_name
            "state invariant is unsatisfiable: no observable state can \
             inhabit this state"
          :: findings,
          s.state_name :: bad )
      | Solver.Sat _ | Solver.Unknown -> (findings, bad))
    ([], []) input.behavior.BM.states
  |> fun (fs, bad) -> (List.rev fs, bad)

(* ---- AN002: dead transitions ---- *)

let dead_transitions (input : input) ~bad_states =
  let findings = ref [] and dead = ref [] in
  List.iteri
    (fun i (tr : BM.transition) ->
      if not (List.mem tr.source bad_states) then begin
        let f = Ast.conj [ inv_of input.behavior tr.source; guard_of tr ] in
        match Solver.satisfiable f with
        | Solver.Unsat ->
          dead := i :: !dead;
          findings :=
            err ~rule:"AN002" ~where:(where_of_transition i tr)
              "transition can never fire: the source invariant and the \
               guard are jointly unsatisfiable"
            :: !findings
        | Solver.Sat _ | Solver.Unknown -> ()
      end
      else dead := i :: !dead)
    input.behavior.BM.transitions;
  (List.rev !findings, !dead)

(* ---- AN003: vacuous postconditions (tautological consequent) ---- *)

let vacuous_posts (input : input) =
  let findings = ref [] in
  List.iteri
    (fun i (tr : BM.transition) ->
      let consequent =
        Ast.conj
          (inv_of input.behavior tr.target
          :: (match tr.effect with Some e -> [ e ] | None -> []))
      in
      match Solver.never_false consequent with
      | Solver.Unsat ->
        findings :=
          err ~rule:"AN003" ~where:(where_of_transition i tr)
            "postcondition consequent (target invariant and effect) can \
             never evaluate to false: the transition's implication in \
             Post is vacuous"
          :: !findings
      | Solver.Sat _ | Solver.Unknown -> ())
    input.behavior.BM.transitions;
  List.rev !findings

(* ---- AN004: guard-overlap nondeterminism ---- *)

let same_outcome (a : BM.transition) (b : BM.transition) =
  String.equal a.target b.target
  &&
  match (a.effect, b.effect) with
  | None, None -> true
  | Some ea, Some eb -> Ast.equal ea eb
  | _ -> false

let guard_overlaps (input : input) ~bad_states =
  let findings = ref [] in
  let indexed =
    List.mapi (fun i tr -> (i, tr)) input.behavior.BM.transitions
  in
  let rec pairs = function
    | [] -> ()
    | (i, (a : BM.transition)) :: rest ->
      List.iter
        (fun (j, (b : BM.transition)) ->
          if
            String.equal a.source b.source
            && BM.trigger_equal a.trigger b.trigger
            && (not (same_outcome a b))
            && not (List.mem a.source bad_states)
          then begin
            let f =
              Ast.conj
                [ inv_of input.behavior a.source; guard_of a; guard_of b ]
            in
            match Solver.satisfiable f with
            | Solver.Sat env ->
              findings :=
                err ~rule:"AN004"
                  ~witness:(Solver.witness_summary env)
                  ~where:
                    (Fmt.str "transitions #%d and #%d from %s on %a" i j
                       a.source BM.pp_trigger a.trigger)
                  "guards overlap but the transitions disagree on target \
                   or effect: the generated postcondition is \
                   contradictory in the overlap"
                :: !findings
            | Solver.Unsat | Solver.Unknown -> ()
          end)
        rest;
      pairs rest
  in
  pairs indexed;
  List.rev !findings

(* ---- AN005/AN006/AN007/AN008: the RBAC coverage audit ---- *)

let rbac_audit (input : input) ~bad_states ~dead =
  match input.security with
  | None -> []
  | Some { Cm_contracts.Generate.table; assignment } ->
    let findings = ref [] in
    (* AN005: every trigger needs a row (fail-closed otherwise) *)
    List.iter
      (fun (t : BM.trigger) ->
        match
          Cm_rbac.Security_table.find ~resource:t.resource ~meth:t.meth table
        with
        | Some _ -> ()
        | None ->
          findings :=
            err ~rule:"AN005"
              ~where:(Fmt.str "trigger %a" BM.pp_trigger t)
              "no security-table row covers this trigger: the generated \
               contract is fail-closed and rejects every request"
            :: !findings)
      (BM.triggers input.behavior);
    (* AN006: every granted role must be assigned to some usergroup *)
    List.iter
      (fun (e : Cm_rbac.Security_table.entry) ->
        List.iter
          (fun role ->
            if Cm_rbac.Role_assignment.groups_of_role role assignment = []
            then
              findings :=
                err ~rule:"AN006" ~where:(where_of_row e)
                  (Printf.sprintf
                     "role %S has no usergroup assignment: no token can \
                      ever prove it"
                     role)
                :: !findings)
          e.roles)
      table;
    (* AN007: dangling rows *)
    let def_names =
      List.map
        (fun (r : RM.resource_def) -> String.lowercase_ascii r.def_name)
        input.resources.RM.resources
    in
    let exercised (e : Cm_rbac.Security_table.entry) =
      List.exists
        (fun (tr : BM.transition) ->
          Cm_http.Meth.equal tr.trigger.meth e.meth
          && String.equal
               (String.lowercase_ascii tr.trigger.resource)
               (String.lowercase_ascii e.resource))
        input.behavior.BM.transitions
    in
    List.iter
      (fun (e : Cm_rbac.Security_table.entry) ->
        if not (List.mem (String.lowercase_ascii e.resource) def_names) then
          findings :=
            warn ~rule:"AN007" ~where:(where_of_row e)
              (Printf.sprintf
                 "row references resource %S which the resource model \
                  does not define"
                 e.resource)
            :: !findings
        else if not (exercised e) then
          findings :=
            warn ~rule:"AN007" ~where:(where_of_row e)
              "no transition of the behavior model exercises this \
               (resource, method) pair"
            :: !findings)
      table;
    (* AN008: authorization makes a live transition unreachable *)
    List.iteri
      (fun i (tr : BM.transition) ->
        if (not (List.mem tr.source bad_states)) && not (List.mem i dead)
        then
          match
            Cm_rbac.Security_table.find ~resource:tr.trigger.resource
              ~meth:tr.trigger.meth table
          with
          | None -> ()
          | Some entry ->
            let auth =
              Cm_rbac.Security_table.auth_guard entry assignment
            in
            let functional =
              Ast.conj [ inv_of input.behavior tr.source; guard_of tr ]
            in
            (match Solver.satisfiable (Ast.conj [ functional; auth ]) with
             | Solver.Unsat ->
               findings :=
                 err ~rule:"AN008" ~where:(where_of_transition i tr)
                   "transition is functionally satisfiable but no \
                    authorized subject can exercise it once the \
                    authorization guard is conjoined"
                 :: !findings
             | Solver.Sat _ | Solver.Unknown -> ()))
      input.behavior.BM.transitions;
    List.rev !findings

(* ---- AN009: footprint blind spots ---- *)

let user_fields = [ "id"; "name"; "groups"; "roles"; "role" ]

let footprint_blind_spots (input : input) =
  match Cm_contracts.Generate.all ?security:input.security input.behavior with
  | Error _ -> []  (* generation problems are reported elsewhere *)
  | Ok contracts ->
    let observable =
      match Cm_uml.Paths.derive input.resources with
      | Error _ -> None  (* VAL003 covers underivable models *)
      | Ok entries ->
        (* [user] is bound from the validated token, [request] from the
           request body (observer.ml) — both observable without a path. *)
        Some
          ("user" :: "request"
          :: List.map
               (fun (e : Cm_uml.Paths.entry) ->
                 String.lowercase_ascii e.resource)
               entries)
    in
    let known_fields root =
      if String.equal root "user" then Some user_fields
      else
        List.find_opt
          (fun (r : RM.resource_def) ->
            String.equal (String.lowercase_ascii r.def_name) root)
          input.resources.RM.resources
        |> Option.map (fun (r : RM.resource_def) ->
               List.map (fun (a : RM.attribute) -> a.attr_name) r.attributes
               @ List.map
                   (fun (a : RM.association) -> a.role)
                   (RM.outgoing r.def_name input.resources))
    in
    let findings = ref [] in
    List.iter
      (fun (c : Cm_contracts.Contract.t) ->
        let where = Fmt.str "contract %a" BM.pp_trigger c.trigger in
        let fp = Footprint.of_exprs [ c.pre; c.post ] in
        List.iter
          (fun (root, fields) ->
            match observable with
            | None -> ()
            | Some roots ->
              if not (List.mem (String.lowercase_ascii root) roots) then
                findings :=
                  err ~rule:"AN009" ~where
                    (Printf.sprintf
                       "footprint reads %S which the observer never \
                        binds (not an addressable resource reachable \
                        from the root)"
                       root)
                  :: !findings
              else
                (match (fields, known_fields (String.lowercase_ascii root))
                 with
                 | Footprint.All, _ | _, None -> ()
                 | Footprint.Fields fs, Some known ->
                   List.iter
                     (fun f ->
                       if not (List.mem f known) then
                         findings :=
                           warn ~rule:"AN009" ~where
                             (Printf.sprintf
                                "footprint reads %s.%s which no \
                                 resource-model path produces"
                                root f)
                           :: !findings)
                     fs))
          fp)
      contracts;
    List.rev !findings

(* ---- the registry ---- *)

let analyze ?visibility (input : input) =
  let validate = Cm_uml.Validate.all input.resources [ input.behavior ] in
  let an001, bad_states = unsat_invariants input in
  let an002, dead = dead_transitions input ~bad_states in
  let an003 = vacuous_posts input in
  let an004 = guard_overlaps input ~bad_states in
  let rbac = rbac_audit input ~bad_states ~dead in
  let an009 = footprint_blind_spots input in
  let monitorability = Monitorability.findings ?visibility input in
  let interference = Interference.findings input in
  validate @ an001 @ an002 @ an003 @ an004 @ rbac @ an009 @ monitorability
  @ interference
