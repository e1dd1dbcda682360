(* Tests for contract generation (§V / Listing 1), snapshots and the
   contract-checking runtime. *)

module Ast = Cm_ocl.Ast
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module Simplify = Cm_ocl.Simplify
module Contract = Cm_contracts.Contract
module Generate = Cm_contracts.Generate
module Snapshot = Cm_contracts.Snapshot
module Runtime = Cm_contracts.Runtime
module BM = Cm_uml.Behavior_model
module Cinder = Cm_uml.Cinder_model
module Meth = Cm_http.Meth
module Json = Cm_json.Json

let security =
  { Generate.table = Cm_rbac.Security_table.cinder;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let delete_trigger = { BM.meth = Meth.DELETE; resource = "volume" }

let delete_contract =
  match Generate.contract_for ~security Cinder.behavior delete_trigger with
  | Ok c -> c
  | Error msg -> failwith msg

let ocl = Cm_ocl.Ocl_parser.parse_exn

let listing1_tests =
  [ Alcotest.test_case "DELETE pre has three disjuncts" `Quick (fun () ->
        Alcotest.(check int) "3 branches" 3
          (List.length delete_contract.Contract.branches);
        Alcotest.(check int) "3 disjuncts" 3
          (List.length (Simplify.disjuncts delete_contract.Contract.pre)));
    Alcotest.test_case "DELETE post is three implications" `Quick (fun () ->
        let conjuncts = Simplify.conjuncts delete_contract.Contract.post in
        Alcotest.(check int) "3 implications" 3 (List.length conjuncts);
        List.iter
          (fun c ->
            match c with
            | Ast.Binop (Ast.Implies, Ast.At_pre _, _) -> ()
            | other ->
              Alcotest.failf "not `pre(...) implies ...': %s"
                (Cm_ocl.Pretty.to_string other))
          conjuncts);
    Alcotest.test_case "post mentions pre(project.volumes->size())" `Quick
      (fun () ->
        Alcotest.(check bool) "has pre()" true
          (Ast.has_pre delete_contract.Contract.post);
        let slots = Ast.pre_subexprs delete_contract.Contract.post in
        Alcotest.(check bool) "size() snapshotted" true
          (List.exists
             (Ast.equal (ocl "project.volumes->size()"))
             slots));
    Alcotest.test_case "each branch pre conjoins invariant, guard, auth" `Quick
      (fun () ->
        List.iter
          (fun (b : Contract.branch) ->
            let atoms = Simplify.conjuncts b.branch_pre in
            (* invariant atom *)
            Alcotest.(check bool) "project.id->size() = 1" true
              (List.exists (Ast.equal (ocl "project.id->size() = 1")) atoms);
            (* guard atom *)
            Alcotest.(check bool) "volume.status <> 'in-use'" true
              (List.exists (Ast.equal (ocl "volume.status <> 'in-use'")) atoms);
            (* auth atom: DELETE is admin-only = proj_administrator group *)
            Alcotest.(check bool) "auth" true
              (List.exists
                 (Ast.equal (ocl "user.groups->includes('proj_administrator')"))
                 atoms))
          delete_contract.Contract.branches);
    Alcotest.test_case "requirements traced" `Quick (fun () ->
        Alcotest.(check (list string)) "1.4" [ "1.4" ]
          delete_contract.Contract.requirements);
    Alcotest.test_case "auth guard separated" `Quick (fun () ->
        match delete_contract.Contract.auth_guard with
        | Some guard ->
          Alcotest.(check string) "admin group only"
            "user.groups->includes('proj_administrator')"
            (Cm_ocl.Pretty.to_string guard)
        | None -> Alcotest.fail "no auth guard");
    Alcotest.test_case "functional pre has no user atoms" `Quick (fun () ->
        Alcotest.(check bool) "no user" true
          (not (List.mem "user" (Ast.free_vars delete_contract.Contract.functional_pre))));
    Alcotest.test_case "contracts typecheck against the resource model" `Quick
      (fun () ->
        match Generate.all ~security Cinder.behavior with
        | Error msg -> Alcotest.fail msg
        | Ok contracts ->
          List.iter
            (fun c ->
              match Generate.typecheck Cinder.resources c with
              | [] -> ()
              | errs ->
                Alcotest.failf "%a: %a" BM.pp_trigger c.Contract.trigger
                  Fmt.(list ~sep:(any "; ") Cm_ocl.Typecheck.pp_error)
                  errs)
            contracts);
    Alcotest.test_case "one contract per distinct trigger" `Quick (fun () ->
        match Generate.all ~security Cinder.behavior with
        | Error msg -> Alcotest.fail msg
        | Ok contracts ->
          Alcotest.(check int) "five" 5 (List.length contracts));
    Alcotest.test_case "unknown trigger is an error" `Quick (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error
             (Generate.contract_for Cinder.behavior
                { BM.meth = Meth.PATCH; resource = "volume" })));
    Alcotest.test_case "no security entry means false guard (fail closed)"
      `Quick (fun () ->
        (* PUT on Volumes collection is not in the table; wire a machine
           that uses it. *)
        let machine =
          { Cinder.behavior with
            BM.transitions =
              [ BM.transition ~source:Cinder.s_no_volume
                  ~target:Cinder.s_no_volume Meth.PUT "Volumes"
              ]
          }
        in
        match
          Generate.contract_for ~security machine
            { BM.meth = Meth.PUT; resource = "Volumes" }
        with
        | Error msg -> Alcotest.fail msg
        | Ok c ->
          Alcotest.(check bool) "pre is false" true
            (Ast.equal c.Contract.pre (Ast.Bool_lit false)))
  ]

(* ---- snapshots ---- *)

let volume_json status =
  Json.obj [ ("id", Json.string "v1"); ("status", Json.string status) ]

let env_with n quota =
  Eval.env_of_bindings
    [ ( "project",
        Json.obj
          [ ("id", Json.string "p");
            ("volumes", Json.list (List.init n (fun _ -> volume_json "available")))
          ] );
      ("quota_sets", Json.obj [ ("volumes", Json.int quota) ]);
      ("volume", volume_json "available");
      ( "user",
        Json.obj [ ("groups", Json.list [ Json.string "proj_administrator" ]) ]
      )
    ]

let snapshot_tests =
  [ Alcotest.test_case "compile shares identical slots" `Quick (fun () ->
        let post =
          ocl
            "project.volumes->size() = pre(project.volumes->size()) - 1 and \
             pre(project.volumes->size()) >= 1"
        in
        let compiled = Snapshot.compile post in
        Alcotest.(check int) "one slot" 1 (List.length compiled.Snapshot.slots);
        Alcotest.(check bool) "rewritten has no pre" true
          (not (Ast.has_pre compiled.Snapshot.rewritten_post)));
    Alcotest.test_case "lean check equals full check (delete case)" `Quick
      (fun () ->
        let pre_env = env_with 2 3 in
        let post_env = env_with 1 3 in
        let compiled = Snapshot.compile delete_contract.Contract.post in
        let taken = Snapshot.take compiled pre_env in
        let lean = Snapshot.check_post_lean compiled taken post_env in
        let full =
          Snapshot.check_post_full delete_contract.Contract.post ~pre:pre_env
            post_env
        in
        Alcotest.(check bool) "agree" true (lean = full);
        Alcotest.(check bool) "holds" true (lean = Value.True));
    Alcotest.test_case "lean snapshot is tiny, full is the world" `Quick
      (fun () ->
        let pre_env = env_with 3 3 in
        let compiled = Snapshot.compile delete_contract.Contract.post in
        let taken = Snapshot.take compiled pre_env in
        let lean_bytes = Snapshot.size_bytes taken in
        let full_bytes = Snapshot.full_size_bytes pre_env in
        Alcotest.(check bool) "lean nonzero" true (lean_bytes > 0);
        Alcotest.(check bool)
          (Printf.sprintf "lean (%d) < full (%d) / 4" lean_bytes full_bytes)
          true
          (lean_bytes * 4 < full_bytes));
    Alcotest.test_case "violation detected when nothing was deleted" `Quick
      (fun () ->
        let pre_env = env_with 2 3 in
        let post_env = env_with 2 3 (* unchanged! *) in
        let compiled = Snapshot.compile delete_contract.Contract.post in
        let taken = Snapshot.take compiled pre_env in
        Alcotest.(check bool) "violated" true
          (Snapshot.check_post_lean compiled taken post_env = Value.False))
  ]

(* ---- runtime ---- *)

let runtime_tests =
  [ Alcotest.test_case "check_pre verdicts" `Quick (fun () ->
        let prepared = Runtime.prepare delete_contract in
        Alcotest.(check bool) "holds with 2 volumes" true
          (Runtime.check_pre prepared (env_with 2 3) = Eval.Holds);
        Alcotest.(check bool) "violated with 0 volumes" true
          (Runtime.check_pre prepared (env_with 0 3) = Eval.Violated));
    Alcotest.test_case "covered requirements from active branches" `Quick
      (fun () ->
        let prepared = Runtime.prepare delete_contract in
        Alcotest.(check (list string)) "1.4" [ "1.4" ]
          (Runtime.covered_requirements prepared (env_with 2 3));
        Alcotest.(check (list string)) "none when pre fails" []
          (Runtime.covered_requirements prepared (env_with 0 3)));
    Alcotest.test_case "lean and full strategies agree on verdicts" `Quick
      (fun () ->
        (* the runtime snapshots only the values under pre(); the
           semantic reference attaches the whole pre-state *)
        let tri = function
          | Eval.Holds -> Value.True
          | Eval.Violated -> Value.False
          | Eval.Undefined_verdict _ -> Value.Unknown
        in
        let states =
          List.concat_map (fun n -> List.map (fun q -> env_with n q) [ 1; 2; 3; 4 ])
            [ 0; 1; 2; 3; 4 ]
        in
        let p = Runtime.prepare delete_contract in
        List.iter
          (fun pre_env ->
            let snapshot = Runtime.take_snapshot p pre_env in
            List.iter
              (fun post_env ->
                Alcotest.(check bool) "agree" true
                  (tri (Runtime.check_post p snapshot post_env)
                  = Snapshot.check_post_full delete_contract.Contract.post
                      ~pre:pre_env post_env))
              states)
          states;
        Alcotest.(check bool) "holds" true
          (Runtime.check_post p (Runtime.take_snapshot p (env_with 3 3))
             (env_with 2 3)
          = Eval.Holds))
  ]

(* property: lean and full postcondition checking agree on all contracts
   and state pairs *)
let gen_state = QCheck2.Gen.(pair (int_range 0 4) (int_range 1 4))

let all_contracts =
  match Generate.all ~security Cinder.behavior with
  | Ok cs -> cs
  | Error msg -> failwith msg

let prop_lean_full_agree =
  QCheck2.Test.make ~count:300 ~name:"lean = full snapshot verdicts"
    QCheck2.Gen.(
      triple (int_range 0 (List.length all_contracts - 1)) gen_state gen_state)
    (fun (i, (n1, q1), (n2, q2)) ->
      let contract = List.nth all_contracts i in
      let pre_env = env_with n1 q1 in
      let post_env = env_with n2 q2 in
      let compiled = Snapshot.compile contract.Contract.post in
      let taken = Snapshot.take compiled pre_env in
      Snapshot.check_post_lean compiled taken post_env
      = Snapshot.check_post_full contract.Contract.post ~pre:pre_env post_env)

(* property: the combined pre equals the disjunction of branch pres *)
let prop_pre_is_branch_disjunction =
  QCheck2.Test.make ~count:300 ~name:"pre = disjunction of branch pres"
    QCheck2.Gen.(
      pair (int_range 0 (List.length all_contracts - 1)) gen_state)
    (fun (i, (n, q)) ->
      let contract = List.nth all_contracts i in
      let env = env_with n q in
      let combined = Eval.check env contract.Contract.pre in
      let branches =
        List.fold_left
          (fun acc (b : Contract.branch) ->
            Value.tri_or acc (Eval.check env b.branch_pre))
          Value.False contract.Contract.branches
      in
      combined = branches)

(* ---- release evolution ---- *)

module Evolution = Cm_contracts.Evolution

let sample = Cm_uml.Analysis.cinder_sample ()
let table = Cm_rbac.Security_table.cinder
let assignment = Cm_rbac.Security_table.cinder_assignment
let version machine tbl = (machine, tbl, assignment)

let evolution_tests =
  [ Alcotest.test_case "identical releases show no drift" `Quick (fun () ->
        match
          Evolution.compare
            ~old_version:(version Cinder.behavior table)
            ~new_version:(version Cinder.behavior table)
            ~sample
        with
        | Error msg -> Alcotest.fail msg
        | Ok report ->
          Alcotest.(check int) "no changes" 0 (List.length report.Evolution.changes));
    Alcotest.test_case "opening DELETE to members is flagged as security drift"
      `Quick (fun () ->
        let new_table =
          List.map
            (fun (e : Cm_rbac.Security_table.entry) ->
              if e.meth = Meth.DELETE then
                { e with Cm_rbac.Security_table.roles = [ "admin"; "member" ] }
              else e)
            table
        in
        match
          Evolution.compare
            ~old_version:(version Cinder.behavior table)
            ~new_version:(version Cinder.behavior new_table)
            ~sample
        with
        | Error msg -> Alcotest.fail msg
        | Ok report ->
          Alcotest.(check bool) "auth change found" true
            (List.exists
               (function
                 | Evolution.Authorization_changed
                     (_, { roles_gained = [ "member" ]; roles_lost = [] }) ->
                   true
                 | _ -> false)
               report.Evolution.changes);
          Alcotest.(check bool) "security relevant" true
            (report.Evolution.security_relevant <> []);
          Alcotest.(check bool) "render flags SECURITY" true
            (Astring_contains.contains (Evolution.render report) "[SECURITY]"));
    Alcotest.test_case "dropping the in-use guard weakens the precondition"
      `Quick (fun () ->
        let new_machine =
          { Cinder.behavior with
            BM.transitions =
              List.map
                (fun (tr : BM.transition) ->
                  if tr.trigger.meth = Meth.DELETE then { tr with guard = None }
                  else tr)
                Cinder.behavior.BM.transitions
          }
        in
        match
          Evolution.compare
            ~old_version:(version Cinder.behavior table)
            ~new_version:(version new_machine table)
            ~sample
        with
        | Error msg -> Alcotest.fail msg
        | Ok report ->
          (match
             List.find_opt
               (function
                 | Evolution.Precondition_changed
                     ({ BM.meth = Meth.DELETE; _ }, _) -> true
                 | _ -> false)
               report.Evolution.changes
           with
           | Some (Evolution.Precondition_changed (_, change)) ->
             Alcotest.(check bool) "weakened somewhere" true
               (change.Evolution.weakened_on > 0);
             Alcotest.(check int) "not strengthened" 0
               change.Evolution.strengthened_on
           | _ -> Alcotest.fail "no precondition change reported");
          Alcotest.(check bool) "weakening is security relevant" true
            (report.Evolution.security_relevant <> []));
    Alcotest.test_case "removed and added triggers" `Quick (fun () ->
        let without_delete =
          Cm_uml.Slice.behavior
            (Cm_uml.Slice.Union
               [ Cm_uml.Slice.By_methods [ Meth.GET; Meth.POST; Meth.PUT ] ])
            Cinder.behavior
        in
        match
          Evolution.compare
            ~old_version:(version Cinder.behavior table)
            ~new_version:(version without_delete table)
            ~sample
        with
        | Error msg -> Alcotest.fail msg
        | Ok report ->
          Alcotest.(check bool) "removal flagged" true
            (List.exists
               (function
                 | Evolution.Trigger_removed { BM.meth = Meth.DELETE; _ } ->
                   true
                 | _ -> false)
               report.Evolution.changes));
    Alcotest.test_case "changed effect is postcondition drift, not security"
      `Quick (fun () ->
        let new_machine =
          { Cinder.behavior with
            BM.transitions =
              List.map
                (fun (tr : BM.transition) ->
                  if
                    tr.trigger.meth = Meth.GET
                    && tr.trigger.resource = "Volumes"
                  then
                    { tr with
                      effect =
                        Some (ocl "project.volumes->size() >= 0")
                    }
                  else tr)
                Cinder.behavior.BM.transitions
          }
        in
        match
          Evolution.compare
            ~old_version:(version Cinder.behavior table)
            ~new_version:(version new_machine table)
            ~sample
        with
        | Error msg -> Alcotest.fail msg
        | Ok report ->
          Alcotest.(check bool) "post drift reported" true
            (List.exists
               (function
                 | Evolution.Postcondition_changed (_, _) -> true
                 | _ -> false)
               report.Evolution.changes);
          Alcotest.(check bool) "not security relevant" true
            (List.for_all
               (function
                 | Evolution.Postcondition_changed (_, _) -> false
                 | _ -> true)
               report.Evolution.security_relevant))
  ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lean_full_agree; prop_pre_is_branch_disjunction ]

let () =
  Alcotest.run "cm_contracts"
    [ ("listing1", listing1_tests);
      ("snapshot", snapshot_tests);
      ("runtime", runtime_tests);
      ("evolution", evolution_tests);
      ("properties", properties)
    ]
