(* Differential tests for the staged compiler (Cm_ocl.Compile): on every
   generated Cinder and Glance contract, the compiled closures must
   produce the same values and verdicts as the tree-walking interpreter
   (Cm_ocl.Eval) — including in states with missing bindings, wrongly
   typed documents and Undef-producing subexpressions, and with nested
   [pre(...)] under an attached pre-state. *)

module Ast = Cm_ocl.Ast
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module Compile = Cm_ocl.Compile
module Contract = Cm_contracts.Contract
module Generate = Cm_contracts.Generate
module Runtime = Cm_contracts.Runtime
module BM = Cm_uml.Behavior_model
module Json = Cm_json.Json

let ocl = Cm_ocl.Ocl_parser.parse_exn

let cinder_security =
  { Generate.table = Cm_rbac.Security_table.cinder;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let glance_security =
  { Generate.table = Cm_rbac.Security_table.glance;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let contracts_of label security behavior =
  match Generate.all ~security behavior with
  | Ok cs -> cs
  | Error msg -> Alcotest.failf "%s contract generation failed: %s" label msg

let cinder_contracts =
  contracts_of "cinder" cinder_security Cm_uml.Cinder_model.behavior

let glance_contracts =
  contracts_of "glance" glance_security Cm_uml.Glance_model.behavior

let all_contracts =
  List.map (fun c -> ("cinder", c)) cinder_contracts
  @ List.map (fun c -> ("glance", c)) glance_contracts

(* ---- the environment grid ---- *)

let item i status =
  Json.obj
    [ ("id", Json.string (Printf.sprintf "id-%d" i));
      ("name", Json.string "thing");
      ("status", Json.string status);
      ("visibility", Json.string (if i mod 2 = 0 then "private" else "public"));
      ("size", Json.int (i mod 4))
    ]

let statuses = [| "available"; "in-use"; "error"; "queued"; "active" |]

let listing n =
  Json.list (List.init n (fun i -> item i statuses.(i mod Array.length statuses)))

let container i =
  Json.obj
    [ ("id", Json.string "p");
      ("volumes", listing (i mod 4));
      ("images", listing ((i + 1) mod 4));
      ("snapshots", listing (i mod 2));
      ("backups", listing (i mod 3))
    ]

let subject i =
  let groups =
    match i mod 3 with
    | 0 -> [ "proj_administrator" ]
    | 1 -> [ "proj_member"; "other" ]
    | _ -> []
  in
  Json.obj
    [ ("name", Json.string "alice");
      ("groups", Json.list (List.map Json.string groups));
      ("roles", Json.list (List.map Json.string groups));
      ("role", Json.string (match groups with g :: _ -> g | [] -> ""));
      ("id", Json.obj [ ("groups", Json.string (match groups with g :: _ -> g | [] -> "")) ])
    ]

let quota i =
  Json.obj
    [ ("id", Json.string "p");
      ("volumes", Json.int (i mod 4));
      ("images", Json.int (i mod 4))
    ]

(* Candidate documents for one variable: plausible states of varying
   fullness, then degenerate ones (empty object, null, wrong type) that
   drive navigations and comparisons to Undef. *)
let candidates var =
  let valid i =
    match var with
    | "project" -> container i
    | "user" -> subject i
    | "quota_sets" -> quota i
    | _ -> item i statuses.(i mod Array.length statuses)
  in
  [ Some (valid 0); Some (valid 1); Some (valid 2); Some (valid 3);
    Some (Json.obj []); Some Json.Null; Some (Json.int 7);
    None  (* unbound: Eval.lookup yields Undef *)
  ]

(* Deterministic sampling: seed [s] assigns variable [k] its candidate
   [(s + 3k) mod n], so consecutive seeds move every variable through
   valid, degenerate and missing states in different combinations. *)
let env_for_seed vars s =
  Eval.env_of_bindings
    (List.concat
       (List.mapi
          (fun k var ->
            let cands = candidates var in
            match List.nth cands ((s + (3 * k)) mod List.length cands) with
            | Some doc -> [ (var, doc) ]
            | None -> [])
          vars))

let seeds = List.init 16 (fun s -> s)

let contract_vars (c : Contract.t) =
  let exprs =
    (c.Contract.pre :: c.Contract.functional_pre :: c.Contract.post
     :: Option.to_list c.Contract.auth_guard)
    @ List.map (fun (b : Contract.branch) -> b.Contract.branch_pre)
        c.Contract.branches
  in
  List.sort_uniq String.compare (List.concat_map Ast.free_vars exprs)

let grid c = List.map (env_for_seed (contract_vars c)) seeds

(* ---- expression-level agreement ---- *)

(* One shared plan per family, frames built only after all compiles —
   the discipline Compile documents. *)
let agree_on ?pre label env expr =
  let plan = Compile.plan () in
  let staged = Compile.compile plan expr in
  let staged_raw = Compile.compile_raw plan expr in
  let ienv =
    match pre with Some p -> Eval.with_pre ~pre:p env | None -> env
  in
  let frame =
    let fr = Compile.frame_of_env plan env in
    match pre with
    | Some p -> Compile.with_pre ~pre:(Compile.frame_of_env plan p) fr
    | None -> fr
  in
  let expected = Eval.eval ienv expr in
  let got = Compile.eval staged frame in
  let got_raw = Compile.eval staged_raw frame in
  if got <> expected then
    Alcotest.failf "%s: compiled %a <> interpreted %a on %s" label Value.pp got
      Value.pp expected
      (Cm_ocl.Pretty.to_string expr);
  if got_raw <> expected then
    Alcotest.failf "%s: raw-compiled %a <> interpreted %a on %s" label
      Value.pp got_raw Value.pp expected
      (Cm_ocl.Pretty.to_string expr);
  if not (Eval.verdict_equal (Eval.verdict ienv expr) (Compile.verdict staged frame))
  then
    Alcotest.failf "%s: verdict mismatch on %s" label
      (Cm_ocl.Pretty.to_string expr)

let contract_exprs (c : Contract.t) =
  [ ("pre", c.Contract.pre);
    ("functional_pre", c.Contract.functional_pre);
    ("post", c.Contract.post)
  ]
  @ (match c.Contract.auth_guard with
     | Some g -> [ ("auth_guard", g) ]
     | None -> [])
  @ List.mapi
      (fun i (b : Contract.branch) ->
        (Printf.sprintf "branch-%d" i, b.Contract.branch_pre))
      c.Contract.branches

let expr_differential_tests =
  List.map
    (fun (service, (c : Contract.t)) ->
      let name =
        Fmt.str "%s %a: compiled = interpreted on the state grid" service
          BM.pp_trigger c.Contract.trigger
      in
      Alcotest.test_case name `Quick (fun () ->
          let envs = grid c in
          List.iteri
            (fun i env ->
              let pre_env = List.nth envs ((i + 5) mod List.length envs) in
              List.iter
                (fun (part, expr) ->
                  let label = Fmt.str "%s/%s/seed-%d" service part i in
                  (* no pre-state attached: pre(...) is Undef on both *)
                  agree_on label env expr;
                  (* with a pre-state from a different grid point *)
                  agree_on ~pre:pre_env label env expr)
                (contract_exprs c))
            envs))
    all_contracts

(* ---- handwritten corners: nested pre, iterators, Undef arithmetic ---- *)

let corner_exprs =
  [ "pre(project.volumes->size()) = project.volumes->size()";
    "pre(pre(project.volumes->size())) >= 0";
    "pre(project.volumes->size() + 1) > project.volumes->size()";
    "project.volumes->select(v | v.status = 'available')->size() >= 0";
    "project.volumes->forAll(v | v.size > 0)";
    "project.volumes->exists(v | v.status = volume.status)";
    "project.volumes->reject(v | v.status = 'error')->size() \
     <= project.volumes->size()";
    "project.volumes->collect(v | v.status)->includes('in-use')";
    "project.volumes->one(v | v.status = 'in-use')";
    "project.volumes->any(v | v.size > 1).status = 'in-use'";
    "project.volumes->isUnique(v | v.id)";
    "user.groups->includes('proj_administrator') or \
     user.groups->includes('proj_member')";
    "quota_sets.volumes > project.volumes->size()";
    "volume.status <> 'in-use' and volume.status <> 'error'";
    "volume.size + quota_sets.volumes >= 0";
    "not (volume.status = 'error') implies volume.size >= 0";
    "volume.missing_member = 1";
    "volume.missing_member->size() = 0"
  ]

let corner_tests =
  [ Alcotest.test_case "handwritten corners across the grid" `Quick (fun () ->
        let vars = [ "project"; "user"; "quota_sets"; "volume" ] in
        List.iter
          (fun text ->
            let expr = ocl text in
            List.iter
              (fun s ->
                let env = env_for_seed vars s in
                let pre_env = env_for_seed vars (s + 7) in
                agree_on (Fmt.str "corner/seed-%d" s) env expr;
                agree_on ~pre:pre_env (Fmt.str "corner+pre/seed-%d" s) env
                  expr)
              seeds)
          corner_exprs)
  ]

(* ---- runtime-level agreement: Runtime vs the interpreter ----

   Each check of the staged, memoizing runtime against the direct
   interpreter call it stands for. *)

let verdict_t = Alcotest.testable Eval.pp_verdict Eval.verdict_equal

let runtime_differential_tests =
  List.map
    (fun (service, (c : Contract.t)) ->
      let name =
        Fmt.str "%s %a: Runtime agrees with Eval" service BM.pp_trigger
          c.Contract.trigger
      in
      Alcotest.test_case name `Quick (fun () ->
          let envs = grid c in
          let compiled = Cm_contracts.Snapshot.compile c.Contract.post in
          let pc = Runtime.prepare c in
          List.iteri
            (fun i pre_env ->
              let post_env = List.nth envs ((i + 1) mod List.length envs) in
              Alcotest.check verdict_t
                (Fmt.str "check_pre/seed-%d" i)
                (Eval.verdict pre_env c.Contract.pre)
                (Runtime.check_pre pc pre_env);
              Alcotest.(check (list string))
                (Fmt.str "covered/seed-%d" i)
                (Contract.covered_requirements c pre_env)
                (Runtime.covered_requirements pc pre_env);
              let si = Cm_contracts.Snapshot.take compiled pre_env in
              let sc = Runtime.take_snapshot pc pre_env in
              Alcotest.check verdict_t
                (Fmt.str "check_post/seed-%d" i)
                (Cm_contracts.Snapshot.post_verdict
                   (Cm_contracts.Snapshot.check_post_lean compiled si post_env))
                (Runtime.check_post pc sc post_env))
            envs))
    all_contracts

(* ---- exhaustive Kleene connectives ----

   The compiler stages [and]/[or]/[implies] through short-circuiting
   closures with separate constant-folded paths, so a drift from the
   Kleene truth tables would be silent on happy-path contracts.  Cover
   the full operand grid: each of the three truth values both as a
   compile-time constant (literal) and as a runtime value (variable
   binding — including an unbound variable for Unknown). *)

let tribool = Alcotest.testable Value.pp_tribool ( = )

let kleene_env =
  Eval.env_of_bindings [ ("t", Json.bool true); ("f", Json.bool false) ]

(* label, expression, its truth value *)
let kleene_operands =
  [ ("const-true", Ast.Bool_lit true, Value.True);
    ("const-false", Ast.Bool_lit false, Value.False);
    ("const-unknown", Ast.Null_lit, Value.Unknown);
    ("dyn-true", Ast.Var "t", Value.True);
    ("dyn-false", Ast.Var "f", Value.False);
    ("dyn-unknown", Ast.Var "u", Value.Unknown)
  ]

let check_kleene label expr expected =
  Alcotest.check tribool (label ^ " interpreted") expected
    (Eval.check kleene_env expr);
  let plan = Compile.plan () in
  let staged = Compile.compile plan expr in
  let staged_raw = Compile.compile_raw plan expr in
  let frame = Compile.frame_of_env plan kleene_env in
  Alcotest.check tribool (label ^ " compiled") expected
    (Compile.check staged frame);
  Alcotest.check tribool (label ^ " raw-compiled") expected
    (Compile.check staged_raw frame)

let kleene_tests =
  let connectives =
    [ ("and", Ast.And, Value.tri_and);
      ("or", Ast.Or, Value.tri_or);
      ("implies", Ast.Implies, Value.tri_implies);
      ("xor", Ast.Xor, Value.tri_xor)
    ]
  in
  List.map
    (fun (name, op, reference) ->
      Alcotest.test_case (name ^ ": full 6x6 operand grid") `Quick (fun () ->
          List.iter
            (fun (la, ea, ta) ->
              List.iter
                (fun (lb, eb, tb) ->
                  check_kleene
                    (Printf.sprintf "%s %s %s" la name lb)
                    (Ast.Binop (op, ea, eb))
                    (reference ta tb))
                kleene_operands)
            kleene_operands))
    connectives
  @ [ Alcotest.test_case "not: all 6 operands" `Quick (fun () ->
          List.iter
            (fun (l, e, t) ->
              check_kleene ("not " ^ l)
                (Ast.Unop (Ast.Not, e))
                (Value.tri_not t))
            kleene_operands)
    ]

let () =
  Alcotest.run "cm_compile"
    [ ("expr-differential", expr_differential_tests);
      ("corners", corner_tests);
      ("runtime-differential", runtime_differential_tests);
      ("kleene-connectives", kleene_tests)
    ]
