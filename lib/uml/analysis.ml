module BM = Behavior_model
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module Json = Cm_json.Json

type finding = { check : string; subject : string; detail : string }

let pp_finding ppf { check; subject; detail } =
  Fmt.pf ppf "[%s] %s: %s" check subject detail

let holds env expr = Eval.check env expr = Value.True

let describe_env env =
  let bindings = Eval.bindings env in
  let brief (name, json) =
    match json with
    | Json.Obj members ->
      let brief_member (k, v) =
        match v with
        | Json.List items -> Printf.sprintf "%s:#%d" k (List.length items)
        | Json.Int n -> Printf.sprintf "%s:%d" k n
        | Json.String s -> Printf.sprintf "%s:%s" k s
        | _ -> k
      in
      Printf.sprintf "%s{%s}" name
        (String.concat "," (List.map brief_member members))
    | _ -> name
  in
  String.concat " " (List.map brief bindings)

let exclusivity machine sample =
  let rec pairs = function
    | [] -> []
    | s :: rest -> List.map (fun s' -> (s, s')) rest @ pairs rest
  in
  List.concat_map
    (fun ((a : BM.state), (b : BM.state)) ->
      match
        List.find_opt
          (fun env -> holds env a.invariant && holds env b.invariant)
          sample
      with
      | Some env ->
        [ { check = "exclusivity";
            subject = a.state_name ^ " / " ^ b.state_name;
            detail =
              "both invariants hold in state " ^ describe_env env
          }
        ]
      | None -> [])
    (pairs machine.BM.states)

let coverage machine sample =
  List.filter_map
    (fun env ->
      if
        List.exists (fun (s : BM.state) -> holds env s.invariant) machine.BM.states
      then None
      else
        Some
          { check = "coverage";
            subject = "all states";
            detail = "no invariant holds in state " ^ describe_env env
          })
    sample

let guard_determinism machine sample =
  let full_pre (tr : BM.transition) =
    let invariant =
      match BM.find_state tr.source machine with
      | Some s -> s.BM.invariant
      | None -> Cm_ocl.Ast.Bool_lit false
    in
    match tr.guard with
    | Some guard -> Cm_ocl.Ast.Binop (Cm_ocl.Ast.And, invariant, guard)
    | None -> invariant
  in
  List.concat_map
    (fun trigger ->
      let transitions = BM.transitions_for trigger machine in
      List.filter_map
        (fun env ->
          let enabled =
            List.filter (fun tr -> holds env (full_pre tr)) transitions
          in
          match enabled with
          | [] | [ _ ] -> None
          | several ->
            (* Several enabled branches are fine when they agree on
               target and effect; flag genuine conflicts only. *)
            let signatures =
              List.map
                (fun (tr : BM.transition) -> (tr.target, tr.effect))
                several
              |> List.sort_uniq compare
            in
            if List.length signatures = 1 then None
            else
              Some
                { check = "determinism";
                  subject = Fmt.str "%a" BM.pp_trigger trigger;
                  detail =
                    Printf.sprintf
                      "%d conflicting transitions enabled in state %s"
                      (List.length several) (describe_env env)
                })
        sample)
    (BM.triggers machine)

let vacuity machine ~pre_states ~post_states =
  List.concat_map
    (fun (tr : BM.transition) ->
      let pre_ok =
        let invariant =
          match BM.find_state tr.source machine with
          | Some s -> s.BM.invariant
          | None -> Cm_ocl.Ast.Bool_lit false
        in
        let pre_expr =
          match tr.guard with
          | Some g -> Cm_ocl.Ast.Binop (Cm_ocl.Ast.And, invariant, g)
          | None -> invariant
        in
        List.filter (fun env -> holds env pre_expr) pre_states
      in
      if pre_ok = [] then
        [ { check = "vacuity";
            subject =
              Fmt.str "%s->%s on %a" tr.source tr.target BM.pp_trigger
                tr.trigger;
            detail = "no sampled state enables this transition"
          }
        ]
      else begin
        let post_expr =
          let invariant =
            match BM.find_state tr.target machine with
            | Some s -> s.BM.invariant
            | None -> Cm_ocl.Ast.Bool_lit false
          in
          match tr.effect with
          | Some e -> Cm_ocl.Ast.Binop (Cm_ocl.Ast.And, invariant, e)
          | None -> invariant
        in
        let witnessed =
          List.exists
            (fun pre_env ->
              List.exists
                (fun post_env ->
                  Eval.check
                    (Eval.with_pre ~pre:pre_env post_env)
                    post_expr
                  = Value.True)
                post_states)
            pre_ok
        in
        if witnessed then []
        else
          [ { check = "vacuity";
              subject =
                Fmt.str "%s->%s on %a" tr.source tr.target BM.pp_trigger
                  tr.trigger;
              detail =
                "no sampled (pre, post) state pair satisfies the \
                 postcondition"
            }
          ]
      end)
    machine.BM.transitions

let analyze machine sample =
  exclusivity machine sample
  @ coverage machine sample
  @ guard_determinism machine sample
  @ vacuity machine ~pre_states:sample ~post_states:sample

let cinder_sample () =
  let volume i status =
    Json.obj
      [ ("id", Json.string (Printf.sprintf "vol-%d" i));
        ("name", Json.string (Printf.sprintf "v%d" i));
        ("status", Json.string status);
        ("size", Json.int 10)
      ]
  in
  let groups = [ "proj_administrator"; "service_architect"; "business_analyst" ] in
  (* the same enriched user binding the monitor's observer produces *)
  let user_json group =
    Cm_rbac.Role_assignment.enrich
      (Cm_rbac.Subject.make "sample-user" [ group ])
      Cm_rbac.Security_table.cinder_assignment
  in
  let states = ref [] in
  for quota = 1 to 4 do
    for n = 0 to quota do
      (* two status mixes: all available, and (if any) first in-use *)
      let mixes =
        if n = 0 then [ [] ]
        else
          [ List.init n (fun i -> volume i "available");
            volume 0 "in-use" :: List.init (n - 1) (fun i -> volume (i + 1) "available")
          ]
      in
      List.iter
        (fun volumes ->
          List.iter
            (fun group ->
              let env =
                Eval.env_of_bindings
                  [ ( "project",
                      Json.obj
                        [ ("id", Json.string "p");
                          ("name", Json.string "p");
                          ("volumes", Json.list volumes)
                        ] );
                    ( "quota_sets",
                      Json.obj
                        [ ("id", Json.string "p");
                          ("volumes", Json.int quota);
                          ("gigabytes", Json.int 100)
                        ] );
                    ( "volume",
                      match volumes with
                      | first :: _ -> first
                      | [] -> Json.obj [] );
                    ("user", user_json group)
                  ]
              in
              states := env :: !states)
            groups)
        mixes
    done
  done;
  List.rev !states
