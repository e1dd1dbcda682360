module Ast = Cm_ocl.Ast
module Ty = Cm_ocl.Ty
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module Compile = Cm_ocl.Compile
module Pretty = Cm_ocl.Pretty
module Typecheck = Cm_ocl.Typecheck
module Contract = Cm_contracts.Contract
module Generate = Cm_contracts.Generate
module BM = Cm_uml.Behavior_model
module Meth = Cm_http.Meth
module Security_table = Cm_rbac.Security_table
module Role_assignment = Cm_rbac.Role_assignment
module Subject = Cm_rbac.Subject
module Mutant = Cm_mutation.Mutant
module Scenario = Cm_mutation.Scenario
module Monitor = Cm_monitor.Monitor
module Reference = Cm_monitor.Reference
module Obs_cache = Cm_monitor.Obs_cache
module Outcome = Cm_monitor.Outcome
module Jmonitor = Cm_journal.Jmonitor
module Workload = Cm_workload.Workload

type failure = {
  oracle : string;
  index : int;
  repr : string;
  detail : string;
  shrink_steps : int;
  entry : Corpus.entry;
}

type verdict = Pass | Fail of failure

type t = {
  name : string;
  weight : int;
  run_case : shrink:bool -> seed:int -> index:int -> size:int -> verdict;
  replay : Corpus.entry -> (unit, string) result;
}

(* Streams: every case splits its stream into independent substreams up
   front, so shrinking one component (say, the expression) re-evaluates
   the property against the *same* environments that exposed the
   failure. *)
let case_streams ~seed index =
  let rng = Rng.case ~seed index in
  let a = Rng.split rng in
  let b = Rng.split rng in
  (a, b)

(* ---- engine conformance ---- *)

(* The same discipline as test_compile.agree_on: one plan, compile both
   pipelines, then build frames. *)
let check_expr_on expr (env, pre) =
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
    Some (Fmt.str "compiled %a <> interpreted %a" Value.pp got Value.pp expected)
  else if got_raw <> expected then
    Some
      (Fmt.str "raw-compiled %a <> interpreted %a" Value.pp got_raw Value.pp
         expected)
  else if
    not
      (Eval.verdict_equal (Eval.verdict ienv expr)
         (Compile.verdict staged frame))
  then Some "verdict mismatch"
  else None

let env_pairs rng n =
  List.init n (fun _ ->
      let env = Ocl_gen.gen_env rng ~size:0 in
      let pre =
        if Rng.bool rng then Some (Ocl_gen.gen_env rng ~size:0) else None
      in
      (env, pre))

let envs_per_case = 6

let check_expr_all expr envs =
  let rec first = function
    | [] -> None
    | pair :: rest ->
      (match check_expr_on expr pair with
       | Some detail -> Some detail
       | None -> first rest)
  in
  first envs

let shrink_failing_expr ~shrink expr fails =
  if not shrink then (expr, 0)
  else
    Shrink.minimize ~candidates:Ocl_gen.shrink_expr
      ~still_fails:(fun e -> fails e <> None)
      expr

let engine_run ~shrink ~seed ~index ~size =
  let rng_expr, rng_envs = case_streams ~seed index in
  let expr = Ocl_gen.gen_bool rng_expr ~size in
  let envs = env_pairs rng_envs envs_per_case in
  let fails e = check_expr_all e envs in
  match fails expr with
  | None -> Pass
  | Some detail0 ->
    let shrunk, steps = shrink_failing_expr ~shrink expr fails in
    let detail = Option.value ~default:detail0 (fails shrunk) in
    let repr = Pretty.to_string shrunk in
    Fail
      { oracle = "engine"; index; repr; detail; shrink_steps = steps;
        entry =
          Corpus.make ~oracle:"engine" ~seed ~index ~size [ ("expr", repr) ]
      }

let engine_replay (entry : Corpus.entry) =
  let rng_expr, rng_envs = case_streams ~seed:entry.seed entry.index in
  let expr_result =
    match List.assoc_opt "expr" entry.payload with
    | Some text ->
      (match Cm_ocl.Ocl_parser.parse text with
       | Ok expr -> Ok expr
       | Error err ->
         Error (Fmt.str "corpus expr does not parse: %a" Cm_ocl.Ocl_parser.pp_error err))
    | None -> Ok (Ocl_gen.gen_bool rng_expr ~size:entry.size)
  in
  match expr_result with
  | Error _ as err -> err
  | Ok expr ->
    (match check_expr_all expr (env_pairs rng_envs envs_per_case) with
     | None -> Ok ()
     | Some detail ->
       Error (Fmt.str "%s on %s" detail (Pretty.to_string expr)))

let engine =
  { name = "engine"; weight = 5; run_case = engine_run; replay = engine_replay }

(* ---- RBAC guard conformance ---- *)

let groups_pool =
  [ "proj_administrator"; "service_architect"; "business_analyst"; "auditors" ]

let roles_pool = [ "admin"; "member"; "user" ]
let rbac_meths = Meth.[ GET; PUT; POST; DELETE ]

let subset rng items = List.filter (fun _ -> Rng.bool rng) items

let rbac_case rng =
  let assignment =
    Role_assignment.of_list
      (List.concat_map
         (fun group ->
           List.filter_map
             (fun role ->
               if Rng.bool rng then Some (group, role) else None)
             roles_pool)
         groups_pool)
  in
  let table =
    List.filteri (fun i _ -> i >= 0) (* keep order deterministic *)
      (List.concat
         (List.mapi
            (fun i meth ->
              if Rng.int rng 4 = 0 then []
              else
                [ Security_table.entry ~resource:"volume"
                    ~req:(Printf.sprintf "f.%d" (i + 1))
                    meth (subset rng roles_pool)
                ])
            rbac_meths))
  in
  let subject = Subject.make "fuzz-user" (subset rng groups_pool) in
  (assignment, table, subject)

let rbac_repr assignment table subject =
  Fmt.str "assignment=[%s] entries=[%s] subject-groups=[%s]"
    (String.concat "; "
       (List.map
          (fun (g, r) -> g ^ "->" ^ r)
          (Role_assignment.to_list assignment)))
    (String.concat "; "
       (List.map
          (fun (e : Security_table.entry) ->
            Meth.to_string e.meth ^ ":" ^ String.concat "," e.roles)
          table))
    (String.concat "," subject.Subject.groups)

let rbac_check (assignment, table, subject) =
  let user_doc = Role_assignment.enrich subject assignment in
  let env = Eval.env_of_bindings [ ("user", user_doc) ] in
  let rec first = function
    | [] -> None
    | (e : Security_table.entry) :: rest ->
      let guard = Security_table.auth_guard e assignment in
      let interpreted = Eval.check env guard in
      let plan = Compile.plan () in
      let compiled_guard = Compile.compile plan guard in
      let compiled = Compile.check compiled_guard (Compile.frame_of_env plan env) in
      let allowed =
        Security_table.allowed table assignment ~resource:"volume"
          ~meth:e.meth subject
      in
      if interpreted <> compiled then
        Some
          (Fmt.str "%s guard: interpreted %a <> compiled %a"
             (Meth.to_string e.meth) Value.pp_tribool interpreted
             Value.pp_tribool compiled)
      else if (interpreted = Value.True) <> allowed then
        Some
          (Fmt.str "%s guard truth %a contradicts allowed=%b on %s"
             (Meth.to_string e.meth) Value.pp_tribool interpreted allowed
             (Pretty.to_string guard))
      else first rest
  in
  first table

let rbac_run ~shrink:_ ~seed ~index ~size =
  let rng, _ = case_streams ~seed index in
  let (assignment, table, subject) as case = rbac_case rng in
  match rbac_check case with
  | None -> Pass
  | Some detail ->
    Fail
      { oracle = "rbac"; index; detail;
        repr = rbac_repr assignment table subject;
        shrink_steps = 0;
        entry = Corpus.make ~oracle:"rbac" ~seed ~index ~size []
      }

let rbac_replay (entry : Corpus.entry) =
  let rng, _ = case_streams ~seed:entry.seed entry.index in
  match rbac_check (rbac_case rng) with
  | None -> Ok ()
  | Some detail -> Error detail

let rbac = { name = "rbac"; weight = 2; run_case = rbac_run; replay = rbac_replay }

(* ---- codegen round-trip ---- *)

(* Round-trip and translation failures only — the well-typedness
   self-check is deliberately *not* part of this predicate, so shrinking
   cannot walk out of the typed fragment and call it progress. *)
let codegen_fails expr =
  match Cm_ocl.Ocl_parser.parse (Pretty.to_string expr) with
  | Error err ->
    Some (Fmt.str "re-parse failed: %a" Cm_ocl.Ocl_parser.pp_error err)
  | Ok reparsed when not (Ast.equal reparsed expr) ->
    Some
      (Fmt.str "print/parse round-trip changed the expression: got %s"
         (Pretty.to_string reparsed))
  | Ok _ ->
    (match Cm_codegen.Ocl_to_python.translate expr with
     | exception exn ->
       Some ("python translation raised " ^ Printexc.to_string exn)
     | "" -> Some "empty python translation"
     | _ ->
       (match Cm_codegen.Ocl_to_python.variables expr with
        | exception exn ->
          Some ("python variable extraction raised " ^ Printexc.to_string exn)
        | _ -> None))

let cinder_security =
  { Generate.table = Security_table.cinder;
    assignment = Security_table.cinder_assignment
  }

let gen_machine rng ~size =
  let n_states = 2 + Rng.int rng 3 in
  let state_name i = Printf.sprintf "S%d" i in
  let small = max 2 (min 5 size) in
  let states =
    List.init n_states (fun i ->
        BM.state (state_name i) (Ocl_gen.gen_bool rng ~size:small))
  in
  let transitions =
    List.init
      (1 + Rng.int rng 5)
      (fun _ ->
        let guard =
          if Rng.bool rng then Some (Ocl_gen.gen_bool rng ~size:3) else None
        in
        let effect =
          if Rng.bool rng then Some (Ocl_gen.gen_bool rng ~size:3) else None
        in
        BM.transition ?guard ?effect
          ~source:(state_name (Rng.int rng n_states))
          ~target:(state_name (Rng.int rng n_states))
          (Rng.choose rng rbac_meths) "volume")
  in
  { BM.machine_name = "FuzzMachine"; context = "project"; initial = "S0";
    states; transitions
  }

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

let codegen_case ~shrink ~seed ~index ~size rng =
  let fail detail expr steps =
    let repr = Pretty.to_string expr in
    Fail
      { oracle = "codegen"; index; repr; detail; shrink_steps = steps;
        entry =
          Corpus.make ~oracle:"codegen" ~seed ~index ~size [ ("expr", repr) ]
      }
  in
  if Rng.int rng 3 < 2 then begin
    (* Expression mode: generator self-check, then printer round-trips. *)
    let expr = Ocl_gen.gen_bool rng ~size in
    if not (Typecheck.well_typed Ocl_gen.signature expr) then
      fail "generator produced an ill-typed expression" expr 0
    else
      match codegen_fails expr with
      | None -> Pass
      | Some detail0 ->
        let shrunk, steps =
          if shrink then
            Shrink.minimize ~candidates:Ocl_gen.shrink_expr
              ~still_fails:(fun e -> codegen_fails e <> None)
              expr
          else (expr, 0)
        in
        let detail = Option.value ~default:detail0 (codegen_fails shrunk) in
        fail detail shrunk steps
  end
  else begin
    (* Machine mode: random state machine -> generated contracts -> every
       contract expression survives the printers. *)
    let machine = gen_machine rng ~size in
    let security = if Rng.bool rng then Some cinder_security else None in
    match Generate.all ?security machine with
    | Error msg ->
      Fail
        { oracle = "codegen"; index;
          repr = Fmt.str "machine with %d transitions" (List.length machine.BM.transitions);
          detail = "contract generation failed: " ^ msg;
          shrink_steps = 0;
          entry = Corpus.make ~oracle:"codegen" ~seed ~index ~size []
        }
    | Ok contracts ->
      let rec first = function
        | [] -> Pass
        | (part, expr) :: rest ->
          (match codegen_fails expr with
           | None -> first rest
           | Some detail ->
             let shrunk, steps =
               if shrink then
                 Shrink.minimize ~candidates:Ocl_gen.shrink_expr
                   ~still_fails:(fun e -> codegen_fails e <> None)
                   expr
               else (expr, 0)
             in
             let detail =
               Fmt.str "%s (in generated %s)"
                 (Option.value ~default:detail (codegen_fails shrunk))
                 part
             in
             fail detail shrunk steps)
      in
      first (List.concat_map contract_exprs contracts)
  end

let codegen_run ~shrink ~seed ~index ~size =
  let rng, _ = case_streams ~seed index in
  codegen_case ~shrink ~seed ~index ~size rng

let codegen_replay (entry : Corpus.entry) =
  match List.assoc_opt "expr" entry.payload with
  | Some text ->
    (match Cm_ocl.Ocl_parser.parse text with
     | Error err ->
       Error (Fmt.str "corpus expr does not parse: %a" Cm_ocl.Ocl_parser.pp_error err)
     | Ok expr ->
       (match codegen_fails expr with
        | None -> Ok ()
        | Some detail -> Error detail))
  | None ->
    let rng, _ = case_streams ~seed:entry.seed entry.index in
    (match
       codegen_case ~shrink:false ~seed:entry.seed ~index:entry.index
         ~size:entry.size rng
     with
     | Pass -> Ok ()
     | Fail f -> Error f.detail)

let codegen =
  { name = "codegen"; weight = 2; run_case = codegen_run;
    replay = codegen_replay
  }

(* ---- monitor: production against the reference ---- *)

(* Every exchange must agree bit-for-bit, with no normalization: status,
   the full conformance string (payload included), both verdicts with
   their undefinedness hints, the covered requirements, the detail and
   the snapshot size. *)
let verdict_key = function
  | None -> "-"
  | Some Eval.Holds -> "H"
  | Some Eval.Violated -> "V"
  | Some (Eval.Undefined_verdict hint) -> "U:" ^ hint

let strict_outcome_key (o : Outcome.t) =
  Fmt.str "%d|%s|%s|%s|%s|%s|%d" o.response.Cm_http.Response.status
    (Outcome.conformance_to_string o.conformance)
    (verdict_key o.pre_verdict)
    (verdict_key o.post_verdict)
    (String.concat "," o.covered_requirements)
    o.detail o.snapshot_bytes

(* Where two line sequences first differ. *)
let first_diff (la, a) (lb, b) =
  let rec go n a b =
    match a, b with
    | x :: a', y :: b' ->
      if x = y then go (n + 1) a' b'
      else Fmt.str "line %d: %s [%s] vs %s [%s]" n la x lb y
    | [], y :: _ -> Fmt.str "line %d only in %s: [%s]" n lb y
    | x :: _, [] -> Fmt.str "line %d only in %s: [%s]" n la x
    | [], [] -> "identical"
  in
  go 0 a b

let first_violation =
  List.find_opt (fun (o : Outcome.t) -> Outcome.is_violation o.conformance)

let has_violation outcomes = first_violation outcomes <> None

(* The configurations production serves, cycled by case: Oracle mode
   with a per-request cache (the campaigns), Enforce mode with a
   cross-request cache (the benchmark), Enforce mode through the
   write-ahead journal, and Oracle mode under a random bounded chaos
   profile with the resilience layer on.  Journaled cases keep the
   journaled setup's per-request cache: the journal's hooks do not touch
   the cache, and the Serving cases cover the cross-request one.  Chaos
   cases alternate the two cache scopes. *)
type production =
  | Campaign
  | Serving
  | Journaled
  | Chaos of {
      profile : Cm_cloudsim.Chaos.profile;
      chaos_seed : int;
      scope : Obs_cache.scope;
    }

let config_name = function
  | Campaign -> "oracle/per-request"
  | Serving -> "enforce/cross-request"
  | Journaled -> "enforce/journaled"
  | Chaos { scope = Obs_cache.Per_request; _ } -> "oracle/chaos/per-request"
  | Chaos { scope = Obs_cache.Cross_request; _ } -> "oracle/chaos/cross-request"

(* Case [index] belongs to pair [index / 2] (a probe and a mix), and
   consecutive pairs run the four configurations in turn.  Chaos cases
   switch cache scope every eight cases; the profile is drawn from the
   chaos seed (the transport's own generator is a different one). *)
let production ~seed ~index ~size =
  let chaos_seed = seed + (1013 * index) in
  match index / 2 mod 4 with
  | 0 -> Campaign
  | 1 -> Serving
  | 2 -> Journaled
  | _ ->
    Chaos
      { profile = Chaos_gen.gen_profile (Rng.of_seed chaos_seed) ~size;
        chaos_seed;
        scope =
          (if index / 8 mod 2 = 0 then Obs_cache.Per_request
           else Obs_cache.Cross_request)
      }

(* A mutant's probe after random noise, on the Cinder models, or a
   named mix at a derived seed, on the cross models. *)
type subject =
  | Probe of Mutant.t
  | Mix of { mix : string; wl_seed : int; steps : int }

(* Even cases probe the ten mutants in rotation, shifted by one every
   twenty pairs so each mutant meets every configuration.  Odd cases run
   the fixed [standard] and [cross] mixes once under each configuration
   (a repeat would be the same run), then the seeded mixes in a rotation
   of three, which meets the four configurations in every combination. *)
let probe_mutant index =
  let pair = index / 2 in
  List.nth Mutant.all ((pair + (pair / 20)) mod List.length Mutant.all)

let mix_name index =
  let pair = index / 2 in
  if pair < 4 then "standard"
  else if pair < 8 then "cross"
  else List.nth [ "read-heavy"; "churn-heavy"; "adversarial" ] (pair mod 3)

(* Random noise by the three roles over the volume surface, up to
   [size - 1] steps; a target is a volume the trace created or one that
   never exists. *)
let gen_noise rng ~size =
  let open Workload in
  let created = ref 0 in
  let target () =
    if !created = 0 || Rng.int rng 6 = 0 then Absent (Rng.int rng 4)
    else if Rng.bool rng then Fresh (!created - 1)
    else Fresh (Rng.int rng !created)
  in
  let draw _ =
    let actor = Rng.choose rng [ Admin; Member; User ] in
    let op =
      match Rng.int rng 8 with
      | 0 -> List_volumes
      | 1 | 2 ->
        let idx = !created in
        incr created;
        let name = Printf.sprintf "w%d" (Rng.int rng 100) in
        Create_volume
          { idx; name; size = 1 + Rng.int rng 20; source = No_image }
      | 3 -> Show_volume (target ())
      | 4 ->
        let v = target () in
        Rename_volume (v, Printf.sprintf "r%d" (Rng.int rng 100))
      | 5 -> Delete_volume (target ())
      | 6 -> Volume_action_attach (target (), "srv-fuzz")
      | _ -> Volume_action_detach (target ())
    in
    { actor; op }
  in
  List.init (Rng.int rng (max 1 size)) draw

let created trace =
  List.filter_map
    (fun (s : Workload.step) ->
      match s.op with
      | Workload.Create_volume { idx; _ } -> Some idx
      | _ -> None)
    trace

(* The admin detaches and deletes every volume the noise created;
   myProject starts with none, so this empties it and neither quota nor
   attachments can mask the probe. *)
let drain noise =
  List.concat_map
    (fun k ->
      Workload.
        [ { actor = Admin; op = Volume_action_detach (Fresh k) };
          { actor = Admin; op = Delete_volume (Fresh k) }
        ])
    (created noise)

(* Steps that kill the mutant on a drained project, random in their
   payload; [next] is the first unused creation index. *)
let probe_for (mutant : Mutant.t) rng ~next =
  let open Workload in
  let create ?(actor = Admin) k prefix =
    let name = Printf.sprintf "%s%d" prefix (Rng.int rng 100) in
    { actor;
      op =
        Create_volume
          { idx = next + k; name; size = 1 + Rng.int rng 5; source = No_image }
    }
  in
  let v = Fresh next in
  match mutant.Mutant.name with
  | "M1-delete-privilege-escalation" ->
    [ create 0 "p"; { actor = Member; op = Delete_volume v } ]
  | "M2-update-check-missing" ->
    let p = create 0 "p" in
    [ p;
      { actor = User;
        op = Rename_volume (v, Printf.sprintf "h%d" (Rng.int rng 100)) }
    ]
  | "M3-get-wrongly-denied" ->
    [ create 0 "p"; { actor = User; op = Show_volume v } ]
  | "M4-quota-ignored" -> List.init 4 (fun k -> create k "q")
  | "M5-delete-in-use-allowed" ->
    [ create 0 "p";
      { actor = Admin; op = Volume_action_attach (v, "srv-fuzz") };
      { actor = Admin; op = Delete_volume v }
    ]
  | "M6-wrong-delete-status" | "M8-zombie-delete" ->
    [ create 0 "p"; { actor = Admin; op = Delete_volume v } ]
  | "M7-phantom-create" -> [ create 0 "p" ]
  | "M9-create-open-to-all" -> [ create ~actor:User 0 "p" ]
  | "M10-list-wrongly-denied" -> [ { actor = Admin; op = List_volumes } ]
  | other -> invalid_arg ("Oracle.probe_for: unknown mutant " ^ other)

(* Noise, then the drain and the probe. *)
let probe_parts ~rng_noise ~rng_probe ~size mutant =
  let noise = gen_noise rng_noise ~size:(min size 12) in
  ( noise,
    drain noise @ probe_for mutant rng_probe ~next:(List.length (created noise))
  )

(* The seeded mixes at the case's length and seed; any other mix as its
   [compile] gives it (the fixed mixes ignore both). *)
let mix_trace ~mix ~wl_seed ~steps =
  match mix with
  | "read-heavy" ->
    Some (Workload.read_heavy_trace ~steps ~victims:4 ~seed:wl_seed)
  | "churn-heavy" -> Some (Workload.churn_heavy_trace ~steps ~seed:wl_seed)
  | "adversarial" -> Some (Workload.adversarial_trace ~steps ~seed:wl_seed)
  | _ ->
    Option.map (fun m -> m.Workload.compile ~seed:wl_seed) (Workload.find mix)

let generated_subject ~seed ~index ~size =
  if index land 1 = 0 then Probe (probe_mutant index)
  else
    Mix
      { mix = mix_name index; wl_seed = seed + (7919 * index);
        steps = 8 + (4 * min size 10) }

let subject_name = function
  | Probe mutant -> "probe " ^ mutant.Mutant.name
  | Mix { mix; _ } -> "mix " ^ mix

let monitor_schedule index =
  ( subject_name (generated_subject ~seed:0 ~index ~size:2),
    config_name (production ~seed:0 ~index ~size:2) )

(* The shrinkable prefix and the fixed tail of a case's trace: shrinking
   drops noise steps only, so a probe's kill stays in the trace. *)
let case_parts ~seed ~index ~size = function
  | Probe mutant ->
    let rng_noise, rng_probe = case_streams ~seed index in
    probe_parts ~rng_noise ~rng_probe ~size mutant
  | Mix { mix; wl_seed; steps } ->
    (Option.value ~default:[] (mix_trace ~mix ~wl_seed ~steps), [])

let monitor_trace ~seed ~index ~size =
  let prefix, tail =
    case_parts ~seed ~index ~size (generated_subject ~seed ~index ~size)
  in
  prefix @ tail

let ( let* ) = Result.bind

let setup_or what =
  Result.map_error (fun msgs ->
      what ^ " setup failed: " ^ String.concat "; " msgs)

let run_reference ~cross ~mode ?faults trace =
  let* rctx =
    setup_or "reference" (Scenario.setup_reference ~cross ~mode ?faults ())
  in
  ignore (Scenario.run_reference rctx trace);
  Ok (Reference.outcomes rctx.Scenario.reference)

(* Fault-free, outcomes must agree with the reference's exchange by
   exchange, with no normalization.  Under chaos a verdict may only
   degrade: no definite verdict may differ from the reference's on the
   same request. *)
let judge prod what ~reference outcomes =
  match prod with
  | Campaign | Serving | Journaled ->
    let reference = List.map strict_outcome_key reference in
    let keys = List.map strict_outcome_key outcomes in
    if keys = reference then Ok ()
    else
      Error
        (what ^ " diverges from the reference at "
        ^ first_diff ("reference", reference) (what, keys))
  | Chaos _ ->
    (match Cm_mutation.Campaign.compare_outcomes reference outcomes with
     | _, [], _ -> Ok ()
     | _, (i, fault_free, chaos) :: _, _ ->
       let req = (List.nth outcomes i).Outcome.request in
       Error
         (Fmt.str
            "verdict flip under chaos in %s: exchange %d (%s %s): \
             reference %s, chaos %s"
            what i
            (Meth.to_string req.Cm_http.Request.meth)
            req.Cm_http.Request.path fault_free chaos))

(* Production's outcomes; a journaled run must also replay its journal
   through the reference to the recorded verdict lines. *)
let run_production ~cross ~mode ?faults prod trace =
  let run setup =
    let* ctx = setup_or "production" setup in
    ignore (Scenario.run_trace ctx trace);
    Ok (Monitor.outcomes ctx.Scenario.monitor)
  in
  let setup = if cross then Scenario.setup_cross else Scenario.setup in
  match prod with
  | Campaign -> run (setup ~mode ?faults ~cache:Obs_cache.Per_request ())
  | Serving -> run (setup ~mode ?faults ~cache:Obs_cache.Cross_request ())
  | Chaos { profile; chaos_seed; scope } ->
    run
      (setup ~mode ?faults ~cache:scope ~chaos:profile ~chaos_seed
         ~resilience:Cm_mutation.Campaign.chaos_policy ())
  | Journaled ->
    let* jctx =
      setup_or "journaled" (Scenario.setup_journaled ~cross ~mode ?faults ())
    in
    ignore (Scenario.jrun_trace jctx trace);
    Jmonitor.sync jctx.Scenario.jmon;
    let events = Scenario.journal_events jctx in
    let recorded = Jmonitor.journaled_verdict_lines events in
    let* replayed =
      setup_or "journal replay" (Scenario.replay_reference ~cross ~mode events)
    in
    if replayed = recorded then
      Ok (Monitor.outcomes (Jmonitor.monitor jctx.Scenario.jmon))
    else
      Error
        ("journal replay through the reference diverges at "
        ^ first_diff ("recorded", recorded) ("replayed", replayed))

(* A mix must compile to the same trace every time: a property of the
   (mix, seed) pair, checked before the trace runs. *)
let recompiles = function
  | Probe _ -> Ok ()
  | Mix { mix; wl_seed; steps } ->
    let render () =
      Option.map Workload.render (mix_trace ~mix ~wl_seed ~steps)
    in
    (match render (), render () with
     | None, _ -> Error ("unknown workload mix " ^ mix)
     | a, b when a = b -> Ok ()
     | _ ->
       Error
         (Fmt.str "mix %s at seed %d does not recompile identically" mix
            wl_seed))

let monitor_check prod subject trace =
  let* () = recompiles subject in
  let mode =
    match prod with
    | Serving | Journaled -> Monitor.Enforce
    | Campaign | Chaos _ -> Monitor.Oracle
  in
  let cross = match subject with Mix _ -> true | Probe _ -> false in
  let* reference = run_reference ~cross ~mode trace in
  let* outcomes = run_production ~cross ~mode prod trace in
  let* () = judge prod "production" ~reference outcomes in
  match first_violation outcomes, subject with
  | Some v, _ ->
    Error (Fmt.str "violation on the correct cloud: %a" Outcome.pp v)
  | None, Mix _ -> Ok ()
  | None, Probe mutant ->
    (* the mutant runs in Oracle mode, through production (under the
       case's chaos, if any) and the reference, which must agree on the
       violation's kind too *)
    let faults = mutant.Mutant.faults in
    let mutant_prod = match prod with Chaos _ -> prod | _ -> Campaign in
    let* outcomes =
      run_production ~cross:false ~mode:Monitor.Oracle ~faults mutant_prod
        trace
    in
    let* reference =
      run_reference ~cross:false ~mode:Monitor.Oracle ~faults trace
    in
    let* () = judge prod "the mutant run" ~reference outcomes in
    if has_violation outcomes then Ok ()
    else Error ("mutant " ^ mutant.Mutant.name ^ " survived the trace")

(* What a corpus entry needs to replay the configuration exactly,
   whatever the schedule: its name, and under chaos the profile and the
   chaos seed. *)
let production_payload prod =
  ("config", config_name prod)
  ::
  (match prod with
   | Chaos { profile; chaos_seed; _ } ->
     [ ("chaos", Chaos_gen.describe profile);
       ("chaos_seed", string_of_int chaos_seed)
     ]
   | Campaign | Serving | Journaled -> [])

let monitor_run ~shrink ~seed ~index ~size =
  let subject = generated_subject ~seed ~index ~size in
  let prod = production ~seed ~index ~size in
  let prefix, tail = case_parts ~seed ~index ~size subject in
  let check prefix = monitor_check prod subject (prefix @ tail) in
  match check prefix with
  | Ok () -> Pass
  | Error detail0 ->
    let shrunk, steps =
      if shrink && recompiles subject = Ok () then
        (* each evaluation builds three or four clouds: keep the budget
           tight *)
        Shrink.minimize ~budget:30 ~candidates:Shrink.shrink_list
          ~still_fails:(fun p -> Result.is_error (check p))
          prefix
      else (prefix, 0)
    in
    let detail =
      Result.fold ~ok:(fun () -> detail0) ~error:Fun.id (check shrunk)
    in
    let trace = Workload.to_line (shrunk @ tail) in
    Fail
      { oracle = "monitor"; index; detail; shrink_steps = steps;
        repr =
          Fmt.str "%s under %s: %s" (subject_name subject) (config_name prod)
            trace;
        entry =
          Corpus.make ~oracle:"monitor" ~seed ~index ~size
            ((match subject with
              | Probe mutant -> [ ("mutant", mutant.Mutant.name) ]
              | Mix { mix; wl_seed; steps } ->
                [ ("mix", mix); ("wl_seed", string_of_int wl_seed);
                  ("steps", string_of_int steps) ])
            @ production_payload prod
            @ [ ("trace", trace) ])
      }

(* Every payload field must parse.  [mix=] needs [wl_seed=] and
   [steps=]; an entry with neither [mutant=] nor [mix=] replays the
   generated case, one without [trace=] regenerates its trace, and one
   without [config=] runs under the schedule's configuration for its
   index.  A chaos [config=] needs [chaos=] and [chaos_seed=]. *)
let monitor_replay (entry : Corpus.entry) =
  let { Corpus.seed; index; size; payload; _ } = entry in
  let field key = Option.value ~default:"" (List.assoc_opt key payload) in
  let int key =
    Option.to_result (int_of_string_opt (field key))
      ~none:(Fmt.str "corpus %s=%S is not an integer" key (field key))
  in
  let* subject =
    match List.assoc_opt "mutant" payload, List.assoc_opt "mix" payload with
    | Some name, _ ->
      Option.to_result ~none:("unknown mutant " ^ name)
        (Option.map (fun m -> Probe m) (Mutant.find name))
    | None, Some mix ->
      let* wl_seed = int "wl_seed" in
      let* steps = int "steps" in
      Ok (Mix { mix; wl_seed; steps })
    | None, None -> Ok (generated_subject ~seed ~index ~size)
  in
  let* prod =
    let chaos scope =
      let* chaos_seed = int "chaos_seed" in
      let* profile =
        Option.to_result (Chaos_gen.parse (field "chaos"))
          ~none:(Fmt.str "corpus chaos=%S is not a profile" (field "chaos"))
      in
      Ok (Chaos { profile; chaos_seed; scope })
    in
    match List.assoc_opt "config" payload with
    | None -> Ok (production ~seed ~index ~size)
    | Some "oracle/per-request" -> Ok Campaign
    | Some "enforce/cross-request" -> Ok Serving
    | Some "enforce/journaled" -> Ok Journaled
    | Some "oracle/chaos/per-request" -> chaos Obs_cache.Per_request
    | Some "oracle/chaos/cross-request" -> chaos Obs_cache.Cross_request
    | Some other -> Error ("unknown corpus config " ^ other)
  in
  let* trace =
    match List.assoc_opt "trace" payload with
    | Some text ->
      Result.map_error (( ^ ) "corpus trace: ") (Workload.of_line text)
    | None ->
      let prefix, tail = case_parts ~seed ~index ~size subject in
      Ok (prefix @ tail)
  in
  monitor_check prod subject trace

let monitor =
  { name = "monitor"; weight = 6; run_case = monitor_run;
    replay = monitor_replay
  }

let all = [ engine; rbac; codegen; monitor ]
let find name = List.find_opt (fun o -> o.name = name) all
