type result = {
  mutant : Mutant.t option;
  killed : bool;
  exchanges : int;
  violations : Cm_monitor.Outcome.t list;
  first_violation : string option;
}

let faults_of = function
  | Some m -> m.Mutant.faults
  | None -> Cm_cloudsim.Faults.none

let result_of mutant outcomes =
  let violations = Cm_monitor.Report.violations outcomes in
  { mutant;
    killed = violations <> [];
    exchanges = List.length outcomes;
    violations;
    first_violation =
      (match violations with
       | first :: _ ->
         Some
           (Cm_monitor.Outcome.conformance_to_string
              first.Cm_monitor.Outcome.conformance)
       | [] -> None)
  }

(* The two campaign flavours: the standard workload over the Cinder
   models, or the cross-service workload over the cross models. *)
let trace_of cross =
  if cross then Cm_workload.Workload.cross_trace
  else Cm_workload.Workload.standard_trace

(* A fresh cloud with the mutant's faults, run through production:
   the context and the trace's outcomes. *)
let run_production ~cross ?chaos ?chaos_seed ?resilience mutant =
  let setup = if cross then Scenario.setup_cross else Scenario.setup in
  Result.map
    (fun ctx -> (ctx, Scenario.run_trace ctx (trace_of cross)))
    (setup ~faults:(faults_of mutant) ?chaos ?chaos_seed ?resilience ())

(* ... and through the reference, fault-free. *)
let reference_outcomes ~cross mutant =
  Result.map
    (fun rctx -> Scenario.run_reference rctx (trace_of cross))
    (Scenario.setup_reference ~cross ~faults:(faults_of mutant) ())

let run_one_on ~cross mutant =
  Result.map
    (fun (_, outcomes) -> result_of mutant outcomes)
    (run_production ~cross mutant)

let run_one = run_one_on ~cross:false
let run_cross_one = run_one_on ~cross:true

let run_cross_reference_one mutant =
  Result.map (result_of mutant) (reference_outcomes ~cross:true mutant)

let sequence results =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | Ok r :: rest -> loop (r :: acc) rest
    | (Error _ as err) :: _ -> err
  in
  loop [] results

(* Every run builds a fresh cloud + monitor, so campaign entries are
   fully independent and can fan out over domains; the result order is
   the job order regardless of domain count.  Entries get their job
   index, from which chaos campaigns derive their seeds. *)
let campaign run_entry ?(domains = 1) mutants =
  sequence
    (Cm_core.Domain_pool.map_list ~domains
       (fun (index, m) -> run_entry ~index m)
       (List.mapi (fun i m -> (i, m)) (None :: List.map Option.some mutants)))

let run = campaign (fun ~index:_ -> run_one)
let run_cross = campaign (fun ~index:_ -> run_cross_one)
let run_cross_reference = campaign (fun ~index:_ -> run_cross_reference_one)

(* A matrix row is right when the baseline stays clean and a mutant is
   killed; its mutant and killed cells say which. *)
let kill_expected mutant killed = Option.is_some mutant = killed

let mutant_cells ?(name = fun (m : Mutant.t) -> m.name) mutant killed =
  match mutant with
  | None -> ("(baseline: no fault)", if killed then "DIRTY" else "clean")
  | Some m -> (name m, if killed then "yes" else "NO")

let kill_matrix results =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%-36s %-8s %-10s %s" "mutant" "killed" "exchanges" "first killing verdict";
  line "%s" (String.make 100 '-');
  List.iter
    (fun r ->
      let name, killed_cell =
        mutant_cells r.mutant r.killed ~name:(fun m ->
            m.Mutant.name ^ if m.Mutant.from_paper then " [paper]" else "")
      in
      line "%-36s %-8s %-10d %s" name killed_cell r.exchanges
        (Option.value ~default:"-" r.first_violation))
    results;
  Buffer.contents buf

let all_killed results =
  List.for_all (fun r -> kill_expected r.mutant r.killed) results

(* ---- chaos campaigns: verdict integrity under unreliable transport ---- *)

(* Stale observation reads are the one fault class that can manufacture
   a false [Post_violated]; the double-read defense closes it, so chaos
   campaigns run with it on. *)
let chaos_policy =
  { Cm_monitor.Resilience.default with Cm_monitor.Resilience.verified_reads = true }

type chaos_run = {
  cr_mutant : Mutant.t option;
  cr_profile : string;
  cr_killed : bool;
  cr_exchanges : int;
  cr_comparable : int;
  cr_flips : (int * string * string) list;
  cr_indefinite : int;
  cr_injected : (string * int) list;
}

(* Position-wise comparison against the fault-free run of the same
   mutant.  A step is comparable when both runs issued the same request
   (method + path — ids can diverge once a creation was absorbed
   differently); a flip is two *definite* verdicts that disagree on a
   comparable step.  Degrading to Undefined/Degraded/Monitor_error is
   the allowed escape hatch, flipping between definite verdicts is the
   integrity violation the campaign exists to catch. *)
let compare_outcomes ref_outcomes chaos_outcomes =
  let open Cm_monitor.Outcome in
  let rec walk i refs steps comparable flips indefinite =
    match steps with
    | [] -> (comparable, List.rev flips, indefinite)
    | s :: stl ->
      let indefinite =
        indefinite + (if is_definite s.conformance then 0 else 1)
      in
      let rtl = match refs with _ :: rtl -> rtl | [] -> [] in
      (match refs with
       | r :: _
         when r.request.Cm_http.Request.meth = s.request.Cm_http.Request.meth
              && r.request.Cm_http.Request.path
                 = s.request.Cm_http.Request.path ->
         let flips =
           if
             is_definite r.conformance && is_definite s.conformance
             && r.conformance <> s.conformance
           then
             ( i,
               conformance_to_string r.conformance,
               conformance_to_string s.conformance )
             :: flips
           else flips
         in
         walk (i + 1) rtl stl (comparable + 1) flips indefinite
       | _ -> walk (i + 1) rtl stl comparable flips indefinite)
  in
  walk 0 ref_outcomes chaos_outcomes 0 [] 0

(* The fault-free side is the reference monitor on a fresh same-seed
   cloud, so a chaos run is judged by code that shares nothing with the
   production monitor under test. *)
let run_chaos_one ~cross ?(seed = 42) profile ~index mutant =
  match reference_outcomes ~cross mutant with
  | Error msgs -> Error msgs
  | Ok ref_outcomes ->
    Result.map
      (fun (ctx, outcomes) ->
        let comparable, flips, indefinite =
          compare_outcomes ref_outcomes outcomes
        in
        { cr_mutant = mutant;
          cr_profile = profile.Cm_cloudsim.Chaos.name;
          cr_killed = Cm_monitor.Report.violations outcomes <> [];
          cr_exchanges = List.length outcomes;
          cr_comparable = comparable;
          cr_flips = flips;
          cr_indefinite = indefinite;
          cr_injected =
            (match ctx.Scenario.chaos with
             | Some chaos -> Cm_cloudsim.Chaos.stats chaos
             | None -> [])
        })
      (run_production ~cross ~chaos:profile
         ~chaos_seed:(seed + (1013 * index)) ~resilience:chaos_policy mutant)

let run_chaos ?(cross = false) ?seed ?domains profile =
  campaign (run_chaos_one ~cross ?seed profile) ?domains

let chaos_ok runs =
  List.for_all
    (fun r -> r.cr_flips = [] && kill_expected r.cr_mutant r.cr_killed)
    runs

let chaos_matrix runs =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "%-16s %-36s %-8s %-6s %-11s %s" "profile" "mutant" "killed" "flips"
    "indefinite" "injected faults";
  line "%s" (String.make 110 '-');
  List.iter
    (fun r ->
      let name, killed_cell = mutant_cells r.cr_mutant r.cr_killed in
      let injected =
        String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) r.cr_injected)
      in
      line "%-16s %-36s %-8s %-6d %-11d %s" r.cr_profile name killed_cell
        (List.length r.cr_flips)
        r.cr_indefinite injected;
      List.iter
        (fun (i, was, now) -> line "    FLIP step %d: %s -> %s" i was now)
        r.cr_flips)
    runs;
  Buffer.contents buf

let chaos_to_json runs =
  let module Json = Cm_json.Json in
  Json.obj
    [ ( "runs",
        Json.list
          (List.map
             (fun r ->
               Json.obj
                 [ ("profile", Json.string r.cr_profile);
                   ( "mutant",
                     match r.cr_mutant with
                     | None -> Json.null
                     | Some m -> Json.string m.Mutant.name );
                   ("killed", Json.bool r.cr_killed);
                   ("exchanges", Json.int r.cr_exchanges);
                   ("comparable", Json.int r.cr_comparable);
                   ( "flips",
                     Json.list
                       (List.map
                          (fun (i, was, now) ->
                            Json.obj
                              [ ("step", Json.int i);
                                ("fault_free", Json.string was);
                                ("chaos", Json.string now)
                              ])
                          r.cr_flips) );
                   ("indefinite", Json.int r.cr_indefinite);
                   ( "injected",
                     Json.obj
                       (List.map (fun (k, v) -> (k, Json.int v)) r.cr_injected)
                   )
                 ])
             runs) );
      ("ok", Json.bool (chaos_ok runs))
    ]

(* ---- crash campaigns: exactly-once verdicts across kill+recover ---- *)

let crash_sites =
  [ "journal.before-request";
    "journal.after-request";
    "journal.before-pre";
    "journal.after-pre";
    "journal.before-sync";
    "journal.after-sync";
    "monitor.after-forward";
    "monitor.after-invalidate";
    "journal.before-verdict";
    "journal.after-verdict"
  ]

type crash_run = {
  xr_mutant : Mutant.t option;
  xr_profile : string;
  xr_site : string;
  xr_fired : bool;
  xr_killed : bool;
  xr_verdicts : int;
  xr_duplicates : string list;
  xr_lost : string list;
  xr_mismatches : (string * string * string) list;
  xr_resumed : int;
  xr_rehandled : int;
  xr_discarded_bytes : int;
}

let journal_violations verdicts =
  List.filter
    (fun v ->
      match
        Cm_monitor.Outcome.conformance_of_string
          v.Cm_journal.Event.v_conformance
      with
      | Some c -> Cm_monitor.Outcome.is_violation c
      | None -> false)
    verdicts

let rid_conformances verdicts =
  List.map
    (fun v ->
      (v.Cm_journal.Event.v_rid, v.Cm_journal.Event.v_conformance))
    verdicts

(* One cell of the matrix: run the workload with a crash armed at the
   [nth] occurrence of [site], kill the device (torn tail), recover,
   re-run the trace (concluded steps are served from the journal), and
   audit the final journal: exactly one verdict per step, mutant still
   killed, and — without chaos, where the transport stream is unshifted
   by the recovery's extra re-forward — verdicts identical to the
   crash-free reference. *)
let run_crash_one ?(cross = true) ?(seed = 42) ~index ~site ~nth profile
    mutant =
  let trace = trace_of cross in
  let chaos_seed, resilience =
    match profile with
    | None -> (None, None)
    | Some _ -> (Some (seed + (1013 * index)), Some chaos_policy)
  in
  let setup ?crash () =
    Scenario.setup_journaled ~cross ~faults:(faults_of mutant) ?chaos:profile
      ?chaos_seed ?resilience ?crash ()
  in
  let run_reference () =
    match setup () with
    | Error msgs -> Error msgs
    | Ok ref_ctx ->
      ignore (Scenario.jrun_trace ref_ctx trace);
      Cm_journal.Jmonitor.sync ref_ctx.Scenario.jmon;
      Ok (Cm_journal.Jmonitor.verdicts ref_ctx.Scenario.jmon)
  in
  match run_reference () with
  | Error msgs -> Error msgs
  | Ok reference -> (
    let crash_ctl = Cm_core.Crash.create () in
    match setup ~crash:crash_ctl () with
    | Error msgs -> Error msgs
    | Ok ctx -> (
      Cm_core.Crash.arm crash_ctl ~site ~nth;
      let fired = ref false in
      let resumed = ref 0 and rehandled = ref 0 and discarded = ref 0 in
      let recovery_error = ref None in
      (try ignore (Scenario.jrun_trace ctx trace)
       with Cm_core.Crash.Crashed _ ->
         fired := true;
         Cm_journal.Device.crash ctx.Scenario.jdevice;
         (match Scenario.jrecover ctx with
          | Ok r ->
            resumed := r.Cm_journal.Jmonitor.resumed;
            rehandled := r.Cm_journal.Jmonitor.rehandled;
            discarded := r.Cm_journal.Jmonitor.discarded_bytes;
            ignore (Scenario.jrun_trace ctx trace)
          | Error msgs -> recovery_error := Some msgs));
      match !recovery_error with
      | Some msgs -> Error msgs
      | None ->
        Cm_journal.Jmonitor.sync ctx.Scenario.jmon;
        let verdicts = Cm_journal.Jmonitor.verdicts ctx.Scenario.jmon in
        let counts = Hashtbl.create 64 in
        List.iter
          (fun v ->
            let rid = v.Cm_journal.Event.v_rid in
            Hashtbl.replace counts rid
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts rid)))
          verdicts;
        let duplicates =
          Hashtbl.fold (fun rid n acc -> if n > 1 then rid :: acc else acc)
            counts []
          |> List.sort String.compare
        in
        let lost =
          List.filter_map
            (fun v ->
              let rid = v.Cm_journal.Event.v_rid in
              if Hashtbl.mem counts rid then None else Some rid)
            reference
          |> List.sort_uniq String.compare
        in
        let mismatches =
          (* Only meaningful without chaos: a recovery re-forward shifts
             the chaos stream, so post-crash chaos verdicts legitimately
             differ from the reference's. *)
          if Option.is_some profile then []
          else
            let ref_confs = rid_conformances reference in
            List.filter_map
              (fun v ->
                let rid = v.Cm_journal.Event.v_rid in
                match List.assoc_opt rid ref_confs with
                | Some c
                  when not (String.equal c v.Cm_journal.Event.v_conformance)
                  -> Some (rid, c, v.Cm_journal.Event.v_conformance)
                | Some _ | None -> None)
              verdicts
        in
        Ok
          { xr_mutant = mutant;
            xr_profile =
              (match profile with
               | None -> "fault-free"
               | Some p -> p.Cm_cloudsim.Chaos.name);
            xr_site = site;
            xr_fired = !fired;
            xr_killed = journal_violations verdicts <> [];
            xr_verdicts = List.length verdicts;
            xr_duplicates = duplicates;
            xr_lost = lost;
            xr_mismatches = mismatches;
            xr_resumed = !resumed;
            xr_rehandled = !rehandled;
            xr_discarded_bytes = !discarded
          }))

let run_crash_matrix ?cross ?seed ?(domains = 1) ?(nth = 3) profiles mutants =
  let jobs =
    List.concat_map
      (fun profile ->
        List.concat_map
          (fun site ->
            List.map
              (fun m -> (profile, site, m))
              (None :: List.map (fun m -> Some m) mutants))
          crash_sites)
      profiles
  in
  sequence
    (Cm_core.Domain_pool.map_list ~domains
       (fun (index, (profile, site, m)) ->
         run_crash_one ?cross ?seed ~index ~site ~nth profile m)
       (List.mapi (fun i j -> (i, j)) jobs))

let crash_ok runs =
  List.for_all
    (fun r ->
      r.xr_duplicates = [] && r.xr_lost = [] && r.xr_mismatches = []
      && kill_expected r.xr_mutant r.xr_killed)
    runs

let crash_matrix runs =
  let buf = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "%-14s %-26s %-30s %-6s %-8s %-4s %-4s %-4s %s" "profile" "site"
    "mutant" "fired" "killed" "dup" "lost" "mism" "recovery";
  line "%s" (String.make 118 '-');
  List.iter
    (fun r ->
      let name, killed_cell = mutant_cells r.xr_mutant r.xr_killed in
      line "%-14s %-26s %-30s %-6b %-8s %-4d %-4d %-4d res=%d reh=%d torn=%dB"
        r.xr_profile r.xr_site name r.xr_fired killed_cell
        (List.length r.xr_duplicates)
        (List.length r.xr_lost)
        (List.length r.xr_mismatches)
        r.xr_resumed r.xr_rehandled r.xr_discarded_bytes;
      List.iter
        (fun (rid, was, now) ->
          line "    MISMATCH %s: %s -> %s" rid was now)
        r.xr_mismatches)
    runs;
  Buffer.contents buf

let crash_to_json runs =
  let module Json = Cm_json.Json in
  Json.obj
    [ ( "runs",
        Json.list
          (List.map
             (fun r ->
               Json.obj
                 [ ("profile", Json.string r.xr_profile);
                   ("site", Json.string r.xr_site);
                   ( "mutant",
                     match r.xr_mutant with
                     | None -> Json.null
                     | Some m -> Json.string m.Mutant.name );
                   ("fired", Json.bool r.xr_fired);
                   ("killed", Json.bool r.xr_killed);
                   ("verdicts", Json.int r.xr_verdicts);
                   ( "duplicates",
                     Json.list (List.map Json.string r.xr_duplicates) );
                   ("lost", Json.list (List.map Json.string r.xr_lost));
                   ("mismatches", Json.int (List.length r.xr_mismatches));
                   ("resumed", Json.int r.xr_resumed);
                   ("rehandled", Json.int r.xr_rehandled);
                   ("discarded_bytes", Json.int r.xr_discarded_bytes)
                 ])
             runs) );
      ("ok", Json.bool (crash_ok runs))
    ]

let to_json results =
  let module Json = Cm_json.Json in
  Json.obj
    [ ( "runs",
        Json.list
          (List.map
             (fun r ->
               Json.obj
                 [ ( "mutant",
                     match r.mutant with
                     | None -> Json.null
                     | Some m -> Json.string m.Mutant.name );
                   ("killed", Json.bool r.killed);
                   ("exchanges", Json.int r.exchanges);
                   ("violations", Json.int (List.length r.violations));
                   ( "first_violation",
                     match r.first_violation with
                     | Some v -> Json.string v
                     | None -> Json.null )
                 ])
             results) );
      ("all_killed", Json.bool (all_killed results))
    ]
