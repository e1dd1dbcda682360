(* cmbench: the monitor proxy's benchmark.

   One run:

     cmbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]

   serves workload W once, checks its outputs, prints a table and, as
   the last line, one JSON object with [correct], [attempted], [failed]
   and [metrics] — the end-to-end metrics untraced, the per-layer
   metrics traced.  It exits non-zero when a check fails.

   Without --workload it orchestrates: [--reps] fresh subprocesses per
   workload, interleaved across workloads, then (with --trace) one
   traced run per workload; it prints medians, writes them with
   --json, and checks that parallel serving reproduced read-heavy's
   verdicts.  --compare A.json B.json applies BENCHMARK.json's bounds
   to two such files.  See README.md in this directory. *)

module Json = Cm_json.Json

let workload_names = List.map fst Harness.workloads

(* ---- one run -------------------------------------------------------------- *)

(* Section sizes: half of [seconds] for each loop, at the pinned rates. *)
let plan ~quick ~seconds ~traced workload =
  let pin = Pins.find workload in
  let chunk = if workload = "parallel" then 256 else 128 in
  let half = seconds /. 2. in
  let closed = int_of_float (pin.closed_per_s *. half) / chunk * chunk in
  { Harness.setups = (if quick then 3 else 21);
    warm = (if quick then 256 else 4096);
    retain = (if quick then 512 else 8192);
    closed_n = max chunk closed;
    open_n = int_of_float (pin.rate *. half);
    rate = pin.rate;
    chunk;
    rounds = max 1 (int_of_float (pin.rounds_per_s *. seconds));
    traced }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metric (x : Harness.metric) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit

let print_table title (xs : Harness.metric list) =
  if xs <> [] then begin
    Printf.printf "%s\n" title;
    List.iter
      (fun (x : Harness.metric) -> Printf.printf "  %-36s %16.6g %s\n" x.name x.value x.unit)
      xs
  end

let run_one ~workload ~seed ~seconds ~traced ~quick ~spans ~all =
  let t0 = Spans.now () in
  let run = List.assoc workload Harness.workloads in
  let r = run (plan ~quick ~seconds ~traced workload) ~seed in
  let pin = Pins.find workload in
  let pinned what expected actual =
    if seed = Pins.seed && expected <> actual then
      [ Printf.sprintf "%s %s differs from the one pinned at seed %d (%s)" what actual
          Pins.seed expected ]
    else []
  in
  let problems =
    r.problems
    @ pinned "fingerprint" pin.fingerprint r.fingerprint
    @ if quick then [] else pinned "digest" pin.digest r.digest
  in
  Option.iter (fun path -> if traced then Spans.write_jsonl ~t0 path) spans;
  Printf.printf "cmbench %s seed=%d seconds=%g%s%s\n" workload seed seconds
    (if traced then " traced" else "")
    (if quick then " quick" else "");
  Printf.printf "  attempted %d, failed %d, fingerprint %s, digest %s\n" r.attempted
    r.failed r.fingerprint r.digest;
  print_table "end to end" r.end_to_end;
  print_table "per layer" r.per_layer;
  print_table "other" r.extras;
  List.iter (Printf.printf "FAILED CHECK: %s\n") problems;
  let metrics =
    if all then r.end_to_end @ r.per_layer @ r.extras
    else if traced then r.per_layer
    else r.end_to_end
  in
  let extra =
    if all then
      Printf.sprintf ", \"digest\": %S, \"fingerprint\": %S" r.digest r.fingerprint
    else ""
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}%s}\n%!"
    (problems = []) r.attempted r.failed
    (String.concat ", " (List.map json_metric metrics))
    extra;
  exit (if problems = [] then 0 else 1)

(* ---- orchestration -------------------------------------------------------- *)

type sample = { s_workload : string; s_json : Json.t; s_ok : bool }

let last_line lines = List.fold_left (fun _ l -> Some l) None lines

let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  (lines, status = Unix.WEXITED 0)

let member_exn k j =
  match Json.member k j with Some v -> v | None -> failwith ("missing " ^ k)

let metrics_of j =
  match member_exn "metrics" j with
  | Json.Obj kvs ->
    List.filter_map
      (fun (name, v) ->
        match (Json.member "value" v, Json.member "unit" v) with
        | Some value, Some (Json.String unit) ->
          Option.map (fun f -> (name, f, unit)) (Json.to_float value)
        | _ -> None)
      kvs
  | _ -> []

let run_child ~workload ~seed ~seconds ~quick ~traced ~spans =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
      "--all-metrics" ]
    @ (if quick then [ "--quick" ] else [])
    @ match spans with Some p -> [ "--spans"; p ] | None -> []
  in
  let t0 = Unix.gettimeofday () in
  let lines, ok = spawn args in
  let dt = Unix.gettimeofday () -. t0 in
  match Option.map Cm_json.Parser.parse (last_line lines) with
  | Some (Ok j) ->
    let get k = List.find_map (fun (n, v, _) -> if n = k then Some v else None) (metrics_of j) in
    let show k = Option.fold ~none:"" ~some:(Printf.sprintf " %s=%.4g" k) (get k) in
    Printf.printf "%-10s %s%s%s%s (%.1f s)%s\n%!" workload
      (if traced then "traced" else "run")
      (show "req_per_s") (show "p99_us")
      (if traced then show "trace.overhead_pct" else "")
      dt
      (if ok then "" else " FAILED");
    if not ok then List.iter print_endline lines;
    { s_workload = workload; s_json = j; s_ok = ok }
  | _ ->
    List.iter print_endline lines;
    Printf.printf "%-10s produced no result\n%!" workload;
    { s_workload = workload; s_json = Json.Null; s_ok = false }

type agg = { unit : string; values : float list }

let aggregate samples workload =
  let table = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun s ->
      if s.s_workload = workload && s.s_json <> Json.Null then
        List.iter
          (fun (name, v, unit) ->
            match Hashtbl.find_opt table name with
            | Some a -> Hashtbl.replace table name { a with values = v :: a.values }
            | None ->
              order := name :: !order;
              Hashtbl.replace table name { unit; values = [ v ] })
          (metrics_of s.s_json))
    samples;
  List.rev_map (fun n -> (n, Hashtbl.find table n)) !order

let stats a =
  let v = Array.of_list a.values in
  ( Cm_core.Stopwatch.percentile v 50.,
    Array.fold_left Float.min Float.infinity v,
    Array.fold_left Float.max Float.neg_infinity v,
    Array.length v )

let orchestrate ~seed ~reps ~seconds ~quick ~json ~trace_dir ~traced =
  let workloads = workload_names in
  let runs =
    List.concat_map
      (fun _ ->
        List.map
          (fun w -> run_child ~workload:w ~seed ~seconds ~quick ~traced:false ~spans:None)
          workloads)
      (List.init reps Fun.id)
  in
  let traced_runs =
    if not traced then []
    else
      List.map
        (fun w ->
          let spans = Option.map (fun d -> Filename.concat d (w ^ ".jsonl")) trace_dir in
          run_child ~workload:w ~seed ~seconds ~quick ~traced:true ~spans)
        workloads
  in
  let samples = runs @ traced_runs in
  let digest_of w =
    List.find_map
      (fun s ->
        if s.s_workload = w then Option.bind (Json.member "digest" s.s_json) Json.to_string
        else None)
      samples
  in
  let problems =
    List.filter_map
      (fun s -> if s.s_ok then None else Some (s.s_workload ^ ": a run failed its checks"))
      samples
    @
    match (digest_of "read-heavy", digest_of "parallel") with
    | Some a, Some b when a <> b ->
      [ "parallel's verdict digest differs from read-heavy's over the same requests" ]
    | _ -> []
  in
  let per_workload = List.map (fun w -> (w, aggregate samples w)) workloads in
  List.iter
    (fun (w, metrics) ->
      Printf.printf "\n%s (seed %d, %d reps%s)\n" w seed reps
        (if traced then " + 1 traced" else "");
      Printf.printf "  %-36s %14s %14s %14s %3s\n" "metric" "median" "min" "max" "n";
      List.iter
        (fun (name, a) ->
          let med, lo, hi, n = stats a in
          Printf.printf "  %-36s %14.6g %14.6g %14.6g %3d %s\n" name med lo hi n a.unit)
        metrics)
    per_workload;
  Option.iter
    (fun path ->
      let doc =
        Json.obj
          [ ("seed", Json.int seed); ("reps", Json.int reps);
            ("seconds", Json.float seconds); ("quick", Json.bool quick);
            ( "workloads",
              Json.obj
                (List.map
                   (fun (w, metrics) ->
                     ( w,
                       Json.obj
                         (List.map
                            (fun (name, a) ->
                              let med, lo, hi, n = stats a in
                              ( name,
                                Json.obj
                                  [ ("unit", Json.string a.unit);
                                    ("median", Json.float med); ("min", Json.float lo);
                                    ("max", Json.float hi); ("n", Json.int n);
                                    ("values", Json.list (List.rev_map Json.float a.values)) ] ))
                            metrics) ))
                   per_workload) ) ]
      in
      let oc = open_out path in
      output_string oc (Cm_json.Printer.to_string_pretty doc);
      output_char oc '\n';
      close_out oc)
    json;
  List.iter (Printf.printf "FAILED CHECK: %s\n") problems;
  exit (if problems = [] then 0 else 1)

(* ---- compare -------------------------------------------------------------- *)

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Cm_json.Parser.parse s with
  | Ok j -> j
  | Error e -> failwith (Format.asprintf "%s: %a" path Cm_json.Parser.pp_error e)

(* Every end-to-end metric of every workload BENCHMARK.json gates. *)
let compare_files a b =
  let spec = read_json "BENCHMARK.json" in
  let entries key =
    Option.value ~default:[] (Option.bind (Json.member key spec) Json.to_list)
  in
  let workloads =
    List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_string)
      (entries "workloads")
  in
  let bounds =
    List.filter_map
      (fun e ->
        match (Json.member "name" e, Json.member "better" e, Json.member "bound" e) with
        | Some (Json.String n), Some (Json.String better), Some bound ->
          Option.map (fun bd -> (n, better = "higher", bd)) (Json.to_float bound)
        | _ -> None)
      (entries "end_to_end")
  in
  let ja = read_json a and jb = read_json b in
  let values j w name =
    Option.bind (Json.member "workloads" j) (Json.member w)
    |> Fun.flip Option.bind (Json.member name)
    |> Fun.flip Option.bind (Json.member "values")
    |> Fun.flip Option.bind Json.to_list
    |> Option.map (List.filter_map Json.to_float)
  in
  let bad = ref 0 in
  Printf.printf "%-10s %-24s %12s %12s %8s %8s  %s\n" "workload" "metric" "A median" "B median"
    "gain" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, higher, bound) ->
          match (values ja w name, values jb w name) with
          | Some (_ :: _ as va), Some (_ :: _ as vb) ->
            let med l = Cm_core.Stopwatch.percentile (Array.of_list l) 50. in
            let spread l =
              (List.fold_left Float.max Float.neg_infinity l
              -. List.fold_left Float.min Float.infinity l)
              /. Float.abs (med l)
            in
            let ma = med va and mb = med vb in
            (* positive = worse *)
            let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
            let better x y = if higher then x > y else x < y in
            let all_better =
              List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb
            in
            let verdict =
              if all_better && -.worse > bound then "improved"
              else if Float.max (spread va) (spread vb) > bound then "unresolved"
              else if worse > bound then "regressed"
              else if -.worse > bound then "improved"
              else "unchanged"
            in
            if verdict = "regressed" || verdict = "unresolved" then incr bad;
            Printf.printf "%-10s %-24s %12.6g %12.6g %+7.1f%% %7.1f%%  %s\n" w name ma mb
              (-100. *. worse) (100. *. bound) verdict
          | _ -> ())
        bounds)
    workloads;
  exit (if !bad = 0 then 0 else 1)

(* ---- command line ----------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref Pins.seed and seconds = ref None in
  let trace = ref "0" and spans = ref None and reps = ref None and json = ref None in
  let quick = ref false and all = ref false in
  let compare_a = ref "" and compare_b = ref "" in
  let specs =
    [ ("--workload", Arg.String (fun w -> workload := Some w),
       "W  run one workload: " ^ String.concat ", " workload_names);
      ("--seed", Arg.Set_int seed, "N  workload seed (default 42)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
       "S  measured seconds per run (default 10; 0.5 with --quick)");
      ("--trace", Arg.Set_string trace,
       "0|1|DIR  traced run; with a directory, orchestration writes DIR/<workload>.jsonl");
      ("--spans", Arg.String (fun p -> spans := Some p), "FILE  write a traced run's spans as JSONL");
      ("--reps", Arg.Int (fun n -> reps := Some n), "N  runs per workload (default 3; 1 with --quick)");
      ("--json", Arg.String (fun p -> json := Some p), "FILE  write medians, min, max and samples");
      ("--compare", Arg.Tuple [ Arg.Set_string compare_a; Arg.Set_string compare_b ],
       "A B  compare two --json files against BENCHMARK.json's bounds");
      ("--quick", Arg.Set quick, " about 1/20 sizes; digests not checked");
      ("--all-metrics", Arg.Set all, " put every measured metric in the result line") ]
  in
  let usage = "cmbench [--workload W --seed N --seconds S --trace 0|1] | [--reps N --json FILE --trace DIR] | --compare A B" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let seconds = Option.value !seconds ~default:(if !quick then 0.5 else 10.) in
  match !workload with
  | _ when !compare_a <> "" -> compare_files !compare_a !compare_b
  | Some w ->
    if not (List.mem w workload_names) then begin
      prerr_endline ("unknown workload " ^ w);
      exit 2
    end;
    run_one ~workload:w ~seed:!seed ~seconds ~traced:(!trace <> "0") ~quick:!quick
      ~spans:!spans ~all:!all
  | None ->
    let trace_dir = if !trace = "0" || !trace = "1" then None else Some !trace in
    Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) trace_dir;
    orchestrate ~seed:!seed
      ~reps:(Option.value !reps ~default:(if !quick then 1 else 3))
      ~seconds ~quick:!quick ~json:!json ~trace_dir ~traced:(!trace <> "0")
