type summary = {
  total : int;
  conform : int;
  denied : int;
  violations : int;
  undefined : int;
  not_monitored : int;
  by_conformance : (string * int) list;
}

let summarize outcomes =
  let bump table key =
    Hashtbl.replace table key
      (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  let table = Hashtbl.create 16 in
  let count pred = List.length (List.filter pred outcomes) in
  List.iter
    (fun (o : Outcome.t) ->
      bump table (Outcome.conformance_to_string o.conformance))
    outcomes;
  { total = List.length outcomes;
    conform =
      count (fun (o : Outcome.t) -> o.conformance = Outcome.Conform);
    denied =
      count (fun (o : Outcome.t) -> o.conformance = Outcome.Conform_denied);
    violations =
      count (fun (o : Outcome.t) -> Outcome.is_violation o.conformance);
    undefined =
      count (fun (o : Outcome.t) ->
          match o.conformance with Outcome.Undefined _ -> true | _ -> false);
    not_monitored =
      count (fun (o : Outcome.t) -> o.conformance = Outcome.Not_monitored);
    by_conformance =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  }

let violations outcomes =
  List.filter (fun (o : Outcome.t) -> Outcome.is_violation o.conformance) outcomes

let render summary ~coverage =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "=== monitoring report ===";
  line "exchanges monitored : %d" summary.total;
  line "conform             : %d" summary.conform;
  line "conform (denied)    : %d" summary.denied;
  line "violations          : %d" summary.violations;
  line "undefined           : %d" summary.undefined;
  line "not monitored       : %d" summary.not_monitored;
  if summary.by_conformance <> [] then begin
    line "";
    line "by verdict:";
    List.iter
      (fun (verdict, count) -> line "  %-45s %d" verdict count)
      summary.by_conformance
  end;
  line "";
  line "security requirement coverage:";
  List.iter
    (fun (req_id, count) ->
      if count = 0 then line "  SecReq %-6s NOT COVERED" req_id
      else line "  SecReq %-6s exercised %d time(s)" req_id count)
    coverage;
  Buffer.contents buf

let to_json summary ~coverage =
  let module Json = Cm_json.Json in
  Json.obj
    [ ("total", Json.int summary.total);
      ("conform", Json.int summary.conform);
      ("conform_denied", Json.int summary.denied);
      ("violations", Json.int summary.violations);
      ("undefined", Json.int summary.undefined);
      ("not_monitored", Json.int summary.not_monitored);
      ( "by_conformance",
        Json.obj
          (List.map (fun (k, v) -> (k, Json.int v)) summary.by_conformance) );
      ( "coverage",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) coverage) );
      ( "uncovered_requirements",
        Json.list
          (List.filter_map
             (fun (req_id, count) ->
               if count = 0 then Some (Json.string req_id) else None)
             coverage) )
    ]

let pp_summary ppf summary =
  Fmt.pf ppf "%d exchanges: %d conform, %d denied, %d violations, %d undefined"
    summary.total summary.conform summary.denied summary.violations
    summary.undefined
