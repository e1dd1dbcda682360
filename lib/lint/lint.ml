module Json = Cm_json.Json

type severity = Error | Warning | Info

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type finding = {
  rule : string;
  severity : severity;
  where : string;
  message : string;
  witness : string option;
}

let finding ?witness ~rule ~severity ~where message =
  { rule; severity; where; message; witness }

let pp_finding ppf f =
  Fmt.pf ppf "%s[%s] %s: %s" (severity_label f.severity) f.rule f.where
    f.message;
  match f.witness with
  | None -> ()
  | Some w -> Fmt.pf ppf "@,  witness: %s" w

type rule = {
  code : string;
  title : string;
  default_severity : severity;
  explanation : string;
}

let rule ~code ~title ~severity explanation =
  { code; title; default_severity = severity; explanation }

let find_rule catalogue code =
  List.find_opt (fun r -> String.equal r.code code) catalogue

let sort findings =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.where b.where)
    findings

(* Machine-diffable form: drop exact duplicates, then order by rule
   code, location, severity, message — a total order over every field
   that does {e not} depend on the order the analyses emitted findings
   in.  [sort] (severity-major) stays the human-facing presentation
   order; [canonical] is what dumps and golden files use, so two runs
   over the same input produce byte-identical output. *)
let compare_canonical a b =
  let cmp =
    [ (fun () -> String.compare a.rule b.rule);
      (fun () -> String.compare a.where b.where);
      (fun () -> compare (severity_rank a.severity) (severity_rank b.severity));
      (fun () -> String.compare a.message b.message);
      (fun () -> Option.compare String.compare a.witness b.witness)
    ]
  in
  List.fold_left (fun acc f -> if acc <> 0 then acc else f ()) 0 cmp

let canonical findings = List.sort_uniq compare_canonical findings

let errors findings = List.filter (fun f -> f.severity = Error) findings

let at_least threshold findings =
  List.filter
    (fun f -> severity_rank f.severity <= severity_rank threshold)
    findings

let count sev findings =
  List.length (List.filter (fun f -> f.severity = sev) findings)

let summary findings =
  let plural n = if n = 1 then "" else "s" in
  let errors = count Error findings and warnings = count Warning findings in
  Printf.sprintf "%d error%s, %d warning%s, %d info" errors (plural errors)
    warnings (plural warnings) (count Info findings)

let render ?(catalogue = []) findings =
  let findings = sort findings in
  let buf = Buffer.create 256 in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%s[%s] %s: %s" (severity_label f.severity) f.rule
           f.where f.message);
      (if not (Hashtbl.mem seen f.rule) then begin
         Hashtbl.add seen f.rule ();
         match find_rule catalogue f.rule with
         | Some r -> Buffer.add_string buf (Printf.sprintf "  (%s)" r.title)
         | None -> ()
       end);
      Buffer.add_char buf '\n';
      match f.witness with
      | None -> ()
      | Some w -> Buffer.add_string buf (Printf.sprintf "  witness: %s\n" w))
    findings;
  if findings <> [] then Buffer.add_char buf '\n';
  Buffer.add_string buf (summary findings);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let finding_to_json f =
  Json.Obj
    ([ ("rule", Json.String f.rule);
       ("severity", Json.String (severity_label f.severity));
       ("where", Json.String f.where);
       ("message", Json.String f.message)
     ]
    @ match f.witness with
      | None -> []
      | Some w -> [ ("witness", Json.String w) ])

let to_json findings =
  let findings = canonical findings in
  Json.Obj
    [ ("findings", Json.List (List.map finding_to_json findings));
      ("errors", Json.Int (count Error findings));
      ("warnings", Json.Int (count Warning findings));
      ("info", Json.Int (count Info findings))
    ]

type waiver = {
  waive_rule : string;
  where_fragment : string;
  reason : string;
}

let waiver ~rule ~where ~reason =
  { waive_rule = rule; where_fragment = where; reason }

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  if nl = 0 then true
  else if nl > hl then false
  else
    let rec go i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else go (i + 1)
    in
    go 0

let apply_waivers waivers findings =
  List.map
    (fun f ->
      match
        List.find_opt
          (fun w ->
            String.equal w.waive_rule f.rule
            && contains f.where w.where_fragment)
          waivers
      with
      | None -> f
      | Some w ->
        { f with
          severity = Info;
          message = Printf.sprintf "%s [waived: %s]" f.message w.reason
        })
    findings
