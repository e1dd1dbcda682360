module Json = Cm_json.Json
module Request = Cm_http.Request
module Response = Cm_http.Response

let verdict_to_string = function
  | Cm_ocl.Eval.Holds -> "holds"
  | Cm_ocl.Eval.Violated -> "violated"
  | Cm_ocl.Eval.Undefined_verdict hint -> "undefined:" ^ hint

let verdict_of_string text =
  match text with
  | "holds" -> Some Cm_ocl.Eval.Holds
  | "violated" -> Some Cm_ocl.Eval.Violated
  | _ ->
    let prefix = "undefined:" in
    let plen = String.length prefix in
    if String.length text >= plen && String.sub text 0 plen = prefix then
      Some
        (Cm_ocl.Eval.Undefined_verdict
           (String.sub text plen (String.length text - plen)))
    else None

let opt_field name to_json = function
  | Some value -> [ (name, to_json value) ]
  | None -> []

let outcome_to_json (o : Outcome.t) =
  Json.obj
    ([ ("method", Json.string (Cm_http.Meth.to_string o.request.Request.meth));
       ("path", Json.string o.request.Request.path);
       ( "query",
         Json.obj
           (List.map (fun (k, v) -> (k, Json.string v)) o.request.Request.query)
       );
       ("status", Json.int o.response.Response.status)
     ]
    @ opt_field "response_body" (fun b -> b) o.response.Response.body
    @ opt_field "cloud_status"
        (fun (r : Response.t) -> Json.int r.Response.status)
        o.cloud_response
    @ [ ( "conformance",
          Json.string (Outcome.conformance_to_string o.conformance) )
      ]
    @ opt_field "pre_verdict"
        (fun v -> Json.string (verdict_to_string v))
        o.pre_verdict
    @ opt_field "post_verdict"
        (fun v -> Json.string (verdict_to_string v))
        o.post_verdict
    @ [ ( "requirements",
          Json.list (List.map Json.string o.covered_requirements) );
        ( "contract_requirements",
          Json.list (List.map Json.string o.contract_requirements) );
        ("snapshot_bytes", Json.int o.snapshot_bytes);
        ("detail", Json.string o.detail)
      ])

let ( let* ) r f = Result.bind r f

let require name json =
  match Json.member name json with
  | Some value -> Ok value
  | None -> Error (Printf.sprintf "trace record missing %S" name)

let as_string name json =
  match Json.to_string json with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%S is not a string" name)

let as_int name json =
  match Json.to_int json with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%S is not an int" name)

let outcome_of_json json =
  let* meth_text = Result.bind (require "method" json) (as_string "method") in
  let* meth =
    match Cm_http.Meth.of_string meth_text with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown method %S" meth_text)
  in
  let* path = Result.bind (require "path" json) (as_string "path") in
  let query =
    match Json.member "query" json with
    | Some (Json.Obj members) ->
      List.filter_map
        (fun (k, v) ->
          match Json.to_string v with Some s -> Some (k, s) | None -> None)
        members
    | Some _ | None -> []
  in
  let* status = Result.bind (require "status" json) (as_int "status") in
  let response_body = Json.member "response_body" json in
  let cloud_response =
    match Json.member "cloud_status" json with
    | Some (Json.Int s) -> Some (Response.make s)
    | Some _ | None -> None
  in
  let* conf_text =
    Result.bind (require "conformance" json) (as_string "conformance")
  in
  let* conformance =
    match Outcome.conformance_of_string conf_text with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown conformance %S" conf_text)
  in
  let verdict_opt name =
    match Json.member name json with
    | Some (Json.String s) -> verdict_of_string s
    | Some _ | None -> None
  in
  let string_list name =
    match Json.member name json with
    | Some (Json.List items) -> List.filter_map Json.to_string items
    | Some _ | None -> []
  in
  let covered_requirements = string_list "requirements" in
  let contract_requirements = string_list "contract_requirements" in
  let snapshot_bytes =
    match Json.member "snapshot_bytes" json with
    | Some (Json.Int n) -> n
    | Some _ | None -> 0
  in
  let detail =
    match Json.member "detail" json with
    | Some (Json.String s) -> s
    | Some _ | None -> ""
  in
  Ok
    { Outcome.request = Request.make ~query meth path;
      response = Response.make ?body:response_body status;
      cloud_response;
      conformance;
      pre_verdict = verdict_opt "pre_verdict";
      post_verdict = verdict_opt "post_verdict";
      covered_requirements;
      contract_requirements;
      snapshot_bytes;
      detail
    }

let to_jsonl outcomes =
  String.concat ""
    (List.map
       (fun o -> Cm_json.Printer.to_string (outcome_to_json o) ^ "\n")
       outcomes)

let of_jsonl text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let rec loop acc i = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      (match Cm_json.Parser.parse line with
       | Error err -> Error (Fmt.str "line %d: %a" i Cm_json.Parser.pp_error err)
       | Ok json ->
         (match outcome_of_json json with
          | Ok outcome -> loop (outcome :: acc) (i + 1) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" i msg)))
  in
  loop [] 1 lines

(* ---- localization ---- *)

type suspect = {
  trigger : string;
  verdicts : (string * int) list;
  requirements : string list;
  example_detail : string;
}

let looks_like_id segment =
  (* vol-7, srv-12, tok-3-alice ... : letters, dash, then a digit *)
  match String.index_opt segment '-' with
  | Some i when i > 0 && i + 1 < String.length segment ->
    let c = segment.[i + 1] in
    c >= '0' && c <= '9'
  | Some _ | None -> false

let path_shape path =
  String.split_on_char '/' path
  |> List.map (fun seg -> if looks_like_id seg then "{id}" else seg)
  |> String.concat "/"

let localize outcomes =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (o : Outcome.t) ->
      if Outcome.is_violation o.conformance then begin
        let key =
          Cm_http.Meth.to_string o.request.Request.meth
          ^ " "
          ^ path_shape o.request.Request.path
        in
        let verdict = Outcome.conformance_to_string o.conformance in
        let existing =
          Option.value
            ~default:
              { trigger = key; verdicts = []; requirements = [];
                example_detail = o.detail
              }
            (Hashtbl.find_opt table key)
        in
        let verdicts =
          let count =
            1 + Option.value ~default:0 (List.assoc_opt verdict existing.verdicts)
          in
          (verdict, count) :: List.remove_assoc verdict existing.verdicts
        in
        let requirements =
          List.sort_uniq String.compare
            (o.covered_requirements @ o.contract_requirements
            @ existing.requirements)
        in
        Hashtbl.replace table key { existing with verdicts; requirements }
      end)
    outcomes;
  Hashtbl.fold (fun _ suspect acc -> suspect :: acc) table []
  |> List.sort (fun a b ->
         let total s = List.fold_left (fun acc (_, n) -> acc + n) 0 s.verdicts in
         Int.compare (total b) (total a))

let render_localization suspects =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  if suspects = [] then line "no violations: nothing to localize"
  else begin
    line "fault localization (most violating request shape first):";
    List.iter
      (fun s ->
        line "  %s" s.trigger;
        List.iter (fun (v, n) -> line "    %dx %s" n v) s.verdicts;
        if s.requirements <> [] then
          line "    security requirements implicated: %s"
            (String.concat ", " s.requirements);
        if s.example_detail <> "" then line "    e.g. %s" s.example_detail)
      suspects
  end;
  Buffer.contents buf
