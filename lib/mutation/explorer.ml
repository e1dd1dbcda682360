module Json = Cm_json.Json
module Request = Cm_http.Request
module Outcome = Cm_monitor.Outcome

type config = { seed : int; steps : int }

let default_config = { seed = 42; steps = 200 }

type result = {
  exchanges : int;
  violations : Outcome.t list;
  verdict_counts : (string * int) list;
  actions_tried : (string * int) list;
}

let volumes_path = "/v3/myProject/volumes"

let volume_body rng =
  Json.obj
    [ ( "volume",
        Json.obj
          [ ("name", Json.string (Printf.sprintf "w%d" (Random.State.int rng 1000)));
            ("size", Json.int (1 + Random.State.int rng 20))
          ] )
    ]

(* Candidate volume id: usually one that exists (read through the
   monitor's own log is cheating; list via the cloud as the acting
   user), sometimes a made-up one to exercise 404 paths. *)
let pick_volume_id rng ctx token =
  if Random.State.int rng 10 = 0 then Some "vol-ghost"
  else begin
    let listing =
      Cm_cloudsim.Cloud.handle ctx.Scenario.cloud
        (Request.make Cm_http.Meth.GET volumes_path
        |> Request.with_auth_token token)
    in
    match listing.Cm_http.Response.body with
    | Some body ->
      (match Json.member "volumes" body with
       | Some (Json.List (_ :: _ as vols)) ->
         let pick = List.nth vols (Random.State.int rng (List.length vols)) in
         (match Json.member "id" pick with
          | Some (Json.String id) -> Some id
          | _ -> None)
       | _ -> None)
    | None -> None
  end

let run ?(config = default_config) ?(faults = Cm_cloudsim.Faults.none) () =
  match Scenario.setup ~faults () with
  | Error msgs -> Error msgs
  | Ok ctx ->
    let rng = Random.State.make [| config.seed |] in
    let users = [ "alice"; "bob"; "carol" ] in
    let actions = Hashtbl.create 8 in
    let bump label =
      Hashtbl.replace actions label
        (1 + Option.value ~default:0 (Hashtbl.find_opt actions label))
    in
    let token_of user = List.assoc user ctx.Scenario.tokens in
    let outcomes = ref [] in
    for _ = 1 to config.steps do
      let user = List.nth users (Random.State.int rng (List.length users)) in
      let token = token_of user in
      let send ?body meth path =
        outcomes :=
          Cm_monitor.Monitor.handle ctx.Scenario.monitor
            (Request.make ?body meth path |> Request.with_auth_token token)
          :: !outcomes
      in
      match Random.State.int rng 8 with
      | 0 ->
        bump "list";
        send Cm_http.Meth.GET volumes_path
      | 1 | 2 ->
        bump "create";
        send ~body:(volume_body rng) Cm_http.Meth.POST volumes_path
      | 3 ->
        bump "get";
        (match pick_volume_id rng ctx token with
         | Some id -> send Cm_http.Meth.GET (volumes_path ^ "/" ^ id)
         | None -> ())
      | 4 ->
        bump "update";
        (match pick_volume_id rng ctx token with
         | Some id ->
           send
             ~body:
               (Json.obj
                  [ ( "volume",
                      Json.obj
                        [ ( "name",
                            Json.string
                              (Printf.sprintf "r%d" (Random.State.int rng 100))
                          )
                        ] )
                  ])
             Cm_http.Meth.PUT
             (volumes_path ^ "/" ^ id)
         | None -> ())
      | 5 | 6 ->
        bump "delete";
        (match pick_volume_id rng ctx token with
         | Some id -> send Cm_http.Meth.DELETE (volumes_path ^ "/" ^ id)
         | None -> ())
      | _ ->
        bump "attach-or-detach";
        (match pick_volume_id rng ctx token with
         | Some id ->
           let action =
             if Random.State.bool rng then
               Json.obj
                 [ ( "os-attach",
                     Json.obj [ ("instance_uuid", Json.string "srv-rnd") ] )
                 ]
             else Json.obj [ ("os-detach", Json.obj []) ]
           in
           send ~body:action Cm_http.Meth.POST
             (volumes_path ^ "/" ^ id ^ "/action")
         | None -> ())
    done;
    let outcomes = List.rev !outcomes in
    let verdicts = Hashtbl.create 8 in
    List.iter
      (fun (o : Outcome.t) ->
        let key = Outcome.conformance_to_string o.conformance in
        Hashtbl.replace verdicts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt verdicts key)))
      outcomes;
    Ok
      { exchanges = List.length outcomes;
        violations = Cm_monitor.Report.violations outcomes;
        verdict_counts =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) verdicts []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        actions_tried =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) actions []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      }

let render result =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "random walk: %d monitored exchanges, %d violations" result.exchanges
    (List.length result.violations);
  line "verdicts:";
  List.iter (fun (k, v) -> line "  %-45s %d" k v) result.verdict_counts;
  line "actions:";
  List.iter (fun (k, v) -> line "  %-45s %d" k v) result.actions_tried;
  Buffer.contents buf
