type handler = Request.t -> (string * string) list -> Response.t

type route = {
  template : Uri_template.t;
  meth : Meth.t;
  handler : handler;
}

type t = route list

let empty = []
let add template meth handler routes = { template; meth; handler } :: routes

let of_routes specs =
  List.fold_left
    (fun routes (template_text, meth, handler) ->
      add (Uri_template.parse_exn template_text) meth handler routes)
    empty specs

let matching_routes routes path =
  List.filter_map
    (fun route ->
      match Uri_template.matches route.template path with
      | Some bindings -> Some (route, bindings)
      | None -> None)
    routes

let allowed_methods routes path =
  matching_routes routes path
  |> List.map (fun (route, _) -> route.meth)
  |> List.sort_uniq Meth.compare

let routes t = List.map (fun r -> (r.template, r.meth)) t

let dispatch t req =
  match matching_routes t req.Request.path with
  | [] -> Response.error Status.not_found "resource not found"
  | candidates ->
    let for_method =
      List.filter (fun (route, _) -> route.meth = req.Request.meth) candidates
    in
    (match for_method with
     | [] ->
       let allowed =
         candidates
         |> List.map (fun (route, _) -> Meth.to_string route.meth)
         |> List.sort_uniq String.compare
         |> String.concat ", "
       in
       let resp =
         Response.error Status.method_not_allowed
           (Printf.sprintf "method %s not allowed"
              (Meth.to_string req.Request.meth))
       in
       { resp with headers = Headers.replace "Allow" allowed resp.headers }
     | _ :: _ ->
       (* Most-specific template wins; later registration breaks ties
          because [add] conses to the front and [sort] is stable. *)
       let best, bindings =
         List.hd
           (List.stable_sort
              (fun (a, _) (b, _) ->
                Int.compare
                  (Uri_template.specificity b.template)
                  (Uri_template.specificity a.template))
              for_method)
       in
       (try best.handler req bindings
        with exn ->
          Response.error Status.internal_server_error
            (Printf.sprintf "handler raised: %s" (Printexc.to_string exn))))
