type fields = All | Fields of string list

type t = (string * fields) list

let empty = []

let normalize_fields = function
  | All -> All
  | Fields fs -> Fields (List.sort_uniq String.compare fs)

let merge_fields a b =
  match a, b with
  | All, _ | _, All -> All
  | Fields xs, Fields ys -> normalize_fields (Fields (xs @ ys))

let add root fs acc =
  let merged =
    match List.assoc_opt root acc with
    | Some existing -> merge_fields existing fs
    | None -> normalize_fields fs
  in
  (root, merged) :: List.remove_assoc root acc

let normalize acc =
  List.sort (fun (a, _) (b, _) -> String.compare a b) acc

let of_expr expr =
  let rec walk bound acc = function
    | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.String_lit _ | Ast.Null_lit -> acc
    | Ast.Var name -> if List.mem name bound then acc else add name All acc
    | Ast.Nav (Ast.Var name, field) when not (List.mem name bound) ->
      add name (Fields [ field ]) acc
    | Ast.Nav (e, _) -> walk bound acc e
    | Ast.At_pre e | Ast.Coll (e, _) | Ast.Unop (_, e) -> walk bound acc e
    | Ast.Member (e, _, x) | Ast.Count (e, x) ->
      walk bound (walk bound acc e) x
    | Ast.Iter (e, _, var, body) ->
      (* the binder shadows any same-named root inside the body *)
      walk (var :: bound) (walk bound acc e) body
    | Ast.Binop (_, a, b) -> walk bound (walk bound acc a) b
  in
  normalize (walk [] [] expr)

let union a b = normalize (List.fold_left (fun acc (r, fs) -> add r fs acc) a b)

let of_exprs exprs = List.fold_left (fun acc e -> union acc (of_expr e)) empty exprs

let roots t = List.map fst t

let mentions t root = List.mem_assoc root t

let needs_field t ~root field =
  match List.assoc_opt root t with
  | None -> false
  | Some All -> true
  | Some (Fields fs) -> List.mem field fs

let is_total t root =
  match List.assoc_opt root t with Some All -> true | Some (Fields _) | None -> false

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf (root, fs) ->
         match fs with
         | All -> Format.fprintf ppf "%s:*" root
         | Fields fields ->
           Format.fprintf ppf "%s:{%s}" root (String.concat "," fields)))
    t

let to_json t =
  Cm_json.Json.obj
    (List.map
       (fun (root, fs) ->
         ( root,
           match fs with
           | All -> Cm_json.Json.string "*"
           | Fields fields ->
             Cm_json.Json.list (List.map Cm_json.Json.string fields) ))
       t)
