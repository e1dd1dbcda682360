type t = (string * string) list
(* (group, role) pairs, in assignment order *)

let empty = []
let assign ~group ~role t = t @ [ (group, role) ]
let of_list pairs = pairs
let to_list t = t

let roles_of_group group t =
  List.filter_map (fun (g, r) -> if g = group then Some r else None) t
  |> List.sort_uniq String.compare

let groups_of_role role t =
  List.filter_map (fun (g, r) -> if r = role then Some g else None) t
  |> List.sort_uniq String.compare

let roles_of subject t =
  subject.Subject.groups
  |> List.concat_map (fun g -> roles_of_group g t)
  |> List.sort_uniq String.compare

(* Roles ordered by privilege for picking the "primary" one. *)
let privilege = function "admin" -> 0 | "member" -> 1 | "user" -> 2 | _ -> 3

let enrich subject t =
  let roles = roles_of subject t in
  let primary =
    match List.sort (fun a b -> Int.compare (privilege a) (privilege b)) roles with
    | strongest :: _ -> strongest
    | [] -> ""
  in
  let base =
    match Subject.to_json subject with
    | Cm_json.Json.Obj members -> members
    | _ -> []
  in
  Cm_json.Json.obj
    (base
    @ [ ("role", Cm_json.Json.string primary);
        ("roles", Cm_json.Json.list (List.map Cm_json.Json.string roles));
        ( "id",
          Cm_json.Json.obj [ ("groups", Cm_json.Json.string primary) ] )
      ])

let pp ppf t =
  let pp_pair ppf (g, r) = Fmt.pf ppf "%s->%s" g r in
  Fmt.(list ~sep:(any ", ") pp_pair) ppf t
