type t = { user_name : string; groups : string list }

let make user_name groups = { user_name; groups }

let to_json subject =
  Cm_json.Json.obj
    [ ("name", Cm_json.Json.string subject.user_name);
      ( "groups",
        Cm_json.Json.list (List.map Cm_json.Json.string subject.groups) )
    ]

let equal a b = a.user_name = b.user_name && a.groups = b.groups

let pp ppf subject =
  Fmt.pf ppf "%s[%s]" subject.user_name (String.concat "," subject.groups)
