type entry = {
  resource : string;
  req_id : string;
  meth : Cm_http.Meth.t;
  roles : string list;
}

type t = entry list

let entry ~resource ~req meth roles = { resource; req_id = req; meth; roles }

let find ~resource ~meth t =
  List.find_opt
    (fun e ->
      String.lowercase_ascii e.resource = String.lowercase_ascii resource
      && e.meth = meth)
    t

let requirement_ids t =
  List.map (fun e -> e.req_id) t |> List.sort_uniq String.compare

let allowed t assignment ~resource ~meth subject =
  match find ~resource ~meth t with
  | None -> false
  | Some e ->
    let subject_roles = Role_assignment.roles_of subject assignment in
    List.exists (fun role -> List.mem role subject_roles) e.roles

let auth_guard e assignment =
  let groups =
    e.roles
    |> List.concat_map (fun role -> Role_assignment.groups_of_role role assignment)
    |> List.sort_uniq String.compare
  in
  let group_atom group =
    Cm_ocl.Ast.Member
      ( Cm_ocl.Ast.Nav (Cm_ocl.Ast.Var "user", "groups"),
        true,
        Cm_ocl.Ast.String_lit group )
  in
  Cm_ocl.Ast.disj (List.map group_atom groups)

let cinder =
  let open Cm_http.Meth in
  [ entry ~resource:"volume" ~req:"1.1" GET [ "admin"; "member"; "user" ];
    entry ~resource:"volume" ~req:"1.2" PUT [ "admin"; "member" ];
    entry ~resource:"volume" ~req:"1.3" POST [ "admin"; "member" ];
    entry ~resource:"volume" ~req:"1.4" DELETE [ "admin" ];
    (* Listing the collection requires the same right as reading an
       item. *)
    entry ~resource:"Volumes" ~req:"1.1" GET [ "admin"; "member"; "user" ]
  ]

let glance =
  let open Cm_http.Meth in
  [ entry ~resource:"image" ~req:"2.1" GET [ "admin"; "member"; "user" ];
    entry ~resource:"image" ~req:"2.2" PUT [ "admin"; "member" ];
    entry ~resource:"image" ~req:"2.3" POST [ "admin"; "member" ];
    entry ~resource:"image" ~req:"2.4" DELETE [ "admin" ];
    entry ~resource:"Images" ~req:"2.1" GET [ "admin"; "member"; "user" ]
  ]

(* The cross-service table: block-storage and image entries as above,
   plus the compute surface.  Role grants mirror the cloud's default
   policy: reads for everyone, mutations for admin/member, deletions for
   admin only; attach/detach follow volume:attach/volume:detach
   (admin|member). *)
let cross =
  let open Cm_http.Meth in
  cinder @ glance
  @ [ entry ~resource:"server" ~req:"3.5" GET [ "admin"; "member"; "user" ];
      entry ~resource:"server" ~req:"3.5" POST [ "admin"; "member" ];
      entry ~resource:"server" ~req:"3.6" DELETE [ "admin" ];
      entry ~resource:"Servers" ~req:"3.5" GET [ "admin"; "member"; "user" ];
      entry ~resource:"attachment" ~req:"3.1" POST [ "admin"; "member" ];
      entry ~resource:"detachment" ~req:"3.2" POST [ "admin"; "member" ]
    ]

let cinder_assignment =
  Role_assignment.of_list
    [ ("proj_administrator", "admin");
      ("service_architect", "member");
      ("business_analyst", "user")
    ]

let render ?resources t assignment =
  let keep e =
    match resources with
    | None -> true
    | Some names ->
      List.exists
        (fun n -> String.lowercase_ascii n = String.lowercase_ascii e.resource)
        names
  in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%-10s %-7s %-8s %-8s %s" "Resource" "SecReq" "Request" "Role" "UserGroup";
  line "%s" (String.make 60 '-');
  let previous_resource = ref "" in
  List.iter
    (fun e ->
      if keep e then begin
        let resource_cell =
          if e.resource = !previous_resource then "" else e.resource
        in
        previous_resource := e.resource;
        List.iteri
          (fun i role ->
            let groups = Role_assignment.groups_of_role role assignment in
            let group_cell = String.concat "," groups in
            if i = 0 then
              line "%-10s %-7s %-8s %-8s %s" resource_cell e.req_id
                (Cm_http.Meth.to_string e.meth)
                role group_cell
            else line "%-10s %-7s %-8s %-8s %s" "" "" "" role group_cell)
          e.roles
      end)
    t;
  Buffer.contents buf
