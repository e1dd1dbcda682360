type role = Admin | Member | User

type vref = Stable of int | Fresh of int | Victim of int | Absent of int
type sref = Live of int | Ghost of int
type iref = Img of int | No_such_image of int
type source = No_image | From_image of iref

type op =
  | Create_volume of { idx : int; name : string; size : int; source : source }
  | List_volumes
  | Show_volume of vref
  | Rename_volume of vref * string
  | Delete_volume of vref
  | Volume_action_attach of vref * string
  | Volume_action_detach of vref
  | Create_server of { idx : int; name : string }
  | List_servers
  | Show_server of sref
  | Delete_server of sref
  | Attach of sref * vref
  | Detach of sref * vref
  | Create_image of { idx : int; name : string; size_mb : int }
  | List_images
  | Show_image of iref
  | Set_image_status of iref * string
  | Delete_image of iref
  | Revoke_token of role
  | Relogin of role
  | Churn_project of int

type step = { actor : role; op : op }
type trace = step list

let role_to_string = function
  | Admin -> "admin"
  | Member -> "member"
  | User -> "user"

let vref_to_string = function
  | Stable k -> Printf.sprintf "stable:%d" k
  | Fresh k -> Printf.sprintf "fresh:%d" k
  | Victim k -> Printf.sprintf "victim:%d" k
  | Absent k -> Printf.sprintf "absent:%d" k

let sref_to_string = function
  | Live k -> Printf.sprintf "live:%d" k
  | Ghost k -> Printf.sprintf "ghost:%d" k

let iref_to_string = function
  | Img k -> Printf.sprintf "img:%d" k
  | No_such_image k -> Printf.sprintf "noimg:%d" k

let op_to_string = function
  | Create_volume { idx; name; size; source } ->
    let src =
      match source with
      | No_image -> ""
      | From_image i -> Printf.sprintf " from=%s" (iref_to_string i)
    in
    Printf.sprintf "create-volume #%d %S size=%d%s" idx name size src
  | List_volumes -> "list-volumes"
  | Show_volume v -> Printf.sprintf "show-volume %s" (vref_to_string v)
  | Rename_volume (v, name) ->
    Printf.sprintf "rename-volume %s %S" (vref_to_string v) name
  | Delete_volume v -> Printf.sprintf "delete-volume %s" (vref_to_string v)
  | Volume_action_attach (v, instance) ->
    Printf.sprintf "volume-action-attach %s %S" (vref_to_string v) instance
  | Volume_action_detach v ->
    Printf.sprintf "volume-action-detach %s" (vref_to_string v)
  | Create_server { idx; name } ->
    Printf.sprintf "create-server #%d %S" idx name
  | List_servers -> "list-servers"
  | Show_server s -> Printf.sprintf "show-server %s" (sref_to_string s)
  | Delete_server s -> Printf.sprintf "delete-server %s" (sref_to_string s)
  | Attach (s, v) ->
    Printf.sprintf "attach %s %s" (sref_to_string s) (vref_to_string v)
  | Detach (s, v) ->
    Printf.sprintf "detach %s %s" (sref_to_string s) (vref_to_string v)
  | Create_image { idx; name; size_mb } ->
    Printf.sprintf "create-image #%d %S size_mb=%d" idx name size_mb
  | List_images -> "list-images"
  | Show_image i -> Printf.sprintf "show-image %s" (iref_to_string i)
  | Set_image_status (i, status) ->
    Printf.sprintf "set-image-status %s %S" (iref_to_string i) status
  | Delete_image i -> Printf.sprintf "delete-image %s" (iref_to_string i)
  | Revoke_token r -> Printf.sprintf "revoke-token %s" (role_to_string r)
  | Relogin r -> Printf.sprintf "relogin %s" (role_to_string r)
  | Churn_project k -> Printf.sprintf "churn-project %d" k

let render trace =
  let buf = Buffer.create (List.length trace * 32) in
  List.iteri
    (fun i { actor; op } ->
      Buffer.add_string buf
        (Printf.sprintf "%04d %-6s %s\n" i (role_to_string actor)
           (op_to_string op)))
    trace;
  Buffer.contents buf

let fingerprint trace = Digest.to_hex (Digest.string (render trace))

let step_to_string { actor; op } = role_to_string actor ^ " " ^ op_to_string op
let to_line trace = String.concat "; " (List.map step_to_string trace)

(* ---- parsing the one-line form ---- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt

type token = Word of string | Quoted of string | Semi

(* Words, [;] and strings as [%S] prints them. *)
let tokenize line =
  let ib = Scanf.Scanning.from_string line in
  let rec go acc =
    match Scanf.bscanf ib " %0c" Fun.id with
    | exception End_of_file -> List.rev acc
    | ';' -> go (Scanf.bscanf ib ";" Semi :: acc)
    | '"' -> go (Quoted (Scanf.bscanf ib "%S" Fun.id) :: acc)
    | _ -> go (Word (Scanf.bscanf ib "%[^ \t;\"]" Fun.id) :: acc)
  in
  go []

let int_of text =
  match int_of_string_opt text with
  | Some k -> k
  | None -> malformed "bad integer %S" text

(* the rest of [text] after [key], as in ["size=10"] or ["from=img:0"] *)
let after key text =
  if String.starts_with ~prefix:key text then
    String.sub text (String.length key) (String.length text - String.length key)
  else malformed "expected %s..., got %S" key text

let tagged cases text =
  match String.split_on_char ':' text with
  | [ tag; k ] when List.mem_assoc tag cases -> List.assoc tag cases (int_of k)
  | _ -> malformed "bad reference %S" text

let vref =
  tagged
    [ ("stable", fun k -> Stable k); ("fresh", fun k -> Fresh k);
      ("victim", fun k -> Victim k); ("absent", fun k -> Absent k) ]

let sref = tagged [ ("live", fun k -> Live k); ("ghost", fun k -> Ghost k) ]
let iref = tagged [ ("img", fun k -> Img k); ("noimg", fun k -> No_such_image k) ]

let role = function
  | "admin" -> Admin
  | "member" -> Member
  | "user" -> User
  | text -> malformed "bad role %S" text

let op_of = function
  | [ Word "create-volume"; Word idx; Quoted name; Word size ] ->
    Create_volume
      { idx = int_of (after "#" idx); name; size = int_of (after "size=" size);
        source = No_image }
  | [ Word "create-volume"; Word idx; Quoted name; Word size; Word from ] ->
    Create_volume
      { idx = int_of (after "#" idx); name; size = int_of (after "size=" size);
        source = From_image (iref (after "from=" from)) }
  | [ Word "list-volumes" ] -> List_volumes
  | [ Word "show-volume"; Word v ] -> Show_volume (vref v)
  | [ Word "rename-volume"; Word v; Quoted name ] -> Rename_volume (vref v, name)
  | [ Word "delete-volume"; Word v ] -> Delete_volume (vref v)
  | [ Word "volume-action-attach"; Word v; Quoted instance ] ->
    Volume_action_attach (vref v, instance)
  | [ Word "volume-action-detach"; Word v ] -> Volume_action_detach (vref v)
  | [ Word "create-server"; Word idx; Quoted name ] ->
    Create_server { idx = int_of (after "#" idx); name }
  | [ Word "list-servers" ] -> List_servers
  | [ Word "show-server"; Word s ] -> Show_server (sref s)
  | [ Word "delete-server"; Word s ] -> Delete_server (sref s)
  | [ Word "attach"; Word s; Word v ] -> Attach (sref s, vref v)
  | [ Word "detach"; Word s; Word v ] -> Detach (sref s, vref v)
  | [ Word "create-image"; Word idx; Quoted name; Word size_mb ] ->
    Create_image
      { idx = int_of (after "#" idx); name;
        size_mb = int_of (after "size_mb=" size_mb) }
  | [ Word "list-images" ] -> List_images
  | [ Word "show-image"; Word i ] -> Show_image (iref i)
  | [ Word "set-image-status"; Word i; Quoted status ] ->
    Set_image_status (iref i, status)
  | [ Word "delete-image"; Word i ] -> Delete_image (iref i)
  | [ Word "revoke-token"; Word r ] -> Revoke_token (role r)
  | [ Word "relogin"; Word r ] -> Relogin (role r)
  | [ Word "churn-project"; Word k ] -> Churn_project (int_of k)
  | _ -> malformed "malformed operation"

let step_of = function
  | Word actor :: op -> { actor = role actor; op = op_of op }
  | _ -> malformed "a step starts with a role"

let rec split_steps current = function
  | [] -> [ List.rev current ]
  | Semi :: rest -> List.rev current :: split_steps [] rest
  | token :: rest -> split_steps (token :: current) rest

let of_line line =
  try
    match tokenize line with
    | [] -> Ok []
    | tokens -> Ok (List.map step_of (split_steps [] tokens))
  with
  | Malformed msg | Scanf.Scan_failure msg | Failure msg ->
    Error (Printf.sprintf "%s in %S" msg line)
  | End_of_file -> Error (Printf.sprintf "unterminated string in %S" line)

(* ------------------------------------------------------------------ *)
(* Scripted traces                                                     *)
(* ------------------------------------------------------------------ *)

(* The §VI-D validation workload: a volume lifecycle driven to the
   quota boundary with denied escalations interleaved.
   Seed-independent by design — it is a script, not a distribution. *)
let standard_trace =
  [ (* 1. admin creates a volume *)
    { actor = Admin;
      op = Create_volume { idx = 0; name = "data1"; size = 10; source = No_image }
    };
    (* 2. member lists volumes *)
    { actor = Member; op = List_volumes };
    (* 3. user reads the volume (allowed: read for everyone) *)
    { actor = User; op = Show_volume (Fresh 0) };
    (* 4. user tries to create a volume (denied) *)
    { actor = User;
      op =
        Create_volume
          { idx = 1; name = "forbidden"; size = 10; source = No_image }
    };
    (* 5. member tries to delete (denied: admin only) [kills M1] *)
    { actor = Member; op = Delete_volume (Fresh 0) };
    (* 6. user tries to rename (denied) [kills M2] *)
    { actor = User; op = Rename_volume (Fresh 0, "hacked") };
    (* 7. user reads again [kills M3 via wrongly-denied read] *)
    { actor = User; op = Show_volume (Fresh 0) };
    (* 8. member renames (allowed) *)
    { actor = Member; op = Rename_volume (Fresh 0, "data1b") };
    (* 9. admin fills the quota *)
    { actor = Admin;
      op = Create_volume { idx = 2; name = "data2"; size = 10; source = No_image }
    };
    { actor = Admin;
      op = Create_volume { idx = 3; name = "data3"; size = 10; source = No_image }
    };
    (* 10. admin exceeds the quota (denied by contract) [kills M4] *)
    { actor = Admin;
      op =
        Create_volume
          { idx = 4; name = "over-quota"; size = 10; source = No_image }
    };
    (* 11. admin deletes one [kills M6/M8] *)
    { actor = Admin; op = Delete_volume (Fresh 3) };
    (* 12. attach, then try deleting the in-use volume [kills M5] *)
    { actor = Admin; op = Volume_action_attach (Fresh 0, "srv-test") };
    { actor = Admin; op = Delete_volume (Fresh 0) };
    (* 14. detach and delete for real *)
    { actor = Admin; op = Volume_action_detach (Fresh 0) };
    { actor = Admin; op = Delete_volume (Fresh 0) };
    (* 15. final listings *)
    { actor = Admin; op = List_volumes };
    { actor = User; op = List_volumes }
  ]

(* The cross-service extension.  After standard_trace the project holds
   exactly one volume (Fresh 2 = "data2", 10 GB) — comfortably inside
   the 3-volume / 100 GB quota, so phases B..D never trip quota guards.

   Phase B exercises the monitored attach/detach path (reqs 3.1/3.2):
   the happy path, the already-attached 409 [X2], detach [X4], attach
   of an absent volume [X1], attach to a ghost server [X3], and
   server deletion releasing its attachments [X8].

   Phase C exercises image-backed volume creation (req 3.3) and
   backing-image protection (req 3.4): a create naming a live image, a
   create naming a missing image [X5], deletion of an active image,
   deletion of a deactivated-but-backing image [X6], and a clean
   delete of a scratch image.

   Phase D exercises token revocation visibility (req 3.7): after the
   admin revokes the user's token, the user's reads must be denied
   until relogin [X7]. *)
let cross_trace =
  standard_trace
  @ [ (* --- Phase B: compute / attachments --- *)
      { actor = Admin; op = Create_server { idx = 0; name = "app-1" } };
      { actor = Member; op = List_servers };
      { actor = Admin; op = Show_server (Live 0) };
      (* attach the surviving volume (available -> in-use) *)
      { actor = Admin; op = Attach (Live 0, Fresh 2) };
      (* attaching again: volume is busy, 409 [kills X2] *)
      { actor = Admin; op = Attach (Live 0, Fresh 2) };
      (* detach restores availability [kills X4] *)
      { actor = Admin; op = Detach (Live 0, Fresh 2) };
      (* attach of a volume that does not exist, 404 [kills X1] *)
      { actor = Admin; op = Attach (Live 0, Absent 0) };
      (* attach to a server that does not exist, 404 [kills X3] *)
      { actor = Admin; op = Attach (Ghost 0, Fresh 2) };
      (* detach of a volume that is not attached, 409 *)
      { actor = Member; op = Detach (Live 0, Fresh 2) };
      (* re-attach, then delete the server: must release [kills X8] *)
      { actor = Admin; op = Attach (Live 0, Fresh 2) };
      { actor = Admin; op = Delete_server (Live 0) };
      (* --- Phase C: images / backed volumes --- *)
      { actor = Admin; op = Create_image { idx = 0; name = "base-img"; size_mb = 512 } };
      { actor = Admin; op = Set_image_status (Img 0, "active") };
      { actor = Member; op = List_images };
      { actor = Admin; op = Show_image (Img 0) };
      (* image-backed create naming a live active image *)
      { actor = Admin;
        op =
          Create_volume
            { idx = 5; name = "from-image"; size = 10;
              source = From_image (Img 0) }
      };
      (* image-backed create naming a missing image, 400 [kills X5] *)
      { actor = Admin;
        op =
          Create_volume
            { idx = 6; name = "bad-backing"; size = 10;
              source = From_image (No_such_image 0) }
      };
      (* deleting an active image is denied *)
      { actor = Admin; op = Delete_image (Img 0) };
      { actor = Admin; op = Set_image_status (Img 0, "deactivated") };
      (* deleting the image backing "from-image", 409 [kills X6] *)
      { actor = Admin; op = Delete_image (Img 0) };
      (* a scratch image deletes cleanly *)
      { actor = Admin; op = Create_image { idx = 1; name = "scratch"; size_mb = 64 } };
      { actor = Admin; op = Delete_image (Img 1) };
      (* user may not create images *)
      { actor = User; op = Create_image { idx = 2; name = "no-way"; size_mb = 8 } };
      (* --- Phase D: token revocation visibility --- *)
      { actor = Admin; op = Revoke_token User };
      (* revoked token: reads denied until relogin [kills X7] *)
      { actor = User; op = List_volumes };
      { actor = User; op = Show_volume (Fresh 2) };
      { actor = User; op = Relogin User };
      { actor = User; op = List_volumes };
      (* final sweep *)
      { actor = Admin; op = List_volumes };
      { actor = Member; op = List_images };
      { actor = Admin; op = List_servers }
    ]

(* ------------------------------------------------------------------ *)
(* Seeded mixes                                                        *)
(* ------------------------------------------------------------------ *)

(* The serving benchmark's read-dominant mix, verbatim: per step one
   d10 draw — 0-2 list, 3-5 show a stable volume, 6-7 rename a stable
   volume, 8 create, 9 delete the next unused victim (falling back to a
   listing once the victim pool is dry). *)
let read_heavy_trace ~steps ~victims ~seed =
  let rng = Cm_core.Prng.of_seed seed in
  let next_victim = ref 0 in
  let next_fresh = ref 0 in
  List.init steps (fun step ->
      match Cm_core.Prng.int rng 10 with
      | 0 | 1 | 2 -> { actor = Member; op = List_volumes }
      | 3 | 4 | 5 ->
        { actor = Member; op = Show_volume (Stable (Cm_core.Prng.int rng 64)) }
      | 6 | 7 ->
        { actor = Member;
          op =
            Rename_volume
              ( Stable (Cm_core.Prng.int rng 64),
                Printf.sprintf "ren-%d" step )
        }
      | 8 ->
        let idx = !next_fresh in
        incr next_fresh;
        { actor = Member;
          op =
            Create_volume
              { idx; name = Printf.sprintf "new-%d" step; size = 1;
                source = No_image }
        }
      | _ ->
        if !next_victim < victims then begin
          let k = !next_victim in
          incr next_victim;
          { actor = Admin; op = Delete_volume (Victim k) }
        end
        else { actor = Member; op = List_volumes })

(* Tenant-lifecycle churn.  Compile-time bookkeeping (stacks of live
   fresh volumes / servers, image status tracking) keeps every emitted
   step verdict-consistent on a fault-free cloud: we only move images
   along legal status edges and only delete images whose tracked
   status is not "active", so contract guards and cloud behaviour
   agree whether a step is accepted or denied. *)
let churn_heavy_trace ~steps ~seed =
  let rng = Cm_core.Prng.of_seed seed in
  let next_fresh = ref 0 in
  let live_volumes = ref [] in
  let next_server = ref 0 in
  let live_servers = ref [] in
  let next_image = ref 0 in
  (* most-recent first: (idx, tracked status) *)
  let images = ref [] in
  let next_churn = ref 0 in
  List.init steps (fun step ->
      match Cm_core.Prng.int rng 16 with
      | 0 | 1 ->
        let idx = !next_fresh in
        incr next_fresh;
        live_volumes := idx :: !live_volumes;
        { actor = Admin;
          op =
            Create_volume
              { idx; name = Printf.sprintf "churn-%d" step; size = 1;
                source = No_image }
        }
      | 2 -> (
        match !live_volumes with
        | idx :: rest ->
          live_volumes := rest;
          { actor = Admin; op = Delete_volume (Fresh idx) }
        | [] -> { actor = Member; op = List_volumes })
      | 3 ->
        let idx = !next_fresh in
        incr next_fresh;
        live_volumes := idx :: !live_volumes;
        { actor = Member;
          op =
            Create_volume
              { idx; name = Printf.sprintf "mchurn-%d" step; size = 1;
                source = No_image }
        }
      | 4 ->
        let idx = !next_server in
        incr next_server;
        live_servers := idx :: !live_servers;
        { actor = Admin;
          op = Create_server { idx; name = Printf.sprintf "srv-%d" step } }
      | 5 -> (
        match !live_servers with
        | idx :: rest ->
          live_servers := rest;
          { actor = Admin; op = Delete_server (Live idx) }
        | [] -> { actor = Member; op = List_servers })
      | 6 ->
        let k = !next_churn in
        incr next_churn;
        { actor = Admin; op = Churn_project k }
      | 7 -> { actor = Admin; op = Revoke_token User }
      | 8 -> { actor = User; op = Relogin User }
      | 9 -> { actor = User; op = List_volumes }
      | 10 ->
        { actor = Member; op = Show_volume (Stable (Cm_core.Prng.int rng 64)) }
      | 11 ->
        let idx = !next_image in
        incr next_image;
        images := (idx, "queued") :: !images;
        { actor = Admin;
          op =
            Create_image
              { idx; name = Printf.sprintf "img-%d" step; size_mb = 16 } }
      | 12 -> (
        (* cycle the most recent image along a legal status edge *)
        match !images with
        | (idx, status) :: rest ->
          let next =
            match status with
            | "queued" -> "active"
            | "active" -> "deactivated"
            | _ -> "active"
          in
          images := (idx, next) :: rest;
          { actor = Admin; op = Set_image_status (Img idx, next) }
        | [] -> { actor = Member; op = List_images })
      | 13 -> (
        (* delete the most recent image that is not active *)
        let rec split acc = function
          | [] -> None
          | ((_, status) as hd) :: tl when status <> "active" ->
            Some (hd, List.rev_append acc tl)
          | hd :: tl -> split (hd :: acc) tl
        in
        match split [] !images with
        | Some ((idx, _), rest) ->
          images := rest;
          { actor = Admin; op = Delete_image (Img idx) }
        | None -> { actor = Member; op = List_images })
      | 14 -> { actor = Member; op = List_volumes }
      | _ ->
        { actor = User; op = Show_volume (Stable (Cm_core.Prng.int rng 64)) })

(* Predicted-denial traffic: nearly every step should be rejected, and
   the rejection must be verdict-consistent (cloud denies, guard is
   False or the RBAC entry excludes the actor).  The two "allowed"
   arms keep both sides of the quota boundary in play — the admin
   create is accepted while under quota and contract-denied at it,
   consistent either way. *)
let adversarial_trace ~steps ~seed =
  let rng = Cm_core.Prng.of_seed seed in
  let next_fresh = ref 0 in
  List.init steps (fun step ->
      match Cm_core.Prng.int rng 9 with
      | 0 ->
        let idx = !next_fresh in
        incr next_fresh;
        { actor = User;
          op =
            Create_volume
              { idx; name = Printf.sprintf "sneak-%d" step; size = 1;
                source = No_image }
        }
      | 1 ->
        { actor = Member;
          op = Delete_volume (Stable (Cm_core.Prng.int rng 64)) }
      | 2 ->
        { actor = User;
          op =
            Rename_volume
              ( Stable (Cm_core.Prng.int rng 64),
                Printf.sprintf "pwned-%d" step )
        }
      | 3 ->
        { actor = Admin;
          op =
            Attach (Ghost (Cm_core.Prng.int rng 8),
                    Stable (Cm_core.Prng.int rng 64)) }
      | 4 ->
        { actor = Admin;
          op =
            Detach (Ghost (Cm_core.Prng.int rng 8),
                    Stable (Cm_core.Prng.int rng 64)) }
      | 5 ->
        let idx = !next_fresh in
        incr next_fresh;
        { actor = Admin;
          op =
            Create_volume
              { idx; name = Printf.sprintf "ghost-backed-%d" step; size = 1;
                source = From_image (No_such_image (Cm_core.Prng.int rng 8)) }
        }
      | 6 -> { actor = User; op = List_volumes }
      | 7 ->
        let idx = !next_fresh in
        incr next_fresh;
        { actor = Admin;
          op =
            Create_volume
              { idx; name = Printf.sprintf "legit-%d" step; size = 1;
                source = No_image }
        }
      | _ ->
        { actor = Admin; op = Delete_volume (Absent (Cm_core.Prng.int rng 8)) })

(* ------------------------------------------------------------------ *)
(* Named mixes                                                         *)
(* ------------------------------------------------------------------ *)

type mix = {
  mix_name : string;
  description : string;
  compile : seed:int -> trace;
}

let standard =
  { mix_name = "standard";
    description =
      "the scripted validation workload of the paper's case study \
       (seed-independent)";
    compile = (fun ~seed:_ -> standard_trace)
  }

let cross =
  { mix_name = "cross";
    description =
      "standard plus cross-service scenarios: monitored attach/detach, \
       image-backed volumes, token revocation (seed-independent)";
    compile = (fun ~seed:_ -> cross_trace)
  }

let read_heavy =
  { mix_name = "read-heavy";
    description =
      "the serving benchmark's d10 mix: 30% list, 30% show, 20% rename, \
       10% create, 10% victim delete";
    compile = (fun ~seed -> read_heavy_trace ~steps:256 ~victims:16 ~seed)
  }

let churn_heavy =
  { mix_name = "churn-heavy";
    description =
      "tenant-lifecycle churn: volume/server create-delete waves, image \
       status cycling, project churn, token revoke/relogin races";
    compile = (fun ~seed -> churn_heavy_trace ~steps:256 ~seed)
  }

let adversarial =
  { mix_name = "adversarial";
    description =
      "predicted-denial traffic: privilege escalations, ghost-server \
       attaches, missing-image backings, absent-volume deletes";
    compile = (fun ~seed -> adversarial_trace ~steps:256 ~seed)
  }

let mixes = [ standard; cross; read_heavy; churn_heavy; adversarial ]

let find name =
  List.find_opt (fun m -> String.equal m.mix_name name) mixes
