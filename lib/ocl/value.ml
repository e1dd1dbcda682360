module Json = Cm_json.Json

type t = Undef | Json of Json.t
type tribool = True | False | Unknown

let of_json j = Json j
let of_bool b = Json (Json.Bool b)
let of_int n = Json (Json.Int n)
let of_string s = Json (Json.String s)

let truth = function
  | Json (Json.Bool true) -> True
  | Json (Json.Bool false) -> False
  | Json _ | Undef -> Unknown

let as_collection = function
  | Undef -> []
  | Json (Json.List items) -> List.map (fun j -> Json j) items
  | Json other -> [ Json other ]

let equal_value a b =
  match a, b with
  | Undef, _ | _, Undef -> Unknown
  | Json x, Json y -> if Json.equal x y then True else False

(* Change detection for the incremental engine: physical equality first,
   deep JSON equality as the ground truth.  The shortcut only pays where
   a caller hands back the very value it bound before: the monitor's
   observer rebuilds its composite documents (the context binding, the
   grafted sub-collections) on every exchange, so those reach the deep
   compare even when every read was a cache hit. *)
let same a b =
  a == b
  ||
  match a, b with
  | Undef, Undef -> true
  | Json x, Json y -> x == y || Json.equal x y
  | Undef, Json _ | Json _, Undef -> false

let compare_order a b =
  match a, b with
  | Json (Json.Int x), Json (Json.Int y) -> Some (Int.compare x y)
  | Json (Json.String x), Json (Json.String y) -> Some (String.compare x y)
  | Json jx, Json jy ->
    (match Json.to_float jx, Json.to_float jy with
     | Some fx, Some fy -> Some (Float.compare fx fy)
     | _, _ -> None)
  | Undef, _ | _, Undef -> None

let pp ppf = function
  | Undef -> Fmt.string ppf "undefined"
  | Json j -> Json.pp ppf j

let pp_tribool ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Unknown -> Fmt.string ppf "unknown"

let tri_not = function True -> False | False -> True | Unknown -> Unknown

let tri_and a b =
  match a, b with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let tri_or a b =
  match a, b with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let tri_implies a b = tri_or (tri_not a) b

let tri_xor a b =
  match a, b with
  | Unknown, _ | _, Unknown -> Unknown
  | x, y -> if x <> y then True else False
