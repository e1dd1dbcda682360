type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let null = Null
let bool b = Bool b
let int n = Int n
let float f = Float f
let string s = String s
let list items = List items
let obj members = Obj members

let member key = function
  | Obj members -> List.assoc_opt key members
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let member_exn key json =
  match member key json with
  | Some value -> value
  | None -> invalid_arg (Printf.sprintf "Json.member_exn: no key %S" key)

let index i = function
  | List items -> List.nth_opt items i
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string = function String s -> Some s | _ -> None
let to_list = function List items -> Some items | _ -> None

let keys = function
  | Obj members -> List.map fst members
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> []

(* Duplicate keys keep their first binding, the one [member] reads.
   Sorting raises on the first pair of equal keys: a comparison sort can
   only order two equal keys by comparing them, so a sort that does not
   raise had none, and the common case costs no extra pass.  After a
   stable sort a duplicate key's bindings are adjacent and in source
   order. *)
exception Duplicate_key

let compare_unique_keys (k1, _) (k2, _) =
  let c = String.compare k1 k2 in
  if c = 0 then raise_notrace Duplicate_key else c

let compare_keys (k1, _) (k2, _) = String.compare k1 k2

let rec first_of_each = function
  | ((k1, _) as first) :: (k2, _) :: rest when String.equal k1 k2 ->
    first_of_each (first :: rest)
  | member :: rest -> member :: first_of_each rest
  | [] -> []

let rec sort_keys = function
  | (Null | Bool _ | Int _ | Float _ | String _) as atom -> atom
  | List items -> List (List.map sort_keys items)
  | Obj members ->
    let members = List.map (fun (k, v) -> (k, sort_keys v)) members in
    Obj
      (match List.stable_sort compare_unique_keys members with
       | sorted -> sorted
       | exception Duplicate_key ->
         first_of_each (List.stable_sort compare_keys members))

(* Numeric values compare by magnitude so that [Int 1] = [Float 1.]: cloud
   responses are free to serialize counters either way. *)
let rec compare_norm a b =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ | Float _ -> 2
    | String _ -> 3
    | List _ -> 4
    | Obj _ -> 5
  in
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | (Int _ | Float _), (Int _ | Float _) ->
    let fx = match a with Int n -> float_of_int n | Float f -> f | _ -> 0. in
    let fy = match b with Int n -> float_of_int n | Float f -> f | _ -> 0. in
    Float.compare fx fy
  | String x, String y -> String.compare x y
  | List xs, List ys -> compare_lists xs ys
  | Obj xs, Obj ys -> compare_members xs ys
  | _ -> Int.compare (rank a) (rank b)

and compare_lists xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare_norm x y in
    if c <> 0 then c else compare_lists xs' ys'

and compare_members xs ys =
  compare_lists
    (List.map (fun (k, v) -> List [ String k; v ]) xs)
    (List.map (fun (k, v) -> List [ String k; v ]) ys)

let compare a b = compare_norm (sort_keys a) (sort_keys b)
let equal a b = compare a b = 0

let rec merge_patch target ~patch =
  match patch with
  | Obj patch_members ->
    let base = match target with Obj members -> members | _ -> [] in
    let merged =
      List.fold_left
        (fun acc (key, value) ->
          let without =
            List.filter (fun (k, _) -> not (String.equal k key)) acc
          in
          match value with
          | Null -> without
          | Obj _ ->
            let old = Option.value ~default:(Obj []) (List.assoc_opt key acc) in
            without @ [ (key, merge_patch old ~patch:value) ]
          | _ -> without @ [ (key, value) ])
        base patch_members
    in
    Obj merged
  | _ -> patch

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "%S" s
  | List items -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ", ") pp) items
  | Obj members ->
    let pp_member ppf (k, v) = Fmt.pf ppf "%S: %a" k pp v in
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_member) members
