exception Crashed of string

type t = {
  counts : (string, int) Hashtbl.t;
  mutable armed : (string * int) option;
  mutable fired : string option;
}

let create () = { counts = Hashtbl.create 16; armed = None; fired = None }

let arm t ~site ~nth =
  t.armed <- Some (site, nth);
  t.fired <- None

let at opt site =
  match opt with
  | None -> ()
  | Some t ->
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.counts site) in
    Hashtbl.replace t.counts site n;
    (match t.armed with
     | Some (armed_site, nth) when String.equal armed_site site && n = nth ->
       t.fired <- Some site;
       t.armed <- None;
       raise (Crashed site)
     | Some _ | None -> ())

let fired t = t.fired

let hits t =
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
