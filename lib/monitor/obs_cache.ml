module Response = Cm_http.Response

type scope = Per_request | Cross_request

(* Two-level table keyed by subject token then path: lookups hash the
   strings the caller already holds instead of allocating a composite
   key record per probe — the observer probes this on every GET of
   every observation, so the allocation audit flattened it.

   Shard-local by construction: every cache instance belongs to exactly
   one [Monitor.t], which one shard owns, so the counters are plain
   mutable ints — an [Atomic] here would put a lock-prefixed RMW (and a
   potential cross-core cache-line bounce) on every probe of every
   observation for no consistency gain.  Aggregation across shards
   happens on demand ([Shard.cache_stats]) after serving quiesces. *)
type t = {
  scope : scope;
  tables : (string option, (string, Response.t) Hashtbl.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidated : int;
}

type stats = { hits : int; misses : int; invalidated : int }

let create scope =
  { scope; tables = Hashtbl.create 4; hits = 0; misses = 0; invalidated = 0 }

let find t ~token path =
  match Hashtbl.find_opt t.tables token with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some inner ->
    (match Hashtbl.find_opt inner path with
     | Some _ as hit ->
       t.hits <- t.hits + 1;
       hit
     | None ->
       t.misses <- t.misses + 1;
       None)

(* Definite state answers only: a 2xx is the resource, a 404 is its
   definite absence (stable until an overlapping mutation).  Transient
   failures surfaced by the resilience layer (5xx, degraded responses)
   must be retried on the next observation, never replayed. *)
let cacheable (resp : Response.t) =
  Response.is_success resp || resp.Response.status = Cm_http.Status.not_found

let remember t ~token path resp =
  if cacheable resp then begin
    let inner =
      match Hashtbl.find_opt t.tables token with
      | Some inner -> inner
      | None ->
        let inner = Hashtbl.create 16 in
        Hashtbl.add t.tables token inner;
        inner
    in
    Hashtbl.replace inner path resp
  end

let segments path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let rec is_prefix xs ys =
  match xs, ys with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'

let overlaps cached mutated =
  is_prefix cached mutated || is_prefix mutated cached

let invalidate_overlapping (t : t) mutated_path =
  let mutated = segments mutated_path in
  Hashtbl.iter
    (fun _token inner ->
      let stale =
        Hashtbl.fold
          (fun path _ acc ->
            if overlaps (segments path) mutated then path :: acc else acc)
          inner []
      in
      List.iter
        (fun path ->
          Hashtbl.remove inner path;
          t.invalidated <- t.invalidated + 1)
        stale)
    t.tables

let clear t = Hashtbl.reset t.tables

let begin_request t = match t.scope with Per_request -> clear t | _ -> ()

let stats (cache : t) =
  { hits = cache.hits;
    misses = cache.misses;
    invalidated = cache.invalidated
  }

let hit_rate { hits; misses; _ } =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total
