type t = {
  monitors : Monitor.t array;
      (* one generation serves the whole pool: the first create
         generates it and the others find it in [Monitor.create]'s
         memo *)
  shard_memo : (string, int) Hashtbl.t;
      (* tenant id -> shard index.  Admission-side only: partitioning
         and [shard_of] run on the caller's domain before any fan-out,
         so the memo needs no lock. *)
}

let create ?(shards = 1) config backend =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let rec replicas acc n =
    if n = 0 then Ok (Array.of_list acc)
    else
      Result.bind (Monitor.create config backend) (fun m ->
          replicas (m :: acc) (n - 1))
  in
  Result.map
    (fun monitors -> { monitors; shard_memo = Hashtbl.create 64 })
    (replicas [] shards)

let shards t = Array.length t.monitors
let monitor t i = t.monitors.(i)

(* FNV-1a, masked to a non-negative int.  Any stable string hash works;
   what matters is that the partition depends only on the tenant id
   and the shard count. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

(* [Monitor.tenant_of] reads only the shared derivation, never replica
   0's run-time state.  The hash is memoized because the same few
   tenant ids arrive millions of times. *)
let shard_of t req =
  match Monitor.tenant_of t.monitors.(0) req with
  | None -> 0
  | Some tenant ->
    (match Hashtbl.find_opt t.shard_memo tenant with
     | Some s -> s
     | None ->
       let s = fnv1a tenant mod Array.length t.monitors in
       Hashtbl.add t.shard_memo tenant s;
       s)

let handle_all ?(domains = 1) t reqs =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let shard_count = Array.length t.monitors in
  (* Partition by tenant, preserving arrival order within each shard. *)
  let queues = Array.make shard_count [] in
  for i = n - 1 downto 0 do
    let s = shard_of t reqs.(i) in
    queues.(s) <- i :: queues.(s)
  done;
  let results = Array.make n None in
  let serve s =
    List.iter
      (fun i -> results.(i) <- Some (Monitor.handle t.monitors.(s) reqs.(i)))
      queues.(s)
  in
  (* Each slot of [results] is written by exactly one shard and read
     only after every domain is joined, so the array needs no lock.
     Batches run on the process-wide persistent pool: domains are
     spawned the first time a count is requested and parked between
     batches, so steady-state serving never pays [Domain.spawn]. *)
  ignore (Cm_core.Domain_pool.run_shared ~domains shard_count serve);
  Array.map
    (function Some o -> o | None -> assert false (* every index queued *))
    results

let cache_stats t =
  Array.fold_left
    (fun acc m ->
      match Monitor.cache_stats m with
      | None -> acc
      | Some s ->
        Obs_cache.
          { hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            invalidated = acc.invalidated + s.invalidated
          })
    Obs_cache.{ hits = 0; misses = 0; invalidated = 0 }
    t.monitors

let eval_stats t =
  Array.fold_left
    (fun acc m ->
      let s = Monitor.eval_stats m in
      Cm_contracts.Runtime.
        { evals = acc.evals + s.evals;
          replays = acc.replays + s.replays;
          node_hits = acc.node_hits + s.node_hits;
          node_evals = acc.node_evals + s.node_evals;
          refreshes = acc.refreshes + s.refreshes;
          slots_changed = acc.slots_changed + s.slots_changed
        })
    Cm_contracts.Runtime.
      { evals = 0;
        replays = 0;
        node_hits = 0;
        node_evals = 0;
        refreshes = 0;
        slots_changed = 0
      }
    t.monitors

