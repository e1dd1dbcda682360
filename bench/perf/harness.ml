(* One run of one workload, in sections:

   - setup: the world is built [setups] times, each timed; the median is
     [setup_s] and the last world (or two) is served;
   - warm: [warm] requests, untimed, so caches fill and lazy set-up
     finishes;
   - retain: [retain] requests between two full major collections; the
     growth in live words is [retained_bytes_per_req];
   - closed: one client sends its next request as soon as the previous
     one completed, [closed_n] requests timed in chunks; [req_per_s] is
     the 90th percentile of the chunk rates (see [closed_rate]);
   - open: [open_n] requests fall due at the frozen [rate]; the
     generator busy-waits to each due time and each latency is measured
     from the due time, so a stall also delays what queues behind it.

   Every section has a fixed request count, so a run serves the same
   requests in the same order whatever the speed of the code under
   test: state that grows with traffic is the same when each section
   starts.

   The conformance strings of the warm and retain requests, in arrival
   order, are the run's digest.  Monitor outcome logs are dropped after
   the retain section and every 4096 requests after it, so memory stays
   bounded; the retain section measures what the logs keep.

   In a traced run the closed section alternates untraced and traced
   chunks: spans come from the traced chunks, the tracing overhead from
   the two chunk-rate estimates, and the GC counters from the untraced
   chunks. *)

module Outcome = Cm_monitor.Outcome
module Shard = Cm_monitor.Shard
module Workload = Cm_workload.Workload
module Exec = Cm_workload.Exec

type plan = {
  setups : int;
  warm : int;
  retain : int;
  closed_n : int;  (* a multiple of [chunk] *)
  open_n : int;
  rate : float;  (* open-loop offered rate, req/s *)
  chunk : int;  (* closed-loop chunk, requests *)
  rounds : int;  (* campaign rounds *)
  traced : bool;
}

type metric = { name : string; value : float; unit : string }

type result = {
  attempted : int;
  failed : int;
  problems : string list;  (* failed correctness checks *)
  digest : string;
  fingerprint : string;
  end_to_end : metric list;
  per_layer : metric list;
  extras : metric list;  (* printed, not part of BENCHMARK.json *)
}

let m name value unit = { name; value; unit }

let median xs =
  match xs with
  | [] -> Float.nan
  | _ -> Cm_core.Stopwatch.percentile (Array.of_list xs) 50.

let ratio a b = if b = 0. then 0. else a /. b

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).live_words

(* A failed outcome: the monitor could not conclude, or it reported a
   violation against a cloud that has no fault injected. *)
let is_failed ~fault_free (c : Outcome.conformance) =
  match c with
  | Monitor_error _ | Degraded _ | Undefined _ -> true
  | c -> fault_free && Outcome.is_violation c

(* The digest's input: one conformance string per request, in arrival
   order. *)
let add_conformance buf (o : Outcome.t) =
  Buffer.add_string buf (Outcome.conformance_to_string o.conformance);
  Buffer.add_char buf '\n'

let md5 buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- counters taken around the closed section -------------------------- *)

type globals = { locks : int; dedup : int; spawns : int }

let globals () =
  let dedup =
    List.fold_left
      (fun acc (s : Cm_core.Lockstat.stats) ->
        if s.st_name = "cloud.dedup" then acc + s.st_acquisitions else acc)
      0 (Cm_core.Lockstat.by_name ())
  in
  { locks = Cm_core.Lockstat.total_acquisitions (); dedup;
    spawns = Cm_core.Domain_pool.spawn_count () }

type gcs = { minor : int; major : int; promoted : float; words : float }

let gcs () =
  let s = Gc.quick_stat () in
  { minor = s.minor_collections; major = s.major_collections;
    promoted = s.promoted_words; words = s.minor_words }

(* ---- the section state machine ----------------------------------------- *)

type phase = Warm | Retain | Closed | Open | Done

exception Finished

type st = {
  plan : plan;
  total : int;  (* requests the trace holds *)
  reset_logs : unit -> unit;
  counters : unit -> Worlds.counters;
  mutable phase : phase;
  mutable served : int;
  mutable in_phase : int;
  mutable since_reset : int;
  mutable failed : int;
  prefix : Buffer.t;
  mutable live0 : float;
  mutable retained : float;
  (* closed *)
  mutable t0 : int;
  mutable closed_first : int;
  mutable closed_reqs : int;
  mutable chunks : int;
  mutable chunk_t0 : int;
  mutable chunk_n : int;
  mutable chunk_traced : bool;
  mutable gc_chunk : gcs;
  mutable rates : float list;
  mutable traced_rates : float list;
  mutable traced_reqs : int;
  mutable traced_ns : int;
  mutable untraced_reqs : int;
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable gc_promoted : float;
  mutable gc_words : float;
  mutable c0 : Worlds.counters;
  mutable c1 : Worlds.counters;
  mutable g0 : globals;
  mutable g1 : globals;
  (* open *)
  mutable open_n : int;
  mutable interval : float;
  mutable lat : float array;
  mutable late : float array;
}

let create plan ~total ~reset_logs ~counters =
  { plan; total; reset_logs; counters; phase = Warm; served = 0; in_phase = 0;
    since_reset = 0; failed = 0; prefix = Buffer.create 65536; live0 = 0.;
    retained = 0.; t0 = 0; closed_first = 0; closed_reqs = 0; chunks = 0;
    chunk_t0 = 0; chunk_n = 0; chunk_traced = false; gc_chunk = gcs ();
    rates = []; traced_rates = []; traced_reqs = 0; traced_ns = 0;
    untraced_reqs = 0; gc_minor = 0; gc_major = 0; gc_promoted = 0.;
    gc_words = 0.; c0 = Worlds.zero_counters; c1 = Worlds.zero_counters;
    g0 = globals (); g1 = globals (); open_n = 0; interval = 0.; lat = [||];
    late = [||] }

let enter st phase =
  st.phase <- phase;
  st.in_phase <- 0

let start_chunk st =
  st.chunk_traced <- st.plan.traced && st.chunks mod 2 = 1;
  Spans.enabled := st.chunk_traced;
  st.chunk_n <- 0;
  if not st.chunk_traced then st.gc_chunk <- gcs ();
  st.chunk_t0 <- Spans.now ()

let end_chunk st t =
  let ns = t - st.chunk_t0 in
  let rate = float_of_int st.chunk_n /. (float_of_int ns /. 1e9) in
  if st.chunk_traced then begin
    st.traced_rates <- rate :: st.traced_rates;
    st.traced_reqs <- st.traced_reqs + st.chunk_n;
    st.traced_ns <- st.traced_ns + ns
  end
  else begin
    let g = gcs () in
    st.rates <- rate :: st.rates;
    st.untraced_reqs <- st.untraced_reqs + st.chunk_n;
    st.gc_minor <- st.gc_minor + g.minor - st.gc_chunk.minor;
    st.gc_major <- st.gc_major + g.major - st.gc_chunk.major;
    st.gc_promoted <- st.gc_promoted +. g.promoted -. st.gc_chunk.promoted;
    st.gc_words <- st.gc_words +. g.words -. st.gc_chunk.words
  end;
  st.chunks <- st.chunks + 1

let start_closed st =
  enter st Closed;
  st.closed_first <- st.served;
  st.c0 <- st.counters ();
  st.g0 <- globals ();
  st.t0 <- Spans.now ();
  start_chunk st

let start_open st =
  Spans.enabled := false;
  st.closed_reqs <- st.served - st.closed_first;
  st.c1 <- st.counters ();
  st.g1 <- globals ();
  enter st Open;
  st.open_n <- max 0 (min st.plan.open_n (st.total - st.served));
  st.lat <- Array.make st.open_n 0.;
  st.late <- Array.make st.open_n 0.;
  st.interval <- 1e9 /. st.plan.rate;
  st.t0 <- Spans.now ();
  if st.open_n = 0 then enter st Done

(* Account one completed request (before [advance]). *)
let account st (o : Outcome.t) ~due ~started ~t =
  let c = o.conformance in
  let bad = is_failed ~fault_free:true c in
  if bad then st.failed <- st.failed + 1;
  match st.phase with
  | Warm | Retain -> add_conformance st.prefix o
  | Open ->
    let i = st.in_phase in
    st.lat.(i) <- (if bad then Float.infinity else float_of_int (t - due) /. 1e3);
    st.late.(i) <- float_of_int (started - due) /. 1e3;
    st.in_phase <- i + 1
  | Closed | Done -> ()

(* [n] requests just completed at [t]: move the sections along. *)
let advance st ~n t =
  st.served <- st.served + n;
  st.since_reset <- st.since_reset + n;
  let reset_every () =
    if st.since_reset >= 4096 then begin
      st.reset_logs ();
      st.since_reset <- 0
    end
  in
  match st.phase with
  | Warm ->
    st.in_phase <- st.in_phase + n;
    if st.in_phase >= st.plan.warm then begin
      st.reset_logs ();
      st.live0 <- live_words ();
      enter st Retain
    end
  | Retain ->
    st.in_phase <- st.in_phase + n;
    if st.in_phase >= st.plan.retain then begin
      st.retained <-
        (live_words () -. st.live0) *. float_of_int (Sys.word_size / 8)
        /. float_of_int st.in_phase;
      st.reset_logs ();
      st.since_reset <- 0;
      start_closed st
    end
  | Closed ->
    st.in_phase <- st.in_phase + n;
    st.chunk_n <- st.chunk_n + n;
    if st.chunk_n >= st.plan.chunk then begin
      end_chunk st t;
      if st.in_phase >= st.plan.closed_n then start_open st else start_chunk st
    end;
    reset_every ()
  | Open ->
    if st.in_phase >= st.open_n then enter st Done else reset_every ()
  | Done -> ()

(* Busy-wait to the next open-loop due time. *)
let due_of st i = st.t0 + int_of_float (float_of_int i *. st.interval)

let wait_until d = while Spans.now () < d do () done

(* One request, served alone (read-heavy, churn, journaled). *)
let step st serve req =
  if st.phase = Done then raise Finished;
  let due =
    if st.phase = Open then begin
      let d = due_of st st.in_phase in
      wait_until d;
      d
    end
    else 0
  in
  let started = Spans.now () in
  Spans.current := req;
  Spans.current_seq := st.served;
  let o = Spans.span Spans.Handle ~seq:st.served serve req in
  let t = Spans.now () in
  account st o ~due ~started ~t;
  advance st ~n:1 t;
  o

(* ---- metrics ------------------------------------------------------------ *)

let percentile a p = Cm_core.Stopwatch.percentile a p

(* Latency percentile [p] computed per window of [w] consecutive
   samples, and the 10th percentile across windows: the latency of the
   quietest tenth of the run, as [closed_rate] takes the fastest tenth
   of the chunks.  The host slows whole stretches of a run; the
   system's own recurring costs (collections, cache flushes, journal
   syncs) fall in every window and stay in the number. *)
let windowed lat ~w p =
  let n = if w > 0 then Array.length lat / w else 0 in
  if n < 10 then percentile lat p
  else
    percentile (Array.init n (fun k -> percentile (Array.sub lat (k * w) w) p)) 10.

let latency_metrics lat ~w =
  [ m "p50_us" (windowed lat ~w 50.) "us"; m "p99_us" (windowed lat ~w 99.) "us" ]

(* 50-ms windows of the open loop. *)
let open_window st = int_of_float (st.plan.rate /. 20.)

(* Closed-loop throughput: the 90th percentile of the chunk rates, the
   rate sustained while the shared host does not slow the run down (its
   CPU speed drifts by 10% and more from minute to minute); the median
   and the mean are reported beside it. *)
let closed_rate rates =
  match rates with
  | [] -> Float.nan
  | _ -> Cm_core.Stopwatch.percentile (Array.of_list rates) 90.

let open_extras st =
  [ m "open.samples" (float_of_int (Array.length st.lat)) "count";
    m "open.window" (float_of_int (open_window st)) "count";
    m "open.p50_us_whole" (percentile st.lat 50.) "us";
    m "open.p99_us_whole" (percentile st.lat 99.) "us";
    m "open.rate" st.plan.rate "req/s";
    m "loadgen.late_us_p99" (percentile st.late 99.) "us" ]

let closed_extras st =
  [ m "closed.requests" (float_of_int st.closed_reqs) "count";
    m "closed.chunks" (float_of_int (List.length st.rates)) "count";
    m "closed.req_per_s_median" (median st.rates) "req/s";
    m "closed.req_per_s_mean"
      (float_of_int st.untraced_reqs
      /. List.fold_left (fun acc r -> acc +. (float_of_int st.plan.chunk /. r)) 0. st.rates)
      "req/s" ]

type setups = { total_s : float list; cloud_ms : float list; monitor_ms : float list }

let setup_metrics s = m "setup_s" (median s.total_s) "s"

(* [n] fresh worlds, each timed; returns the last [keep], newest first. *)
let build_worlds ~n ~keep build =
  let kept = ref [] and s = ref { total_s = []; cloud_ms = []; monitor_ms = [] } in
  for i = 1 to n do
    let t0 = Spans.now () in
    let w, (setup : Worlds.setup) = build () in
    let total = Spans.now () - t0 in
    s :=
      { total_s = (float_of_int total /. 1e9) :: !s.total_s;
        cloud_ms = (float_of_int setup.cloud_ns /. 1e6) :: !s.cloud_ms;
        monitor_ms = (float_of_int setup.monitor_ns /. 1e6) :: !s.monitor_ms };
    if i > n - keep then kept := w :: !kept
  done;
  (!kept, !s)

(* Per-layer metrics of a traced closed section.  [handle_layer] is the
   span that encloses one served unit (a request, or a batch on
   [domains] domains). *)
let layer_metrics st ~setups ~imbalance ~handle_layer ~domains =
  let s = Spans.summarise () in
  let i = Spans.index in
  let nt = float_of_int (max 1 st.traced_reqs) in
  let nc = float_of_int (max 1 st.closed_reqs) in
  let us l = s.total_ns.(i l) /. 1e3 /. nt in
  let calls l = float_of_int s.count.(i l) /. nt in
  let c = Worlds.diff st.c1 st.c0 in
  let f = float_of_int in
  let handle_us = us handle_layer in
  let children_us =
    (s.total_ns.(i handle_layer) -. s.self_ns.(i handle_layer)) /. 1e3 /. nt
  in
  (* On [domains] domains a batch span stands for that many domains'
     time, and the children ran on all of them. *)
  let self_us = (f domains *. handle_us) -. children_us in
  let hook_us = us Spans.Journal_pre +. us Spans.Journal_barrier in
  let wall_us = f domains *. f st.traced_ns /. 1e3 /. nt in
  let ledger = self_us +. us Spans.Observe +. us Spans.Forward +. hook_us in
  let nu = f (max 1 st.untraced_reqs) in
  let per_layer =
    [ m "cloudsim.observe_calls_per_req" (calls Spans.Observe) "count";
      m "cloudsim.forward_calls_per_req" (calls Spans.Forward) "count";
      m "cloudsim.observe_us_per_req" (us Spans.Observe) "us";
      m "cloudsim.forward_us_per_req" (us Spans.Forward) "us";
      m "cloudsim.alloc_words_per_req"
        ((s.total_words.(i Spans.Observe) +. s.total_words.(i Spans.Forward)) /. nt)
        "words";
      m "cloudsim.dedup_locks_per_req" (f (st.g1.dedup - st.g0.dedup) /. nc) "count";
      m "obs_cache.hit_ratio" (ratio (f c.hits) (f (c.hits + c.misses))) "ratio";
      m "obs_cache.lookups_per_req" (f (c.hits + c.misses) /. nc) "count";
      m "obs_cache.invalidations_per_req" (f c.invalidated /. nc) "count";
      m "runtime.evals_per_req" (f c.evals /. nc) "count";
      m "runtime.replays_per_req" (f c.replays /. nc) "count";
      m "runtime.node_hit_ratio" (ratio (f c.node_hits) (f (c.node_hits + c.node_evals))) "ratio";
      m "runtime.slots_changed_per_req" (f c.slots_changed /. nc) "count";
      m "monitor.handle_us_per_req" handle_us "us";
      m "monitor.self_us_per_req" self_us "us";
      m "monitor.alloc_words_per_req" (s.total_words.(i handle_layer) /. nt) "words";
      m "monitor.self_alloc_words_per_req" (s.self_words.(i handle_layer) /. nt) "words";
      m "journal.bytes_per_req" (f c.journal_bytes /. nc) "B/req";
      m "journal.syncs_per_req" (f c.journal_syncs /. nc) "count";
      m "shard.imbalance" imbalance "ratio";
      m "domain_pool.spawns" (f (st.g1.spawns - st.g0.spawns)) "count";
      m "gc.minor_collections_per_kreq" (f st.gc_minor *. 1000. /. nu) "count";
      m "gc.major_collections_per_kreq" (f st.gc_major *. 1000. /. nu) "count";
      m "gc.promoted_words_per_req" (st.gc_promoted /. nu) "words";
      m "setup.cloud_ms" (median setups.cloud_ms) "ms";
      m "setup.monitor_create_ms" (median setups.monitor_ms) "ms";
      m "lockstat.acquisitions_per_req" (f (st.g1.locks - st.g0.locks) /. nc) "count";
      m "trace.overhead_pct"
        ((1. -. (closed_rate st.traced_rates /. closed_rate st.rates)) *. 100.)
        "%";
      m "ledger.gap_pct" ((ledger -. wall_us) /. wall_us *. 100.) "%" ]
  in
  let extras =
    [ m "journal.hook_us_per_req" hook_us "us";
      m "gc.minor_words_per_req" (st.gc_words /. nu) "words";
      m "trace.traced_requests" (f st.traced_reqs) "count";
      m "trace.wall_us_per_req" wall_us "us";
      m "trace.req_per_s" (closed_rate st.traced_rates) "req/s";
      m "trace.untraced_req_per_s" (closed_rate st.rates) "req/s" ]
  in
  (per_layer, extras)

(* The ROADMAP's add-up gate, applied from outside: the layer times must
   account for the traced wall time per request within 10%. *)
let ledger_problems per_layer =
  match List.find_opt (fun x -> x.name = "ledger.gap_pct") per_layer with
  | Some x when Float.abs x.value > 10. ->
    [ Printf.sprintf "layer ledger: layers add up to %+.1f%% of the traced wall time (limit 10%%)"
        x.value ]
  | _ -> []

(* Max over mean requests per shard, averaged over windows of 256
   arrivals — the imbalance a batch of that size sees. *)
let imbalance pool reqs ~first ~n =
  let shards = Shard.shards pool in
  let counts = Array.make shards 0 in
  let windows = ref 0 and acc = ref 0. in
  let w = 256 in
  let k = ref first in
  while !k + w <= first + n do
    Array.fill counts 0 shards 0;
    for j = !k to !k + w - 1 do
      let s = Shard.shard_of pool reqs.(j) in
      counts.(s) <- counts.(s) + 1
    done;
    let mx = Array.fold_left max 0 counts in
    acc := !acc +. (float_of_int mx /. (float_of_int w /. float_of_int shards));
    incr windows;
    k := !k + w
  done;
  if !windows = 0 then 1. else !acc /. float_of_int !windows

let finish st ~setups ~fingerprint ~problems ~per_layer ~extras =
  let problems =
    problems
    @ (if st.failed > 0 then [ Printf.sprintf "%d failed outcomes" st.failed ] else [])
    @ (if st.phase <> Done then [ "the trace ran out before the open-loop section ended" ] else [])
  in
  { attempted = st.served; failed = st.failed; problems; digest = md5 st.prefix;
    fingerprint;
    end_to_end =
      [ m "req_per_s" (closed_rate st.rates) "req/s" ]
      @ latency_metrics st.lat ~w:(open_window st)
      @ [ setup_metrics setups;
          m "retained_bytes_per_req" st.retained "B/req" ];
    per_layer;
    extras = open_extras st @ closed_extras st @ extras }

let take n l = List.filteri (fun i _ -> i < n) l

(* ---- read-heavy ----------------------------------------------------------- *)

let trace_length plan = plan.warm + plan.retain + plan.closed_n + plan.open_n

let fingerprint_steps = 512

let read_heavy_traces plan ~seed =
  let steps = (trace_length plan / Worlds.tenants) + 1 in
  let traces = Worlds.read_heavy_traces ~seed ~steps in
  let fingerprint =
    Workload.fingerprint
      (List.concat_map (take fingerprint_steps) (Array.to_list traces))
  in
  (traces, fingerprint)

let run_read_heavy plan ~seed =
  let traces, fingerprint = read_heavy_traces plan ~seed in
  let worlds, setups =
    build_worlds ~n:plan.setups ~keep:1 (Worlds.pool_world ~traced:plan.traced)
  in
  let w = List.hd worlds in
  let reqs = Worlds.read_heavy_requests w traces in
  let st =
    create plan ~total:(Array.length reqs)
      ~reset_logs:(fun () -> Worlds.pool_reset_logs w)
      ~counters:(fun () -> Worlds.pool_counters w)
  in
  let serve = Worlds.serve_one w in
  let i = ref 0 in
  while st.phase <> Done && !i < Array.length reqs do
    ignore (step st serve reqs.(!i));
    incr i
  done;
  let imbalance = imbalance w.pool reqs ~first:st.closed_first ~n:st.closed_reqs in
  let per_layer, extras =
    if plan.traced then
      layer_metrics st ~setups ~imbalance ~handle_layer:Spans.Handle ~domains:1
    else ([], [])
  in
  finish st ~setups ~fingerprint ~problems:(ledger_problems per_layer) ~per_layer
    ~extras

(* ---- churn and journaled -------------------------------------------------- *)

let run_churn plan ~seed ~journal =
  (* out-of-band steps are 2 in 16 of the churn mix *)
  let steps = trace_length plan * 16 / 13 in
  let trace = Worlds.churn_trace ~seed ~steps in
  let fingerprint = Workload.fingerprint (take (8 * fingerprint_steps) trace) in
  let worlds, setups =
    build_worlds ~n:plan.setups ~keep:1
      (Worlds.cross_world ~traced:plan.traced ~mode:Cm_monitor.Monitor.Enforce
         ~cache:Cm_monitor.Obs_cache.Cross_request ~journal)
  in
  let w = List.hd worlds in
  let st =
    create plan ~total:(Worlds.monitored_steps trace)
      ~reset_logs:(fun () -> Cm_monitor.Monitor.reset_log w.monitor)
      ~counters:(fun () -> Worlds.cross_counters w)
  in
  let serve = Worlds.serve_cross w in
  let handle req =
    let req = if journal then Worlds.tag_request_id st.served req else req in
    (step st serve req).response
  in
  (try ignore (Exec.run (Worlds.exec_env w ~handle) trace) with Finished -> ());
  let per_layer, extras =
    if plan.traced then
      layer_metrics st ~setups ~imbalance:1. ~handle_layer:Spans.Handle ~domains:1
    else ([], [])
  in
  finish st ~setups ~fingerprint ~problems:(ledger_problems per_layer) ~per_layer
    ~extras

(* ---- parallel -------------------------------------------------------------- *)

let domains = 2
let batch = 256

(* Serve [reqs.(i) .. reqs.(j-1)] as one Shard.handle_all batch. *)
let serve_batch ?(domains = domains) st w reqs i j ~due =
  let batch = Array.to_list (Array.sub reqs i (j - i)) in
  if !Spans.enabled then begin
    Spans.Phys.reset Spans.in_batch;
    List.iteri (fun k r -> Spans.Phys.replace Spans.in_batch r (st.served + k)) batch
  end;
  let started = Spans.now () in
  let outs = Spans.batch (Shard.handle_all ~domains w.Worlds.pool) batch in
  let t = Spans.now () in
  Array.iteri (fun k o -> account st o ~due:(due (i + k)) ~started ~t) outs;
  advance st ~n:(j - i) t;
  t - started

let run_parallel plan ~seed =
  let traces, fingerprint = read_heavy_traces plan ~seed in
  let worlds, setups =
    build_worlds ~n:plan.setups ~keep:2 (Worlds.pool_world ~traced:plan.traced)
  in
  let w, reference = (List.hd worlds, List.nth worlds 1) in
  (* The serial reference: read-heavy's one-at-a-time serving of the
     same prefix on a twin world must yield the same verdicts. *)
  let ref_digest =
    let reqs = Worlds.read_heavy_requests reference traces in
    let buf = Buffer.create 65536 in
    for k = 0 to plan.warm + plan.retain - 1 do
      add_conformance buf (Worlds.serve_one reference reqs.(k))
    done;
    Worlds.pool_reset_logs reference;
    md5 buf
  in
  let reqs = Worlds.read_heavy_requests w traces in
  let n = Array.length reqs in
  let st =
    create { plan with chunk = batch } ~total:n
      ~reset_logs:(fun () -> Worlds.pool_reset_logs w)
      ~counters:(fun () -> Worlds.pool_counters w)
  in
  let batch_us = ref [] in
  let i = ref 0 in
  while st.phase <> Open && st.phase <> Done && !i + batch <= n do
    let was_closed = st.phase = Closed && not st.chunk_traced in
    let ns = serve_batch st w reqs !i (!i + batch) ~due:(fun _ -> 0) in
    if was_closed then batch_us := (float_of_int ns /. 1e3) :: !batch_us;
    i := !i + batch
  done;
  (* Open loop: every request already due, up to a batch, goes at once,
     on one domain.  While a second domain lives, even parked, every
     minor collection rendezvouses with it; on a shared 2-vCPU host that
     put 0.3-6 ms at p99, varying from run to run, so the pool is
     drained first and the two-domain cost is left to the closed loop. *)
  Cm_core.Domain_pool.shutdown_shared ();
  let base = !i in
  while st.phase = Open do
    let k = st.in_phase in
    wait_until (due_of st k);
    let now = Spans.now () in
    let j = ref k in
    while !j < st.open_n && !j - k < batch && due_of st !j <= now do incr j done;
    ignore
      (serve_batch st w reqs (base + k) (base + !j) ~domains:1
         ~due:(fun r -> due_of st (r - base)))
  done;
  let problems =
    if md5 st.prefix <> ref_digest then
      [ "parallel verdicts differ from one-at-a-time serving of the same requests" ]
    else []
  in
  let imbalance = imbalance w.pool reqs ~first:st.closed_first ~n:st.closed_reqs in
  let per_layer, extras =
    if plan.traced then
      layer_metrics st ~setups ~imbalance ~handle_layer:Spans.Batch ~domains
    else ([], [])
  in
  let bu = Array.of_list !batch_us in
  finish st ~setups ~fingerprint ~problems:(problems @ ledger_problems per_layer)
    ~per_layer
    ~extras:
      (extras
      @ [ m "shard.batch_us_p50" (percentile bu 50.) "us";
          m "shard.batch_us_p99" (percentile bu 99.) "us" ])

(* ---- campaign ---------------------------------------------------------------- *)

(* The tester's use (§VI-D): per round, the fault-free baseline and the
   18 mutants of [Mutant.all_extended], each a fresh cloud and a fresh
   Oracle monitor over the cross models, serving the cross trace. *)
let run_campaign plan ~seed =
  let mutants = None :: List.map Option.some Cm_mutation.Mutant.all_extended in
  let cells = Array.of_list mutants in
  let trace = Workload.cross_trace in
  let lat = ref (Array.make 65536 0.) and nlat = ref 0 in
  let failed = ref 0 and attempted = ref 0 and problems = ref [] in
  let counters = ref Worlds.zero_counters in
  let traced_reqs = ref 0 and traced_ns = ref 0 in
  let untraced_reqs = ref 0 in
  let gc_minor = ref 0 and gc_major = ref 0 and gc_promoted = ref 0. and gc_words = ref 0. in
  let setup_s = ref [] and cloud_ms = ref [] and monitor_ms = ref [] in
  let serve_ms = ref [] in
  (* one cell; [record] adds its latencies, [retain] measures growth *)
  let cell ~record ~retain ~prefix mutant =
    let faults =
      Option.fold ~none:Cm_cloudsim.Faults.none
        ~some:(fun (mu : Cm_mutation.Mutant.t) -> mu.faults) mutant
    in
    let t0 = Spans.now () in
    let w, (s : Worlds.setup) =
      Worlds.cross_world ~traced:plan.traced ~mode:Cm_monitor.Monitor.Oracle ~faults
        ~journal:false ()
    in
    let t1 = Spans.now () in
    let live0 = if retain then live_words () else 0. in
    let killed = ref false and served = ref 0 in
    let serve = Worlds.serve_cross w in
    let handle req =
      let started = Spans.now () in
      Spans.current := req;
      Spans.current_seq := !attempted;
      let o = Spans.span Spans.Handle ~seq:!attempted serve req in
      let t = Spans.now () in
      incr attempted;
      incr served;
      if Outcome.is_violation o.conformance then killed := true;
      if is_failed ~fault_free:(mutant = None) o.conformance then incr failed;
      if record then begin
        if !nlat = Array.length !lat then begin
          let a = Array.make (2 * !nlat) 0. in
          Array.blit !lat 0 a 0 !nlat;
          lat := a
        end;
        !lat.(!nlat) <- float_of_int (t - started) /. 1e3;
        incr nlat
      end;
      Option.iter (fun b -> add_conformance b o) prefix;
      o.response
    in
    ignore (Exec.run (Worlds.exec_env w ~handle) trace);
    let t2 = Spans.now () in
    let retained = if retain then live_words () -. live0 else 0. in
    if not retain then
      counters :=
        Worlds.sum !counters
          (Worlds.counters (Cm_monitor.Monitor.cache_stats w.monitor)
             (Cm_monitor.Monitor.eval_stats w.monitor));
    if record then begin
      setup_s := (float_of_int (t1 - t0) /. 1e9) :: !setup_s;
      cloud_ms := (float_of_int s.cloud_ns /. 1e6) :: !cloud_ms;
      monitor_ms := (float_of_int s.monitor_ns /. 1e6) :: !monitor_ms;
      serve_ms := (float_of_int (t2 - t1) /. 1e6) :: !serve_ms
    end;
    let name =
      Option.fold ~none:"baseline" ~some:(fun (mu : Cm_mutation.Mutant.t) -> mu.name) mutant
    in
    (match mutant with
     | None when !killed -> problems := "baseline reported a violation" :: !problems
     | Some _ when not !killed -> problems := (name ^ " survived") :: !problems
     | _ -> ());
    (!served, retained, t2 - t1)
  in
  (* digest round, in catalogue order: verdicts and retained growth *)
  let prefix = Buffer.create 4096 in
  let ret_words = ref 0. and ret_reqs = ref 0 in
  Array.iter
    (fun mu ->
      let n, r, _ = cell ~record:false ~retain:true ~prefix:(Some prefix) mu in
      ret_words := !ret_words +. r;
      ret_reqs := !ret_reqs + n)
    cells;
  (* timed rounds, each in a seeded order *)
  let rng = Cm_core.Prng.of_seed seed in
  let round_rates = ref [] and traced_rates = ref [] and cell_rates = ref [] in
  let rounds = ref 0 in
  let g0 = globals () in
  while !rounds < plan.rounds do
    let order = Array.copy cells in
    for k = Array.length order - 1 downto 1 do
      let j = Cm_core.Prng.int rng (k + 1) in
      let x = order.(k) in
      order.(k) <- order.(j);
      order.(j) <- x
    done;
    let traced = plan.traced && !rounds mod 2 = 1 in
    Spans.enabled := traced;
    let gc0 = gcs () in
    let t0 = Spans.now () in
    let reqs = ref 0 and serve_ns = ref 0 in
    Array.iter
      (fun mu ->
        let n, _, ns = cell ~record:(not traced) ~retain:false ~prefix:None mu in
        reqs := !reqs + n;
        serve_ns := !serve_ns + ns)
      order;
    let ns = Spans.now () - t0 in
    Spans.enabled := false;
    let rate = float_of_int !reqs /. (float_of_int ns /. 1e9) in
    if traced then begin
      traced_rates := rate :: !traced_rates;
      traced_reqs := !traced_reqs + !reqs;
      traced_ns := !traced_ns + !serve_ns
    end
    else begin
      let g = gcs () in
      round_rates := rate :: !round_rates;
      cell_rates := (float_of_int (Array.length order) /. (float_of_int ns /. 1e9)) :: !cell_rates;
      untraced_reqs := !untraced_reqs + !reqs;
      gc_minor := !gc_minor + g.minor - gc0.minor;
      gc_major := !gc_major + g.major - gc0.major;
      gc_promoted := !gc_promoted +. g.promoted -. gc0.promoted;
      gc_words := !gc_words +. g.words -. gc0.words
    end;
    incr rounds
  done;
  let g1 = globals () in
  let lat = Array.sub !lat 0 !nlat in
  let setups = { total_s = !setup_s; cloud_ms = !cloud_ms; monitor_ms = !monitor_ms } in
  let per_layer, extras =
    if plan.traced then begin
      (* reuse the closed-section accounting: the timed rounds are the
         closed section here *)
      let st =
        create plan ~total:0 ~reset_logs:ignore ~counters:(fun () -> Worlds.zero_counters)
      in
      st.traced_reqs <- !traced_reqs;
      st.traced_ns <- !traced_ns;
      st.untraced_reqs <- !untraced_reqs;
      st.closed_reqs <- !traced_reqs + !untraced_reqs;
      st.rates <- !round_rates;
      st.traced_rates <- !traced_rates;
      st.gc_minor <- !gc_minor;
      st.gc_major <- !gc_major;
      st.gc_promoted <- !gc_promoted;
      st.gc_words <- !gc_words;
      st.c1 <- !counters;
      st.g0 <- g0;
      st.g1 <- g1;
      layer_metrics st ~setups ~imbalance:1. ~handle_layer:Spans.Handle ~domains:1
    end
    else ([], [])
  in
  let problems =
    List.rev !problems
    @ (if !failed > 0 then [ Printf.sprintf "%d failed outcomes" !failed ] else [])
    @ ledger_problems per_layer
  in
  { attempted = !attempted; failed = !failed; problems;
    digest = md5 prefix;
    fingerprint = Workload.fingerprint trace;
    end_to_end =
      (m "req_per_s" (closed_rate !round_rates) "req/s" :: latency_metrics lat ~w:128)
      @ [ setup_metrics setups;
          m "retained_bytes_per_req"
            (!ret_words *. float_of_int (Sys.word_size / 8) /. float_of_int (max 1 !ret_reqs))
            "B/req" ];
    per_layer;
    extras =
      extras
      @ [ m "campaign.cells_per_s" (closed_rate !cell_rates) "cells/s";
          m "campaign.serve_ms_per_cell" (median !serve_ms) "ms";
          m "campaign.rounds" (float_of_int !rounds) "count";
          m "latency.samples" (float_of_int !nlat) "count";
          m "latency.p50_us_whole" (percentile lat 50.) "us";
          m "latency.p99_us_whole" (percentile lat 99.) "us" ] }

let workloads =
  [ ("read-heavy", run_read_heavy);
    ("churn", run_churn ~journal:false);
    ("journaled", run_churn ~journal:true);
    ("parallel", run_parallel);
    ("campaign", run_campaign) ]
