module Clock = Cm_core.Clock
module Prng = Cm_core.Prng
module Transport = Cm_core.Transport
module Request = Cm_http.Request
module Response = Cm_http.Response
module Status = Cm_http.Status
module Meth = Cm_http.Meth
module Headers = Cm_http.Headers

type backend = Request.t -> Response.t

type policy = {
  attempt_timeout_ms : int;
  total_budget_ms : int;
  max_attempts : int;
  backoff_base_ms : int;
  backoff_multiplier : float;
  backoff_cap_ms : int;
  jitter : float;
  retry_mutations : bool;
  verified_reads : bool;
  breaker_threshold : int;
  breaker_reset_ms : int;
  breaker_half_open_probes : int;
}

let default =
  { attempt_timeout_ms = 1_000;
    total_budget_ms = 10_000;
    max_attempts = 6;
    backoff_base_ms = 25;
    backoff_multiplier = 2.0;
    backoff_cap_ms = 1_600;
    jitter = 0.5;
    retry_mutations = true;
    verified_reads = false;
    breaker_threshold = 8;
    breaker_reset_ms = 30_000;
    breaker_half_open_probes = 1;
  }

type failure =
  | Circuit_open of string
  | Exhausted of {
      route : string;
      attempts : int;
      elapsed_ms : int;
      last_error : string;
    }

let failure_to_string = function
  | Circuit_open route -> Printf.sprintf "circuit open on %s" route
  | Exhausted { route; attempts; elapsed_ms; last_error } ->
    Printf.sprintf "%s after %d attempts / %d virtual ms on %s" last_error
      attempts elapsed_ms route

let executed_possible = function
  | Circuit_open _ -> false
  | Exhausted _ -> true

(* ---- circuit breaker ---- *)

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type breaker = {
  mutable state : breaker_state;
  mutable consecutive_failures : int;
  mutable opened_at : int;
  mutable half_open_in_flight : int;
  mutable opens : int;
}

let new_breaker () =
  { state = Closed; consecutive_failures = 0; opened_at = 0;
    half_open_in_flight = 0; opens = 0
  }

(* Live counters are Atomic so shards can be polled from other domains
   while serving; [route_metrics] below is the immutable snapshot the
   API exposes. *)
type route_counters = {
  c_calls : int Atomic.t;
  c_attempts : int Atomic.t;
  c_retries : int Atomic.t;
  c_call_failures : int Atomic.t;
  c_short_circuited : int Atomic.t;
  c_breaker_opens : int Atomic.t;
}

type route_metrics = {
  calls : int;
  attempts : int;
  retries : int;
  call_failures : int;
  short_circuited : int;
  breaker_opens : int;
}

type t = {
  policy : policy;
  clock : Clock.t;
  inner : backend;
  rng : Prng.t;
  route_key : Request.t -> string;
  validate : Request.t -> Response.t -> bool;
  breakers : (string, breaker) Hashtbl.t;
  metrics : (string, route_counters) Hashtbl.t;
}

(* Process-global so ids stay unique across every monitor/shard sharing
   one idempotency table — two shards both minting "cm-1" would collide
   in the cloud's dedup cache and replay a stranger's response. *)
let next_request_id = Atomic.make 1

(* Method + first two path segments: one breaker per API route family
   (e.g. "POST /v3/myProject"), so a wedged volume service does not
   short-circuit identity traffic. *)
let default_route_key (req : Request.t) =
  let segments = Request.path_segments req in
  let prefix =
    match segments with
    | a :: b :: _ -> a ^ "/" ^ b
    | [ a ] -> a
    | [] -> "/"
  in
  Meth.to_string req.Request.meth ^ " /" ^ prefix

let create ?(seed = 0xBACC0FF) ?route_key ?(validate = fun _ _ -> true) policy
    clock inner =
  { policy;
    clock;
    inner;
    rng = Prng.of_seed seed;
    route_key = Option.value ~default:default_route_key route_key;
    validate;
    breakers = Hashtbl.create 16;
    metrics = Hashtbl.create 16
  }

let breaker_for t route =
  match Hashtbl.find_opt t.breakers route with
  | Some b -> b
  | None ->
    let b = new_breaker () in
    Hashtbl.add t.breakers route b;
    b

let metrics_for t route =
  match Hashtbl.find_opt t.metrics route with
  | Some m -> m
  | None ->
    let m =
      { c_calls = Atomic.make 0;
        c_attempts = Atomic.make 0;
        c_retries = Atomic.make 0;
        c_call_failures = Atomic.make 0;
        c_short_circuited = Atomic.make 0;
        c_breaker_opens = Atomic.make 0
      }
    in
    Hashtbl.add t.metrics route m;
    m

let snapshot_counters c =
  { calls = Atomic.get c.c_calls;
    attempts = Atomic.get c.c_attempts;
    retries = Atomic.get c.c_retries;
    call_failures = Atomic.get c.c_call_failures;
    short_circuited = Atomic.get c.c_short_circuited;
    breaker_opens = Atomic.get c.c_breaker_opens
  }

let metrics t =
  Hashtbl.fold (fun route m acc -> (route, snapshot_counters m) :: acc) t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let breaker_state t route =
  match Hashtbl.find_opt t.breakers route with
  | None -> Closed
  | Some b -> b.state

(* Admission: Closed always admits; Open admits nothing until the reset
   window has elapsed, then flips to Half_open; Half_open admits up to
   [breaker_half_open_probes] concurrent probes. *)
let breaker_admit t b =
  if t.policy.breaker_threshold <= 0 then true
  else
    match b.state with
    | Closed -> true
    | Open ->
      if Clock.elapsed_since t.clock b.opened_at >= t.policy.breaker_reset_ms
      then begin
        b.state <- Half_open;
        b.half_open_in_flight <- 0;
        true
      end
      else false
    | Half_open -> b.half_open_in_flight < t.policy.breaker_half_open_probes

let breaker_success b =
  b.consecutive_failures <- 0;
  (match b.state with
   | Half_open | Open -> b.state <- Closed
   | Closed -> ());
  b.half_open_in_flight <- 0

let breaker_failure t b m =
  b.consecutive_failures <- b.consecutive_failures + 1;
  if
    t.policy.breaker_threshold > 0
    && (b.state = Half_open
        || b.consecutive_failures >= t.policy.breaker_threshold)
  then begin
    if b.state <> Open then begin
      b.opens <- b.opens + 1;
      Atomic.incr m.c_breaker_opens
    end;
    b.state <- Open;
    b.opened_at <- Clock.now t.clock;
    b.half_open_in_flight <- 0
  end

(* ---- backoff ---- *)

let backoff_ms policy rng ~attempt =
  let raw =
    float_of_int policy.backoff_base_ms
    *. (policy.backoff_multiplier ** float_of_int (attempt - 1))
  in
  let capped = Float.min raw (float_of_int policy.backoff_cap_ms) in
  let jittered =
    if policy.jitter <= 0.0 then capped
    else begin
      (* full-jitter around the nominal value: [(1-j/2) .. (1+j/2)] * capped *)
      let spread = policy.jitter *. capped in
      capped -. (spread /. 2.0) +. (Prng.float rng *. spread)
    end
  in
  max 1 (int_of_float jittered)

let schedule policy ~seed =
  let rng = Prng.of_seed seed in
  List.init
    (max 0 (policy.max_attempts - 1))
    (fun i -> backoff_ms policy rng ~attempt:(i + 1))

(* ---- retry loop ---- *)

let retryable_meth policy (req : Request.t) =
  match req.Request.meth with
  | Meth.GET | Meth.HEAD | Meth.OPTIONS -> true
  | Meth.POST | Meth.PUT | Meth.DELETE | Meth.PATCH -> policy.retry_mutations

let mutating (req : Request.t) =
  match req.Request.meth with
  | Meth.POST | Meth.PUT | Meth.DELETE | Meth.PATCH -> true
  | Meth.GET | Meth.HEAD | Meth.OPTIONS -> false

let request_id_header = "X-Request-Id"

(* Attach the idempotency key that makes retrying a mutation safe: the
   same id is reused on every attempt of this logical request, and the
   backend replays the first response instead of re-executing. *)
let ensure_request_id t req =
  if
    t.policy.retry_mutations && mutating req
    && Headers.get request_id_header req.Request.headers = None
  then
    { req with
      Request.headers =
        Headers.replace request_id_header
          (Printf.sprintf "cm-%d" (Atomic.fetch_and_add next_request_id 1))
          req.Request.headers
    }
  else req

(* A 502/503/504 is treated as a not-executed gateway blip (true in the
   simulation: both chaos blips and Flaky_action 503s fire before the
   service acts) and is retried for every method. *)
let retryable_5xx (resp : Response.t) =
  resp.Response.status = Status.bad_gateway
  || resp.Response.status = Status.service_unavailable
  || resp.Response.status = Status.gateway_timeout

type attempt_outcome =
  | Got of Response.t
  | Blip of Response.t
  | Attempt_failed of string

let one_attempt t req =
  let started = Clock.now t.clock in
  match t.inner req with
  | resp ->
    let elapsed = Clock.elapsed_since t.clock started in
    if elapsed > t.policy.attempt_timeout_ms then begin
      (* The response arrived after the caller stopped waiting: the
         caller's timeline resumes at its deadline, the response is
         discarded, and the outcome of the request is unknown. *)
      Clock.set t.clock (started + t.policy.attempt_timeout_ms);
      Attempt_failed
        (Printf.sprintf "attempt timed out (>%d virtual ms)"
           t.policy.attempt_timeout_ms)
    end
    else if retryable_5xx resp then Blip resp
    else if not (t.validate req resp) then
      Attempt_failed "response failed validation (corrupt body)"
    else Got resp
  | exception exn when Transport.is_failure exn ->
    let elapsed = Clock.elapsed_since t.clock started in
    if elapsed > t.policy.attempt_timeout_ms then
      Clock.set t.clock (started + t.policy.attempt_timeout_ms);
    Attempt_failed (Transport.describe exn)

let call t req =
  let route = t.route_key req in
  let b = breaker_for t route in
  let m = metrics_for t route in
  Atomic.incr m.c_calls;
  if not (breaker_admit t b) then begin
    Atomic.incr m.c_short_circuited;
    Error (Circuit_open route)
  end
  else begin
    if b.state = Half_open then
      b.half_open_in_flight <- b.half_open_in_flight + 1;
    let req = ensure_request_id t req in
    let started = Clock.now t.clock in
    let deadline = started + t.policy.total_budget_ms in
    let finish_failure attempts last_error =
      Atomic.incr m.c_call_failures;
      breaker_failure t b m;
      Error
        (Exhausted
           { route;
             attempts;
             elapsed_ms = Clock.elapsed_since t.clock started;
             last_error
           })
    in
    let rec loop attempt last_blip =
      Atomic.incr m.c_attempts;
      match one_attempt t req with
      | Got resp ->
        breaker_success b;
        Ok resp
      | (Blip _ | Attempt_failed _) as failed ->
        let last_error, last_blip =
          match failed with
          | Blip resp ->
            ( Printf.sprintf "gateway %d" resp.Response.status,
              Some resp )
          | Attempt_failed msg -> (msg, last_blip)
          | Got _ -> assert false
        in
        let retry_allowed =
          match failed with
          | Blip _ -> true (* not executed: safe for every method *)
          | _ -> retryable_meth t.policy req
        in
        if
          attempt >= t.policy.max_attempts
          || (not retry_allowed)
          || Clock.now t.clock >= deadline
        then begin
          match last_blip, failed with
          | Some resp, Blip _ ->
            (* A *persistent* 5xx is the backend's actual answer, not
               transport noise: pass it through as a definite response
               so verdicts match a run without the resilience layer. *)
            breaker_failure t b m;
            Ok resp
          | _ -> finish_failure attempt last_error
        end
        else begin
          Atomic.incr m.c_retries;
          let pause = backoff_ms t.policy t.rng ~attempt in
          let pause = min pause (max 1 (deadline - Clock.now t.clock)) in
          Clock.advance t.clock pause;
          loop (attempt + 1) last_blip
        end
    in
    loop 1 None
  end

(* Double-read defense against stale caches: read twice, keep the later
   answer (a one-update-deep stale cache cannot serve two stale reads of
   the same freshness in a row, so the second read is fresh).  A second
   read that failed, or that is a 5xx [call] passed through after
   exhausting its retries, is no fresher answer: the first one stands
   unless it was a 5xx too. *)
let call_verified t req =
  match call t req with
  | Error _ as e -> e
  | Ok first when t.policy.verified_reads && req.Request.meth = Meth.GET ->
    (match call t req with
     | Ok second
       when Status.is_server_error first.Response.status
            || not (Status.is_server_error second.Response.status) ->
       Ok second
     | Ok _ | Error _ -> Ok first)
  | ok -> ok

let degraded_response failure =
  let status =
    match failure with
    | Circuit_open _ -> Status.service_unavailable
    | Exhausted _ -> Status.gateway_timeout
  in
  Response.error status ("monitor transport: " ^ failure_to_string failure)
