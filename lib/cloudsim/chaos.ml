module Clock = Cm_core.Clock
module Prng = Cm_core.Prng
module Transport = Cm_core.Transport
module Request = Cm_http.Request
module Response = Cm_http.Response
module Status = Cm_http.Status
module Json = Cm_json.Json

type latency = {
  base_ms : int;
  jitter_ms : int;
  spike_p : float;
  spike_ms : int;
}

let instant = { base_ms = 0; jitter_ms = 0; spike_p = 0.0; spike_ms = 0 }

type profile = {
  name : string;
  description : string;
  latency : latency;
  drop_before_p : float;
  drop_after_p : float;
  blip_5xx_p : float;
  stale_p : float;
  corrupt_p : float;
  duplicate_p : float;
  route_prefix : string option;
}

let fault_free =
  { name = "fault-free";
    description = "perfect transport: zero latency, no faults";
    latency = instant;
    drop_before_p = 0.0;
    drop_after_p = 0.0;
    blip_5xx_p = 0.0;
    stale_p = 0.0;
    corrupt_p = 0.0;
    duplicate_p = 0.0;
    route_prefix = None
  }

let flaky_network =
  { fault_free with
    name = "flaky-network";
    description = "resets and gateway blips on an otherwise fast link";
    latency = { base_ms = 2; jitter_ms = 6; spike_p = 0.0; spike_ms = 0 };
    drop_before_p = 0.06;
    drop_after_p = 0.03;
    blip_5xx_p = 0.06
  }

let slow_backend =
  { fault_free with
    name = "slow-backend";
    description = "high latency with budget-busting spikes (timeouts)";
    latency = { base_ms = 40; jitter_ms = 80; spike_p = 0.05; spike_ms = 30_000 }
  }

let degraded_cloud =
  { fault_free with
    name = "degraded-cloud";
    description = "stale caches and corrupted bodies on reads";
    latency = { base_ms = 5; jitter_ms = 10; spike_p = 0.0; spike_ms = 0 };
    stale_p = 0.10;
    corrupt_p = 0.08
  }

let adversarial =
  { name = "adversarial";
    description = "every fault class at once, still within retry reach";
    latency = { base_ms = 10; jitter_ms = 30; spike_p = 0.03; spike_ms = 30_000 };
    drop_before_p = 0.05;
    drop_after_p = 0.03;
    blip_5xx_p = 0.05;
    stale_p = 0.06;
    corrupt_p = 0.05;
    duplicate_p = 0.04;
    route_prefix = None
  }

let profiles =
  [ fault_free; flaky_network; slow_backend; degraded_cloud; adversarial ]

let find_profile name =
  List.find_opt (fun p -> p.name = name) profiles

type t = {
  profile : profile;
  clock : Clock.t;
  inner : Request.t -> Response.t;
  rng : Prng.t;
  (* previous GET response per path, for stale serving (one update deep) *)
  cache : (string, Response.t) Hashtbl.t;
  stats : (string, int) Hashtbl.t;
}

let create ?(seed = 0xC405) profile clock inner =
  { profile; clock; inner; rng = Prng.of_seed seed;
    cache = Hashtbl.create 64; stats = Hashtbl.create 16
  }

let bump t what =
  Hashtbl.replace t.stats what
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.stats what))

let stats t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.stats []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let in_scope t (req : Request.t) =
  match t.profile.route_prefix with
  | None -> true
  | Some prefix ->
    String.length req.Request.path >= String.length prefix
    && String.sub req.Request.path 0 (String.length prefix) = prefix

let sample_latency t =
  let l = t.profile.latency in
  let base =
    l.base_ms + (if l.jitter_ms > 0 then Prng.int t.rng (l.jitter_ms + 1) else 0)
  in
  if Prng.chance t.rng l.spike_p then base + l.spike_ms else base

(* Corrupt a response body so it no longer parses as an API envelope:
   either a truncated-text stand-in or an empty object.  Both defeat the
   observer's single-key unwrap, exactly like a cut-off TCP stream. *)
let corrupt_body t (resp : Response.t) =
  match resp.Response.body with
  | None -> resp
  | Some body ->
    let printed = Cm_json.Printer.to_string body in
    let corrupted =
      if Prng.chance t.rng 0.5 then Json.Obj []
      else
        Json.String
          (String.sub printed 0 (max 1 (String.length printed / 2)) ^ "\xe2\x80\xa6")
    in
    { resp with Response.body = Some corrupted }

let is_get (req : Request.t) = req.Request.meth = Cm_http.Meth.GET

let backend_of t (req : Request.t) =
  if not (in_scope t req) then t.inner req
  else begin
    Clock.advance t.clock (sample_latency t);
    if Prng.chance t.rng t.profile.drop_before_p then begin
      bump t "drop-before";
      raise Transport.Connection_reset
    end;
    if Prng.chance t.rng t.profile.blip_5xx_p then begin
      bump t "blip-5xx";
      Response.error
        (if Prng.chance t.rng 0.5 then Status.bad_gateway
         else Status.service_unavailable)
        "chaos: gateway blip"
    end
    else begin
      let resp = t.inner req in
      (* duplicated delivery: the backend sees the request twice; the
         caller gets the first answer (idempotency is the cloud's
         problem — X-Request-Id dedup absorbs it). *)
      if Prng.chance t.rng t.profile.duplicate_p then begin
        bump t "duplicate";
        ignore (t.inner req)
      end;
      if Prng.chance t.rng t.profile.drop_after_p then begin
        bump t "drop-after";
        raise Transport.Connection_reset
      end;
      let resp =
        if not (is_get req) then resp
        else begin
          let key = req.Request.path in
          let serve_stale =
            Prng.chance t.rng t.profile.stale_p && Hashtbl.mem t.cache key
          in
          let stale = Hashtbl.find_opt t.cache key in
          Hashtbl.replace t.cache key resp;
          if serve_stale then begin
            bump t "stale";
            Option.value ~default:resp stale
          end
          else resp
        end
      in
      if is_get req && Prng.chance t.rng t.profile.corrupt_p then begin
        bump t "corrupt";
        corrupt_body t resp
      end
      else resp
    end
  end

let backend t = backend_of t
