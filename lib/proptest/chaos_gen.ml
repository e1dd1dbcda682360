module Chaos = Cm_cloudsim.Chaos

(* Per-mille probability draw, capped.  Caps are chosen so that six
   retry attempts absorb a fault class with overwhelming probability —
   the generator explores the space where resilience is *supposed* to
   win; profiles beyond it (e.g. a 50% drop rate) are outages, not
   transport noise. *)
let pm rng cap = float_of_int (Rng.int rng (cap + 1)) /. 1000.0

let gen_profile rng ~size =
  (* size scales fault intensity: small cases are nearly clean, large
     ones push every class toward its cap at once *)
  let intensity = min (max size 1) 10 in
  let scale cap = max 1 (cap * intensity / 10) in
  let latency =
    { Chaos.base_ms = Rng.int rng 41;
      jitter_ms = Rng.int rng 61;
      spike_p = pm rng (scale 30);
      spike_ms = 20_000 + Rng.int rng 20_001
    }
  in
  { Chaos.name = "random";
    description = "randomly generated bounded chaos profile";
    latency;
    drop_before_p = pm rng (scale 70);
    drop_after_p = pm rng (scale 40);
    blip_5xx_p = pm rng (scale 70);
    stale_p = pm rng (scale 90);
    corrupt_p = pm rng (scale 70);
    duplicate_p = pm rng (scale 50);
    route_prefix = None
  }

let describe (p : Chaos.profile) =
  Printf.sprintf
    "chaos{lat=%d+%d spike=%.3f/%dms drop<%.3f drop>%.3f blip=%.3f \
     stale=%.3f corrupt=%.3f dup=%.3f}"
    p.Chaos.latency.Chaos.base_ms p.Chaos.latency.Chaos.jitter_ms
    p.Chaos.latency.Chaos.spike_p p.Chaos.latency.Chaos.spike_ms
    p.Chaos.drop_before_p p.Chaos.drop_after_p p.Chaos.blip_5xx_p
    p.Chaos.stale_p p.Chaos.corrupt_p p.Chaos.duplicate_p

(* Every generated field is overwritten; the draw only supplies the
   name and description. *)
let parse text =
  let profile base_ms jitter_ms spike_p spike_ms drop_before_p drop_after_p
      blip_5xx_p stale_p corrupt_p duplicate_p =
    { (gen_profile (Rng.of_seed 0) ~size:1) with
      Chaos.latency = { Chaos.base_ms; jitter_ms; spike_p; spike_ms };
      drop_before_p; drop_after_p; blip_5xx_p; stale_p; corrupt_p;
      duplicate_p
    }
  in
  match
    Scanf.sscanf text
      "chaos{lat=%d+%d spike=%f/%dms drop<%f drop>%f blip=%f stale=%f \
       corrupt=%f dup=%f}%!"
      profile
  with
  | p -> Some p
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
