(* Values frozen into the benchmark.

   [rate] is each workload's open-loop offered rate in req/s, about a
   fifth of its closed-loop capacity on the 2-core host the benchmark
   was defined on, so that the host's own slow spells do not push the
   queue into overload.  It is never recalibrated per run: a rate that
   follows the host's noisy capacity would make latencies incomparable
   between commits.  [closed_per_s] sizes the closed loop (requests per
   second of --seconds) and [rounds_per_s] the campaign; both are sizes,
   not measurements, chosen so a run lasts about --seconds on that host.

   [fingerprint] is [Workload.fingerprint] of the first steps of the
   workload's trace(s) and [digest] the MD5 of the arrival-order
   conformance strings of its warm-up and retain sections, both at
   [seed].  A change that alters any verdict changes the digest.
   Parallel serving must reproduce read-heavy's verdicts, and the
   journal must not change churn's. *)

let seed = 42

type pin = {
  rate : float;
  closed_per_s : float;
  rounds_per_s : float;
  fingerprint : string;
  digest : string;
}

let read_heavy_fingerprint = "89770dde3c1614d6a9318dc3631589f1"
let read_heavy_digest = "665e9e252c43e87bc9b8f7e17bcc8404"
let churn_fingerprint = "6c1330da16baca8dcae742dc41833a00"
let churn_digest = "bfc213228217165057328464beff250c"

let pins =
  [ ( "read-heavy",
      { rate = 2500.; closed_per_s = 12000.; rounds_per_s = 0.;
        fingerprint = read_heavy_fingerprint; digest = read_heavy_digest } );
    ( "churn",
      { rate = 6000.; closed_per_s = 36000.; rounds_per_s = 0.;
        fingerprint = churn_fingerprint; digest = churn_digest } );
    ( "journaled",
      { rate = 5000.; closed_per_s = 28000.; rounds_per_s = 0.;
        fingerprint = churn_fingerprint; digest = churn_digest } );
    ( "parallel",
      { rate = 2500.; closed_per_s = 24000.; rounds_per_s = 0.;
        fingerprint = read_heavy_fingerprint; digest = read_heavy_digest } );
    ( "campaign",
      { rate = 0.; closed_per_s = 0.; rounds_per_s = 8.;
        fingerprint = "5e5c0397f64d7a5217ba3ef49ebd7a3f";
        digest = "cf6cefaaff644be1852026baef590ed1" } ) ]

let find workload = List.assoc workload pins
