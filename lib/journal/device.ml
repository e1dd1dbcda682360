type t = {
  buf : Buffer.t;
  mutable durable : int;
  prng : Cm_core.Prng.t;
  clock : Cm_core.Clock.t;
  mutable syncs : int;
  mutable crashes : int;
}

(* Virtual milliseconds one effective sync costs. *)
let sync_latency_ms = 1

let create ?(contents = "") ~clock ~seed () =
  let buf = Buffer.create (max 4096 (String.length contents)) in
  Buffer.add_string buf contents;
  {
    buf;
    durable = String.length contents;
    prng = Cm_core.Prng.of_seed seed;
    clock;
    syncs = 0;
    crashes = 0;
  }

let append t s = Buffer.add_string t.buf s
let size t = Buffer.length t.buf
let durable_size t = t.durable

let sync t =
  if Buffer.length t.buf > t.durable then begin
    Cm_core.Clock.advance t.clock sync_latency_ms;
    t.syncs <- t.syncs + 1;
    t.durable <- Buffer.length t.buf
  end

let crash t =
  let unsynced = Buffer.length t.buf - t.durable in
  let surviving =
    if unsynced = 0 then 0 else Cm_core.Prng.int t.prng (unsynced + 1)
  in
  Buffer.truncate t.buf (t.durable + surviving);
  t.crashes <- t.crashes + 1

let truncate t n =
  let n = min n (Buffer.length t.buf) in
  Buffer.truncate t.buf n;
  t.durable <- min t.durable n

let contents t = Buffer.contents t.buf
let syncs t = t.syncs
let crashes t = t.crashes
