module Monitor = Cm_monitor.Monitor
module Outcome = Cm_monitor.Outcome
module Crash = Cm_core.Crash

let rid_header = "X-Request-Id"

type make =
  journal_pre:(Monitor.pre_image -> unit) ->
  journal_barrier:(unit -> unit) ->
  crash:Crash.t option ->
  unit ->
  (Monitor.t, string list) result

type t = {
  journal : Journal.t;
  monitor : Monitor.t;
  crash : Crash.t option;
  batch : int;
  mutable next_seq : int;
  mutable current : int option;  (* seq of the in-flight exchange *)
  mutable unsynced_verdicts : int;
  by_rid : (string, Event.verdict_record) Hashtbl.t;
      (* request id -> its latest verdict *)
}

let monitor t = t.monitor
let journal t = t.journal
let device t = Journal.device t.journal

let alloc t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let on_pre t image =
  (* Only journal a pre-image inside a journaled exchange; [None]
     happens when the inner monitor is driven directly (recovery's own
     resume included — its pre-image is already on the journal). *)
  match t.current with
  | None -> ()
  | Some seq ->
      Crash.at t.crash "journal.before-pre";
      Journal.append t.journal (Event.Pre { seq; image });
      Crash.at t.crash "journal.after-pre"

let barrier t =
  Crash.at t.crash "journal.before-sync";
  Journal.sync t.journal;
  t.unsynced_verdicts <- 0;
  Crash.at t.crash "journal.after-sync"

let make_instance ?(batch = 8) ?crash device (make : make) =
  let journal = Journal.create device in
  let cell = ref None in
  let with_t f = match !cell with Some t -> f t | None -> () in
  match
    make
      ~journal_pre:(fun image -> with_t (fun t -> on_pre t image))
      ~journal_barrier:(fun () -> with_t barrier)
      ~crash ()
  with
  | Error es -> Error es
  | Ok monitor ->
      let t =
        {
          journal;
          monitor;
          crash;
          batch;
          next_seq = 1;
          current = None;
          unsynced_verdicts = 0;
          by_rid = Hashtbl.create 64;
        }
      in
      cell := Some t;
      Ok t

let create ?batch ?crash device make = make_instance ?batch ?crash device make

let verdict_of ~seq ~rid (outcome : Outcome.t) =
  {
    Event.v_seq = seq;
    v_rid = rid;
    v_meth = Cm_http.Meth.to_string outcome.request.Cm_http.Request.meth;
    v_path = outcome.request.Cm_http.Request.path;
    v_status = outcome.response.Cm_http.Response.status;
    v_conformance = Outcome.conformance_to_string outcome.conformance;
    v_detail = outcome.detail;
    v_covered = outcome.covered_requirements;
    v_body = outcome.response.Cm_http.Response.body;
  }

let emit t ~seq ~rid outcome =
  let v = verdict_of ~seq ~rid outcome in
  Crash.at t.crash "journal.before-verdict";
  Journal.append t.journal (Event.Verdict v);
  t.unsynced_verdicts <- t.unsynced_verdicts + 1;
  if t.unsynced_verdicts >= t.batch then begin
    Journal.sync t.journal;
    t.unsynced_verdicts <- 0
  end;
  Crash.at t.crash "journal.after-verdict";
  Hashtbl.replace t.by_rid rid v;
  v

let handle t req =
  let seq = alloc t in
  let rid, req =
    match Cm_http.Headers.get rid_header req.Cm_http.Request.headers with
    | Some rid -> (rid, req)
    | None ->
        let rid = Printf.sprintf "jrn-%d" seq in
        ( rid,
          {
            req with
            Cm_http.Request.headers =
              Cm_http.Headers.replace rid_header rid
                req.Cm_http.Request.headers;
          } )
  in
  Crash.at t.crash "journal.before-request";
  Journal.append t.journal (Event.Request { seq; rid; req });
  Crash.at t.crash "journal.after-request";
  t.current <- Some seq;
  let outcome = Monitor.handle t.monitor req in
  let _v = emit t ~seq ~rid outcome in
  t.current <- None;
  outcome

let mark t note =
  let seq = alloc t in
  Journal.append t.journal (Event.Mark { seq; note })

let sync t =
  Journal.sync t.journal;
  t.unsynced_verdicts <- 0

let verdicts_of events =
  List.filter_map
    (function
      | Event.Verdict v -> Some v
      | Event.Request _ | Event.Pre _ | Event.Mark _ -> None)
    events

let verdicts t = verdicts_of (fst (Journal.scan (device t)))
let verdict_lines t = List.map Event.verdict_line (verdicts t)
let verdict_for_rid t rid = Hashtbl.find_opt t.by_rid rid

type recovery = {
  events_scanned : int;
  discarded_bytes : int;
  resumed : int;
  rehandled : int;
}

let recover ?batch ?crash device make =
  let events, clean = Journal.scan device in
  let discarded = Device.size device - clean in
  Journal.truncate_torn device clean;
  match make_instance ?batch ?crash device make with
  | Error es -> Error es
  | Ok t ->
      (* Index the surviving history. *)
      let concluded = Hashtbl.create 64 in
      let pre_images = Hashtbl.create 8 in
      let max_seq = ref 0 in
      List.iter
        (fun ev ->
          max_seq := max !max_seq (Event.seq ev);
          match ev with
          | Event.Verdict v ->
              Hashtbl.replace concluded v.Event.v_seq ();
              Hashtbl.replace t.by_rid v.Event.v_rid v
          | Event.Pre { seq; image } -> Hashtbl.replace pre_images seq image
          | Event.Request _ | Event.Mark _ -> ())
        events;
      t.next_seq <- !max_seq + 1;
      (* Finish every request without a durable verdict.  By the
         barrier-before-every-forward invariant at most the last one
         can exist, but recovery handles any number soundly. *)
      let resumed = ref 0 and rehandled = ref 0 in
      List.iter
        (fun ev ->
          match ev with
          | Event.Request { seq; rid; req } when not (Hashtbl.mem concluded seq)
            ->
              let outcome =
                match Hashtbl.find_opt pre_images seq with
                | Some image ->
                    incr resumed;
                    Monitor.resume t.monitor req image
                | None ->
                    (* Nothing durable was forwarded for this request
                       (no pre-image means no barrier ran after its
                       append), or it was uncontracted — either way a
                       fresh handle with the same rid is idempotent. *)
                    incr rehandled;
                    Monitor.handle t.monitor req
              in
              ignore (emit t ~seq ~rid outcome)
          | _ -> ())
        events;
      sync t;
      Ok
        ( t,
          {
            events_scanned = List.length events;
            discarded_bytes = discarded;
            resumed = !resumed;
            rehandled = !rehandled;
          } )

type step =
  | Replay_request of { seq : int; rid : string; req : Cm_http.Request.t }
  | Replay_mark of string

let replay_plan events =
  List.filter_map
    (function
      | Event.Request { seq; rid; req } -> Some (Replay_request { seq; rid; req })
      | Event.Mark { note; _ } -> Some (Replay_mark note)
      | Event.Pre _ | Event.Verdict _ -> None)
    events

let journaled_verdict_lines events =
  List.map Event.verdict_line (verdicts_of events)
