(* Tests for the durable event journal and crash recovery.

   The framing layer is checked exhaustively: the journal of a real
   recorded run is truncated at EVERY byte offset and corrupted at
   EVERY byte offset, and the scanner must return exactly the frames
   that are completely and correctly present.  End-to-end, the same
   truncation sweep runs through full recovery: at every offset the
   recovered verdict stream must be exactly-once per journaled request,
   with every durably-concluded exchange reproduced verbatim.  On top
   of that: crash-point injection at every site, journal-replay
   bit-identity for all five workload mixes through production and
   through the reference monitor, and a bounded run of the [monitor]
   fuzz oracle's journaled cases. *)

module Device = Cm_journal.Device
module Record = Cm_journal.Record
module Event = Cm_journal.Event
module Journal = Cm_journal.Journal
module Jmonitor = Cm_journal.Jmonitor
module Scenario = Cm_mutation.Scenario
module Campaign = Cm_mutation.Campaign
module Mutant = Cm_mutation.Mutant
module Workload = Cm_workload.Workload
module Clock = Cm_core.Clock

let require = function
  | Ok v -> v
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)

let record_standard () =
  let ctx = require (Scenario.setup_journaled ()) in
  let _ = Scenario.jrun_trace ctx Workload.standard_trace in
  Jmonitor.sync ctx.Scenario.jmon;
  ctx

(* ---- record framing ---- *)

let fresh_device () =
  let clock = Clock.create () in
  Device.create ~clock ~seed:11 ()

let record_tests =
  [ Alcotest.test_case "frame/scan round-trip" `Quick (fun () ->
        let payloads = [ ""; "x"; String.make 300 'a'; "{\"k\":[1,2]}" ] in
        let data = String.concat "" (List.map Record.frame payloads) in
        let scanned, clean = Record.scan data in
        Alcotest.(check (list string)) "payloads" payloads scanned;
        Alcotest.(check int) "clean offset" (String.length data) clean);
    Alcotest.test_case "truncation at every byte offset" `Quick (fun () ->
        let payloads = [ "alpha"; ""; "gamma-gamma"; String.make 64 'z' ] in
        let frames = List.map Record.frame payloads in
        let data = String.concat "" frames in
        (* frame start offsets *)
        let starts, _ =
          List.fold_left
            (fun (acc, off) f -> (off :: acc, off + String.length f))
            ([], 0) frames
        in
        let starts = List.rev starts in
        for n = 0 to String.length data do
          let scanned, clean = Record.scan (String.sub data 0 n) in
          (* exactly the frames wholly inside the first [n] bytes *)
          let expect =
            List.filteri
              (fun i _ ->
                List.nth starts i + String.length (List.nth frames i) <= n)
              payloads
          in
          Alcotest.(check (list string))
            (Printf.sprintf "payloads at cut %d" n)
            expect scanned;
          let expect_clean =
            List.fold_left2
              (fun acc start f ->
                if start + String.length f <= n then start + String.length f
                else acc)
              0 starts frames
          in
          Alcotest.(check int)
            (Printf.sprintf "clean offset at cut %d" n)
            expect_clean clean
        done);
    Alcotest.test_case "corruption at every byte offset" `Quick (fun () ->
        let payloads = [ "alpha"; "beta!"; String.make 48 'q'; "" ] in
        let frames = List.map Record.frame payloads in
        let data = String.concat "" frames in
        let starts, _ =
          List.fold_left
            (fun (acc, off) f -> (off :: acc, off + String.length f))
            ([], 0) frames
        in
        let starts = List.rev starts in
        for n = 0 to String.length data - 1 do
          let corrupted = Bytes.of_string data in
          Bytes.set corrupted n
            (Char.chr (Char.code (Bytes.get corrupted n) lxor 0x41));
          let scanned, _clean = Record.scan (Bytes.to_string corrupted) in
          (* the frames strictly before the corrupted one, exactly *)
          let expect =
            List.filteri
              (fun i _ ->
                List.nth starts i + String.length (List.nth frames i) <= n)
              payloads
          in
          Alcotest.(check (list string))
            (Printf.sprintf "payloads with byte %d corrupted" n)
            expect scanned
        done);
    Alcotest.test_case "crc32 detects single-byte damage" `Quick (fun () ->
        let p = "the quick brown fox" in
        let c = Record.crc32 p in
        String.iteri
          (fun i ch ->
            let b = Bytes.of_string p in
            Bytes.set b i (Char.chr (Char.code ch lxor 1));
            if Record.crc32 (Bytes.to_string b) = c then
              Alcotest.failf "collision flipping byte %d" i)
          p)
  ]

(* ---- event serialization ---- *)

let pre_image =
  { Cm_monitor.Monitor.pi_pre_verdict = Cm_ocl.Eval.Holds;
    pi_auth = Some Cm_ocl.Value.True;
    pi_functional = Cm_ocl.Value.True;
    pi_covered = [ "1.4" ];
    pi_snapshot =
      [ ("__pre0", Cm_ocl.Value.Json (Cm_json.Json.int 3));
        ("__pre1", Cm_ocl.Value.Undef)
      ]
  }

let pre_event = Event.Pre { seq = 7; image = pre_image }

let pre_wire =
  {|{"t":"pre","seq":7,"pre":"H","auth":["T"],"fn":"T","cov":["1.4"],"snap":[[["__pre0",["j",3]],["__pre1",["u"]]]]}|}

let event_tests =
  [ Alcotest.test_case "every recorded event round-trips" `Quick (fun () ->
        let ctx = record_standard () in
        let events, clean = Journal.scan ctx.Scenario.jdevice in
        Alcotest.(check bool) "journal non-trivial" true (List.length events > 20);
        Alcotest.(check int)
          "journal clean" (Device.size ctx.Scenario.jdevice) clean;
        List.iter
          (fun e ->
            let enc = Event.encode e in
            match Event.decode enc with
            | None -> Alcotest.failf "does not decode: %s" enc
            | Some e' ->
              Alcotest.(check string) "re-encodes identically" enc
                (Event.encode e'))
          events;
        (* the standard trace exercises Request/Pre/Verdict; Mark is
           covered by a constructed event *)
        let has p = List.exists p events in
        Alcotest.(check bool) "has Request" true
          (has (function Event.Request _ -> true | _ -> false));
        Alcotest.(check bool) "has Pre" true
          (has (function Event.Pre _ -> true | _ -> false));
        Alcotest.(check bool) "has Verdict" true
          (has (function Event.Verdict _ -> true | _ -> false));
        let mark = Event.Mark { seq = 99; note = "relogin:alice" } in
        (match Event.decode (Event.encode mark) with
         | Some (Event.Mark { seq = 99; note = "relogin:alice" }) -> ()
         | _ -> Alcotest.fail "Mark does not round-trip"));
    Alcotest.test_case "decode is total on garbage" `Quick (fun () ->
        List.iter
          (fun s ->
            match Event.decode s with
            | None -> ()
            | Some _ -> Alcotest.failf "garbage decoded: %s" s)
          [ ""; "{}"; "[\"zzz\"]"; "[\"ver\"]"; "not json"; "[\"req\",1]" ]);
    (* The Pre record's bytes are pinned: recovery must keep reading
       journals written by earlier builds, so the snapshot keeps its
       one-element-list wrapper. *)
    Alcotest.test_case "Pre record wire format is pinned" `Quick (fun () ->
        Alcotest.(check string) "bytes" pre_wire (Event.encode pre_event);
        match Event.decode pre_wire with
        | Some (Event.Pre { seq = 7; image }) ->
          Alcotest.(check bool) "image round-trips" true
            (image = pre_image)
        | _ -> Alcotest.fail "pinned Pre record does not decode");
    Alcotest.test_case "Pre record without a snapshot is malformed" `Quick
      (fun () ->
        let null_snap =
          {|{"t":"pre","seq":7,"pre":"H","auth":["T"],"fn":"T","cov":["1.4"],"snap":null}|}
        in
        Alcotest.(check bool) "rejected" true (Event.decode null_snap = None))
  ]

(* ---- device semantics ---- *)

let device_tests =
  [ Alcotest.test_case "sync moves the durability watermark" `Quick (fun () ->
        let d = fresh_device () in
        Device.append d "abc";
        Alcotest.(check int) "unsynced" 0 (Device.durable_size d);
        Device.sync d;
        Alcotest.(check int) "synced" 3 (Device.durable_size d);
        let before = Device.syncs d in
        Device.sync d;
        Alcotest.(check int) "empty sync is a no-op" before (Device.syncs d));
    Alcotest.test_case "crash keeps synced bytes, tears the tail" `Quick
      (fun () ->
        (* over many seeds: the survivor is always a prefix, always at
           least the durable bytes, and the torn draw actually varies *)
        let lengths = Hashtbl.create 8 in
        for seed = 0 to 63 do
          let clock = Clock.create () in
          let d = Device.create ~clock ~seed () in
          Device.append d "abc";
          Device.sync d;
          Device.append d "defgh";
          Device.crash d;
          let c = Device.contents d in
          Alcotest.(check bool)
            "prefix of the pre-crash bytes" true
            (String.length c <= 8
            && String.sub "abcdefgh" 0 (String.length c) = c);
          Alcotest.(check bool) "synced bytes survive" true
            (String.length c >= 3);
          Hashtbl.replace lengths (String.length c) ()
        done;
        Alcotest.(check bool) "torn lengths vary across seeds" true
          (Hashtbl.length lengths > 2));
    Alcotest.test_case "truncate discards and caps the watermark" `Quick
      (fun () ->
        let d = fresh_device () in
        Device.append d "abcdef";
        Device.sync d;
        Device.truncate d 2;
        Alcotest.(check int) "size" 2 (Device.size d);
        Alcotest.(check bool) "watermark capped" true
          (Device.durable_size d <= 2))
  ]

(* ---- torn-tail recovery sweep ---- *)

(* One recorded run; then the journal image is cut at every byte
   offset and mounted on a fresh device, recovering after each cut
   (each recovery gets its own device — a recovery truncates the torn
   tail and appends its own verdicts, so reusing one device would let
   iterations contaminate each other).  At every offset:

   - recovery must succeed,
   - the recovered verdicts are exactly one per journaled request
     (exactly-once, no duplicates, no inventions),
   - every exchange whose verdict was durable is reproduced
     bit-identically to the crash-free run.

   Exchanges concluded during recovery (resumed from a durable
   pre-image, or re-handled from the bare request) are covered by the
   exactly-once checks but not line-compared: this sweep cuts the
   journal of a run that went on to completion, so post-state
   re-observation sees effects of later steps — unlike a real crash,
   where the cloud stops with the journal.  The crash-injection tests
   below cover the real model, where resumed verdicts do match the
   crash-free run verbatim. *)

let torn_tests =
  [ Alcotest.test_case "recovery at every truncation offset" `Slow (fun () ->
        let ctx = record_standard () in
        let clean_by_seq =
          List.map
            (fun (v : Event.verdict_record) ->
              (v.Event.v_seq, Event.verdict_line v))
            (Jmonitor.verdicts ctx.Scenario.jmon)
        in
        let image = Device.contents ctx.Scenario.jdevice in
        let total = String.length image in
        for n = total downto 0 do
          let device =
            Device.create
              ~contents:(String.sub image 0 n)
              ~clock:ctx.Scenario.jclock ~seed:3 ()
          in
          let events, _ = Journal.scan device in
          let req_seqs =
            List.filter_map
              (function Event.Request { seq; _ } -> Some seq | _ -> None)
              events
          in
          let concluded_seqs =
            List.filter_map
              (function
                | Event.Verdict v -> Some v.Event.v_seq
                | _ -> None)
              events
          in
          let jm =
            match Jmonitor.recover device ctx.Scenario.jmake with
            | Error msgs ->
              Alcotest.failf "cut %d: recovery failed: %s" n
                (String.concat "; " msgs)
            | Ok (jm, _) -> jm
          in
          let recovered = Jmonitor.verdicts jm in
          let seqs = List.map (fun v -> v.Event.v_seq) recovered in
          Alcotest.(check (list int))
            (Printf.sprintf "cut %d: exactly one verdict per request" n)
            (List.sort compare req_seqs)
            (List.sort compare seqs);
          List.iter
            (fun (v : Event.verdict_record) ->
              if List.mem v.Event.v_seq concluded_seqs then
                match List.assoc_opt v.Event.v_seq clean_by_seq with
                | None ->
                  Alcotest.failf "cut %d: seq %d not in the clean run" n
                    v.Event.v_seq
                | Some line ->
                  Alcotest.(check string)
                    (Printf.sprintf "cut %d: seq %d verbatim" n v.Event.v_seq)
                    line (Event.verdict_line v))
            recovered
        done)
  ]

(* ---- crash-point injection ---- *)

let crash_tests =
  [ Alcotest.test_case "every site: crash, recover, exactly-once" `Slow
      (fun () ->
        List.iter
          (fun site ->
            let run =
              match
                Campaign.run_crash_one ~cross:false ~index:0 ~site ~nth:2
                  None None
              with
              | Ok r -> r
              | Error msgs ->
                Alcotest.failf "%s: %s" site (String.concat "; " msgs)
            in
            Alcotest.(check bool)
              (site ^ ": crash fired") true run.Campaign.xr_fired;
            if not (Campaign.crash_ok [ run ]) then
              Alcotest.failf "%s:\n%s" site (Campaign.crash_matrix [ run ]))
          Campaign.crash_sites);
    Alcotest.test_case "a mutant stays killed across the crash" `Slow
      (fun () ->
        let mutant =
          match Mutant.find "M1-delete-privilege-escalation" with
          | Some m -> m
          | None -> Alcotest.fail "mutant M1 not in the catalog"
        in
        let run =
          match
            Campaign.run_crash_one ~index:0 ~site:"monitor.after-forward"
              ~nth:2 None (Some mutant)
          with
          | Ok r -> r
          | Error msgs -> Alcotest.fail (String.concat "; " msgs)
        in
        Alcotest.(check bool) "fired" true run.Campaign.xr_fired;
        Alcotest.(check bool) "killed" true run.Campaign.xr_killed;
        if not (Campaign.crash_ok [ run ]) then
          Alcotest.fail (Campaign.crash_matrix [ run ]))
  ]

(* ---- replay bit-identity ---- *)

let replay_tests =
  [ Alcotest.test_case "all five mixes replay bit-identically" `Slow (fun () ->
        List.iter
          (fun mix ->
            let trace = mix.Workload.compile ~seed:42 in
            let ctx = require (Scenario.setup_journaled ~cross:true ()) in
            let _ = Scenario.jrun_trace ctx trace in
            Jmonitor.sync ctx.Scenario.jmon;
            let events = Scenario.journal_events ctx in
            let recorded = Jmonitor.journaled_verdict_lines events in
            Alcotest.(check bool)
              (mix.Workload.mix_name ^ ": verdicts recorded") true
              (List.length recorded > 0);
            List.iter
              (fun (label, replay) ->
                Alcotest.(check (list string))
                  (Printf.sprintf "%s through %s" mix.Workload.mix_name label)
                  recorded
                  (require (replay events)))
              [ ("production", Scenario.replay_journal ~cross:true ?mode:None);
                ( "the reference",
                  Scenario.replay_reference ~cross:true ?mode:None )
              ])
          Workload.mixes)
  ]

(* ---- the fuzz oracle, bounded ---- *)

let oracle_tests =
  [ Alcotest.test_case "journal oracle passes a bounded run" `Slow (fun () ->
        (* monitor cases 4, 5, 12 and 13 run production through the
           journal (two probe and two mix cases) and replay the journal
           through the reference *)
        let report =
          Cm_proptest.Runner.run ~oracles:[ Cm_proptest.Oracle.monitor ]
            ~shrink:false ~seed:42 ~cases:14 ()
        in
        List.iter
          (fun (f : Cm_proptest.Oracle.failure) ->
            Alcotest.failf "case %d: %s (%s)" f.index f.detail f.repr)
          report.Cm_proptest.Runner.failures)
  ]

let () =
  Alcotest.run "journal"
    [ ("record", record_tests);
      ("event", event_tests);
      ("device", device_tests);
      ("torn-tail", torn_tests);
      ("crash", crash_tests);
      ("replay", replay_tests);
      ("oracle", oracle_tests)
    ]
