(* Tests for the JSON substrate: parser, printer, pointer, decoders. *)

module Json = Cm_json.Json
module Parser = Cm_json.Parser
module Printer = Cm_json.Printer
module Pointer = Cm_json.Pointer
module Decode = Cm_json.Decode

let json_testable = Alcotest.testable Json.pp Json.equal

let parse_ok input expected () =
  match Parser.parse input with
  | Ok value -> Alcotest.check json_testable input expected value
  | Error err -> Alcotest.failf "parse %S failed: %a" input Parser.pp_error err

let parse_err input () =
  match Parser.parse input with
  | Ok value -> Alcotest.failf "parse %S unexpectedly gave %a" input Json.pp value
  | Error _ -> ()

let parser_tests =
  [ Alcotest.test_case "null" `Quick (parse_ok "null" Json.Null);
    Alcotest.test_case "true/false" `Quick (fun () ->
        parse_ok "true" (Json.Bool true) ();
        parse_ok "false" (Json.Bool false) ());
    Alcotest.test_case "integers" `Quick (fun () ->
        parse_ok "0" (Json.Int 0) ();
        parse_ok "-42" (Json.Int (-42)) ();
        parse_ok "123456789" (Json.Int 123456789) ());
    Alcotest.test_case "floats" `Quick (fun () ->
        parse_ok "1.5" (Json.Float 1.5) ();
        parse_ok "-0.25" (Json.Float (-0.25)) ();
        parse_ok "1e3" (Json.Float 1000.) ();
        parse_ok "2.5E-1" (Json.Float 0.25) ());
    Alcotest.test_case "strings" `Quick (fun () ->
        parse_ok {|"hello"|} (Json.String "hello") ();
        parse_ok {|""|} (Json.String "") ();
        parse_ok {|"a\"b"|} (Json.String {|a"b|}) ();
        parse_ok {|"tab\there"|} (Json.String "tab\there") ();
        parse_ok {|"\\"|} (Json.String "\\") ());
    Alcotest.test_case "unicode escapes" `Quick (fun () ->
        parse_ok {|"A"|} (Json.String "A") ();
        parse_ok {|"é"|} (Json.String "\xc3\xa9") ();
        (* surrogate pair: U+1F600 *)
        parse_ok {|"😀"|} (Json.String "\xf0\x9f\x98\x80") ());
    Alcotest.test_case "arrays" `Quick (fun () ->
        parse_ok "[]" (Json.List []) ();
        parse_ok "[1, 2, 3]" (Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ])
          ();
        parse_ok "[[1],[2]]"
          (Json.List [ Json.List [ Json.Int 1 ]; Json.List [ Json.Int 2 ] ])
          ());
    Alcotest.test_case "objects" `Quick (fun () ->
        parse_ok "{}" (Json.Obj []) ();
        parse_ok {|{"a": 1, "b": [true]}|}
          (Json.Obj
             [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true ]) ])
          ());
    Alcotest.test_case "nested realistic body" `Quick
      (parse_ok
         {|{"volume": {"id": "vol-1", "status": "in-use", "size": 10, "attachments": [{"server_id": "srv-1"}]}}|}
         (Json.obj
            [ ( "volume",
                Json.obj
                  [ ("id", Json.string "vol-1");
                    ("status", Json.string "in-use");
                    ("size", Json.int 10);
                    ( "attachments",
                      Json.list
                        [ Json.obj [ ("server_id", Json.string "srv-1") ] ] )
                  ] )
            ]));
    Alcotest.test_case "whitespace tolerated" `Quick
      (parse_ok "  { \"a\" :\n[ 1 ,\t2 ] }  "
         (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
    Alcotest.test_case "duplicate keys keep first on lookup" `Quick (fun () ->
        let doc = Parser.parse_exn {|{"k": 1, "k": 2}|} in
        Alcotest.check (Alcotest.option json_testable) "first wins"
          (Some (Json.Int 1)) (Json.member "k" doc));
    Alcotest.test_case "duplicate keys compare by first occurrence" `Quick
      (fun () ->
        let a0 = ("a", Json.Int 0) and a1 = ("a", Json.Int 1) in
        let b2 = ("b", Json.Int 2) in
        List.iter
          (fun members ->
            let doc = Json.Obj members in
            Alcotest.check json_testable "sorted keeps the first binding"
              (Json.Obj [ a0; b2 ]) (Json.sort_keys doc);
            Alcotest.(check bool) "equal to its first bindings" true
              (Json.equal doc (Json.Obj [ a0; b2 ]));
            Alcotest.(check bool) "unequal to a later binding" false
              (Json.equal doc (Json.Obj [ a1; b2 ]));
            Alcotest.check (Alcotest.option json_testable)
              "sorted form agrees with member" (Json.member "a" doc)
              (Json.member "a" (Json.sort_keys doc)))
          [ [ a0; a1; b2 ]; [ b2; a0; a1 ]; [ a0; b2; a1 ] ]);
    Alcotest.test_case "errors" `Quick (fun () ->
        parse_err "" ();
        parse_err "{" ();
        parse_err "[1,]" ();
        parse_err "{\"a\":}" ();
        parse_err "nul" ();
        parse_err "01" ();
        parse_err "1 2" ();
        parse_err "\"unterminated" ();
        parse_err "{\"a\" 1}" ();
        parse_err "\"bad \\x escape\"" ();
        parse_err "\"\\ud800\"" () (* unpaired surrogate *));
    Alcotest.test_case "trailing garbage rejected" `Quick (parse_err "{}x")
  ]

let printer_tests =
  [ Alcotest.test_case "compact output" `Quick (fun () ->
        Alcotest.(check string)
          "compact" {|{"a":1,"b":[true,null],"c":"x"}|}
          (Printer.to_string
             (Json.obj
                [ ("a", Json.int 1);
                  ("b", Json.list [ Json.bool true; Json.null ]);
                  ("c", Json.string "x")
                ])));
    Alcotest.test_case "string escaping" `Quick (fun () ->
        Alcotest.(check string)
          "escapes" {|"a\"b\\c\nd"|}
          (Printer.to_string (Json.string "a\"b\\c\nd")));
    Alcotest.test_case "control characters escaped" `Quick (fun () ->
        Alcotest.(check string)
          "u0001" "\"\\u0001\""
          (Printer.to_string (Json.string "\001")));
    Alcotest.test_case "floats keep a decimal point" `Quick (fun () ->
        Alcotest.(check string) "2.0" "2.0" (Printer.to_string (Json.float 2.)));
    Alcotest.test_case "pretty is reparseable" `Quick (fun () ->
        let doc =
          Json.obj
            [ ("list", Json.list [ Json.int 1; Json.obj [ ("k", Json.null) ] ]);
              ("empty", Json.obj [])
            ]
        in
        Alcotest.check json_testable "roundtrip" doc
          (Parser.parse_exn (Printer.to_string_pretty doc)))
  ]

let pointer_tests =
  [ Alcotest.test_case "parse paths" `Quick (fun () ->
        Alcotest.(check bool)
          "keys" true
          (Pointer.parse_exn "volume.status"
          = [ Pointer.Key "volume"; Pointer.Key "status" ]);
        Alcotest.(check bool)
          "index" true
          (Pointer.parse_exn "volumes.0.id"
          = [ Pointer.Key "volumes"; Pointer.Index 0; Pointer.Key "id" ]);
        Alcotest.(check bool) "empty" true (Pointer.parse_exn "" = []));
    Alcotest.test_case "get" `Quick (fun () ->
        let doc =
          Parser.parse_exn
            {|{"volumes": [{"id": "v1"}, {"id": "v2"}], "quota": {"volumes": 3}}|}
        in
        Alcotest.check (Alcotest.option json_testable) "deep"
          (Some (Json.String "v2"))
          (Pointer.get (Pointer.parse_exn "volumes.1.id") doc);
        Alcotest.check (Alcotest.option json_testable) "missing" None
          (Pointer.get (Pointer.parse_exn "volumes.5.id") doc);
        Alcotest.check (Alcotest.option json_testable) "wrong shape" None
          (Pointer.get (Pointer.parse_exn "quota.volumes.x") doc));
    Alcotest.test_case "set replaces existing only" `Quick (fun () ->
        let doc = Parser.parse_exn {|{"a": {"b": 1}}|} in
        (match Pointer.set (Pointer.parse_exn "a.b") (Json.Int 2) doc with
         | Some updated ->
           Alcotest.check (Alcotest.option json_testable) "updated"
             (Some (Json.Int 2))
             (Pointer.get (Pointer.parse_exn "a.b") updated)
         | None -> Alcotest.fail "set failed");
        Alcotest.(check bool)
          "no implicit creation" true
          (Pointer.set (Pointer.parse_exn "a.c") (Json.Int 2) doc = None))
  ]

let merge_patch_tests =
  [ Alcotest.test_case "RFC 7386 examples" `Quick (fun () ->
        let check_mp name target patch expected =
          Alcotest.check json_testable name (Parser.parse_exn expected)
            (Json.merge_patch (Parser.parse_exn target)
               ~patch:(Parser.parse_exn patch))
        in
        check_mp "overwrite" {|{"a":"b"}|} {|{"a":"c"}|} {|{"a":"c"}|};
        check_mp "add" {|{"a":"b"}|} {|{"b":"c"}|} {|{"a":"b","b":"c"}|};
        check_mp "delete" {|{"a":"b"}|} {|{"a":null}|} {|{}|};
        check_mp "delete among" {|{"a":"b","b":"c"}|} {|{"a":null}|} {|{"b":"c"}|};
        check_mp "array replaces" {|{"a":["b"]}|} {|{"a":"c"}|} {|{"a":"c"}|};
        check_mp "nested merge" {|{"a":{"b":"c"}}|} {|{"a":{"b":"d","c":null}}|}
          {|{"a":{"b":"d"}}|};
        check_mp "non-object patch replaces" {|{"a":"b"}|} {|["c"]|} {|["c"]|};
        check_mp "object over scalar" {|{"a":"b"}|} {|{"a":{"c":1}}|}
          {|{"a":{"c":1}}|});
    Alcotest.test_case "a patched key loses every binding" `Quick (fun () ->
        let target =
          Json.Obj [ ("a", Json.Int 0); ("b", Json.Int 2); ("a", Json.Int 1) ]
        in
        let patch text = Parser.parse_exn text in
        let patched = Json.merge_patch target ~patch:(patch {|{"a":5}|}) in
        Alcotest.check (Alcotest.option json_testable) "member reads the patch"
          (Some (Json.Int 5)) (Json.member "a" patched);
        Alcotest.(check (list string)) "one binding of the key is left"
          [ "b"; "a" ] (Json.keys patched);
        Alcotest.(check (list string)) "deleting removes them all" [ "b" ]
          (Json.keys
             (Json.merge_patch target ~patch:(patch {|{"a":null}|}))));
    Alcotest.test_case "patching null/absent creates" `Quick (fun () ->
        Alcotest.check json_testable "from null"
          (Parser.parse_exn {|{"k":1}|})
          (Json.merge_patch Json.Null ~patch:(Parser.parse_exn {|{"k":1}|})))
  ]

let decode_tests =
  [ Alcotest.test_case "primitives" `Quick (fun () ->
        Alcotest.(check (result int string))
          "int" (Ok 5)
          (Decode.run Decode.int (Json.Int 5));
        Alcotest.(check (result string string))
          "wrong type"
          (Error "expected string, found int")
          (Decode.run Decode.string (Json.Int 5)));
    Alcotest.test_case "fields and paths" `Quick (fun () ->
        let doc = Parser.parse_exn {|{"volume": {"size": 10}}|} in
        Alcotest.(check (result int string))
          "at" (Ok 10)
          (Decode.run (Decode.at [ "volume"; "size" ] Decode.int) doc);
        Alcotest.(check (result (option int) string))
          "field_opt absent" (Ok None)
          (Decode.run (Decode.field_opt "nope" Decode.int) doc);
        (match Decode.run (Decode.field "missing" Decode.int) doc with
         | Error msg ->
           Alcotest.(check bool) "mentions key" true
             (String.length msg > 0
             && String.sub msg 0 13 = "missing field")
         | Ok _ -> Alcotest.fail "expected error"));
    Alcotest.test_case "list decoder reports index" `Quick (fun () ->
        match
          Decode.run (Decode.list Decode.int)
            (Json.List [ Json.Int 1; Json.String "x" ])
        with
        | Error msg ->
          Alcotest.(check bool) "has index" true (String.sub msg 0 4 = "[1]:")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "map / bind / both / keys" `Quick (fun () ->
        let doc = Parser.parse_exn {|{"a": 2, "b": 3}|} in
        Alcotest.(check (result int string))
          "map" (Ok 4)
          (Decode.run (Decode.map (fun n -> n * 2) (Decode.field "a" Decode.int)) doc);
        Alcotest.(check (result int string))
          "bind" (Ok 5)
          (Decode.run
             (Decode.bind
                (fun a -> Decode.map (fun b -> a + b) (Decode.field "b" Decode.int))
                (Decode.field "a" Decode.int))
             doc);
        Alcotest.(check (result (pair int int) string))
          "both" (Ok (2, 3))
          (Decode.run
             (Decode.both (Decode.field "a" Decode.int) (Decode.field "b" Decode.int))
             doc);
        Alcotest.(check (result (list string) string))
          "keys" (Ok [ "a"; "b" ])
          (Decode.run Decode.keys doc);
        Alcotest.(check (result int string))
          "succeed" (Ok 9)
          (Decode.run (Decode.succeed 9) Json.Null);
        Alcotest.(check (result int string))
          "fail" (Error "nope")
          (Decode.run (Decode.fail "nope") Json.Null));
    Alcotest.test_case "one_of and default" `Quick (fun () ->
        let int_or_string =
          Decode.one_of
            [ Decode.map string_of_int Decode.int; Decode.string ]
        in
        Alcotest.(check (result string string))
          "first" (Ok "3")
          (Decode.run int_or_string (Json.Int 3));
        Alcotest.(check (result string string))
          "second" (Ok "x")
          (Decode.run int_or_string (Json.String "x"));
        Alcotest.(check (result int string))
          "default" (Ok 9)
          (Decode.run (Decode.default 9 Decode.int) Json.Null))
  ]

(* ---- property-based tests ---- *)

let gen_json =
  QCheck2.Gen.(
    sized @@ fix (fun self size ->
        let scalar =
          oneof
            [ return Json.Null;
              map Json.bool bool;
              map Json.int (int_range (-1000) 1000);
              map Json.string (string_size ~gen:printable (int_range 0 8))
            ]
        in
        if size <= 0 then scalar
        else
          oneof
            [ scalar;
              map Json.list (list_size (int_range 0 4) (self (size / 2)));
              map Json.obj
                (list_size (int_range 0 4)
                   (pair
                      (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
                      (self (size / 2))))
            ]))

let prop_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"print |> parse is the identity" gen_json
    (fun doc ->
      match Parser.parse (Printer.to_string doc) with
      | Ok parsed -> Json.equal doc parsed
      | Error _ -> false)

let prop_pretty_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"pretty print |> parse is the identity"
    gen_json (fun doc ->
      match Parser.parse (Printer.to_string_pretty doc) with
      | Ok parsed -> Json.equal doc parsed
      | Error _ -> false)

let prop_sort_keys_idempotent =
  QCheck2.Test.make ~count:200 ~name:"sort_keys is idempotent" gen_json
    (fun doc -> Json.sort_keys (Json.sort_keys doc) = Json.sort_keys doc)

let prop_equal_reflexive =
  QCheck2.Test.make ~count:200 ~name:"equal is reflexive" gen_json (fun doc ->
      Json.equal doc doc)

let prop_compare_antisym =
  QCheck2.Test.make ~count:200 ~name:"compare antisymmetric"
    (QCheck2.Gen.pair gen_json gen_json) (fun (a, b) ->
      Json.compare a b = -Json.compare b a)

let prop_merge_patch_idempotent =
  QCheck2.Test.make ~count:200 ~name:"merge_patch is idempotent"
    (QCheck2.Gen.pair gen_json gen_json) (fun (target, patch) ->
      let once = Json.merge_patch target ~patch in
      Json.equal (Json.merge_patch once ~patch) once)

let prop_merge_patch_empty =
  QCheck2.Test.make ~count:200 ~name:"empty object patch preserves objects"
    gen_json (fun doc ->
      match doc with
      | Json.Obj _ -> Json.equal (Json.merge_patch doc ~patch:(Json.Obj [])) doc
      | _ -> true)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_merge_patch_idempotent;
      prop_merge_patch_empty;
      prop_roundtrip;
      prop_pretty_roundtrip;
      prop_sort_keys_idempotent;
      prop_equal_reflexive;
      prop_compare_antisym
    ]

let () =
  Alcotest.run "cm_json"
    [ ("parser", parser_tests);
      ("printer", printer_tests);
      ("pointer", pointer_tests);
      ("merge-patch", merge_patch_tests);
      ("decode", decode_tests);
      ("properties", properties)
    ]
