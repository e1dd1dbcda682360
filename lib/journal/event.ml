module J = Cm_json.Json

type verdict_record = {
  v_seq : int;
  v_rid : string;
  v_meth : string;
  v_path : string;
  v_status : int;
  v_conformance : string;
  v_detail : string;
  v_covered : string list;
  v_body : Cm_json.Json.t option;
}

type t =
  | Request of { seq : int; rid : string; req : Cm_http.Request.t }
  | Pre of { seq : int; image : Cm_monitor.Monitor.pre_image }
  | Verdict of verdict_record
  | Mark of { seq : int; note : string }

let seq = function
  | Request { seq; _ } | Pre { seq; _ } | Mark { seq; _ } -> seq
  | Verdict v -> v.v_seq

(* Options are wrapped in a singleton list ([Null] = absent) so that
   [Some Null] bodies survive a round-trip. *)
let opt enc = function None -> J.Null | Some x -> J.List [ enc x ]

let dec_opt dec = function
  | J.Null -> Some None
  | J.List [ x ] -> Option.map Option.some (dec x)
  | _ -> None

let enc_pairs ps =
  J.List (List.map (fun (k, v) -> J.List [ J.String k; J.String v ]) ps)

let dec_pairs j =
  match j with
  | J.List items ->
      let pair = function
        | J.List [ J.String k; J.String v ] -> Some (k, v)
        | _ -> None
      in
      let ps = List.filter_map pair items in
      if List.length ps = List.length items then Some ps else None
  | _ -> None

let enc_verdict = function
  | Cm_ocl.Eval.Holds -> J.String "H"
  | Cm_ocl.Eval.Violated -> J.String "V"
  | Cm_ocl.Eval.Undefined_verdict hint -> J.List [ J.String "U"; J.String hint ]

let dec_verdict = function
  | J.String "H" -> Some Cm_ocl.Eval.Holds
  | J.String "V" -> Some Cm_ocl.Eval.Violated
  | J.List [ J.String "U"; J.String hint ] ->
      Some (Cm_ocl.Eval.Undefined_verdict hint)
  | _ -> None

let enc_tri = function
  | Cm_ocl.Value.True -> J.String "T"
  | Cm_ocl.Value.False -> J.String "F"
  | Cm_ocl.Value.Unknown -> J.String "U"

let dec_tri = function
  | J.String "T" -> Some Cm_ocl.Value.True
  | J.String "F" -> Some Cm_ocl.Value.False
  | J.String "U" -> Some Cm_ocl.Value.Unknown
  | _ -> None

let enc_value = function
  | Cm_ocl.Value.Undef -> J.List [ J.String "u" ]
  | Cm_ocl.Value.Json j -> J.List [ J.String "j"; j ]

let dec_value = function
  | J.List [ J.String "u" ] -> Some Cm_ocl.Value.Undef
  | J.List [ J.String "j"; j ] -> Some (Cm_ocl.Value.Json j)
  | _ -> None

let enc_snapshot slots =
  J.List
    (List.map (fun (slot, v) -> J.List [ J.String slot; enc_value v ]) slots)

let dec_snapshot j =
  match j with
  | J.List items ->
      let slot = function
        | J.List [ J.String name; v ] ->
            Option.map (fun v -> (name, v)) (dec_value v)
        | _ -> None
      in
      let ss = List.filter_map slot items in
      if List.length ss = List.length items then Some ss else None
  | _ -> None

let enc_strings ss = J.List (List.map (fun s -> J.String s) ss)

let dec_strings = function
  | J.List items ->
      let s = function J.String s -> Some s | _ -> None in
      let ss = List.filter_map s items in
      if List.length ss = List.length items then Some ss else None
  | _ -> None

let encode ev =
  let json =
    match ev with
    | Request { seq; rid; req } ->
        J.Obj
          [
            ("t", J.String "req");
            ("seq", J.Int seq);
            ("rid", J.String rid);
            ("meth", J.String (Cm_http.Meth.to_string req.Cm_http.Request.meth));
            ("path", J.String req.Cm_http.Request.path);
            ("query", enc_pairs req.Cm_http.Request.query);
            ( "headers",
              enc_pairs (Cm_http.Headers.to_list req.Cm_http.Request.headers) );
            ("body", opt Fun.id req.Cm_http.Request.body);
          ]
    | Pre { seq; image } ->
        J.Obj
          [
            ("t", J.String "pre");
            ("seq", J.Int seq);
            ("pre", enc_verdict image.Cm_monitor.Monitor.pi_pre_verdict);
            ("auth", opt enc_tri image.Cm_monitor.Monitor.pi_auth);
            ("fn", enc_tri image.Cm_monitor.Monitor.pi_functional);
            ("cov", enc_strings image.Cm_monitor.Monitor.pi_covered);
            (* the one-element-list wrapper is part of the wire format
               existing journals were written in *)
            ( "snap",
              J.List [ enc_snapshot image.Cm_monitor.Monitor.pi_snapshot ] );
          ]
    | Verdict v ->
        J.Obj
          [
            ("t", J.String "ver");
            ("seq", J.Int v.v_seq);
            ("rid", J.String v.v_rid);
            ("meth", J.String v.v_meth);
            ("path", J.String v.v_path);
            ("status", J.Int v.v_status);
            ("conf", J.String v.v_conformance);
            ("detail", J.String v.v_detail);
            ("cov", enc_strings v.v_covered);
            ("body", opt Fun.id v.v_body);
          ]
    | Mark { seq; note } ->
        J.Obj
          [ ("t", J.String "mark"); ("seq", J.Int seq); ("note", J.String note) ]
  in
  Cm_json.Printer.to_string json

let field name j = J.member name j
let str name j = Option.bind (field name j) J.to_string
let int_f name j = Option.bind (field name j) J.to_int

let ( let* ) = Option.bind

let decode_json j =
  let* tag = str "t" j in
  let* seq = int_f "seq" j in
  match tag with
  | "req" ->
      let* rid = str "rid" j in
      let* meth = Option.bind (str "meth" j) Cm_http.Meth.of_string in
      let* path = str "path" j in
      let* query = Option.bind (field "query" j) dec_pairs in
      let* headers = Option.bind (field "headers" j) dec_pairs in
      let* body = Option.bind (field "body" j) (dec_opt Option.some) in
      let req =
        {
          Cm_http.Request.meth;
          path;
          query;
          headers = Cm_http.Headers.of_list headers;
          body;
        }
      in
      Some (Request { seq; rid; req })
  | "pre" ->
      let* pi_pre_verdict = Option.bind (field "pre" j) dec_verdict in
      let* pi_auth = Option.bind (field "auth" j) (dec_opt dec_tri) in
      let* pi_functional = Option.bind (field "fn" j) dec_tri in
      let* pi_covered = Option.bind (field "cov" j) dec_strings in
      let* pi_snapshot =
        match field "snap" j with
        | Some (J.List [ snap ]) -> dec_snapshot snap
        | _ -> None
      in
      Some
        (Pre
           {
             seq;
             image =
               {
                 Cm_monitor.Monitor.pi_pre_verdict;
                 pi_auth;
                 pi_functional;
                 pi_covered;
                 pi_snapshot;
               };
           })
  | "ver" ->
      let* v_rid = str "rid" j in
      let* v_meth = str "meth" j in
      let* v_path = str "path" j in
      let* v_status = int_f "status" j in
      let* v_conformance = str "conf" j in
      let* v_detail = str "detail" j in
      let* v_covered = Option.bind (field "cov" j) dec_strings in
      let* v_body = Option.bind (field "body" j) (dec_opt Option.some) in
      Some
        (Verdict
           {
             v_seq = seq;
             v_rid;
             v_meth;
             v_path;
             v_status;
             v_conformance;
             v_detail;
             v_covered;
             v_body;
           })
  | "mark" ->
      let* note = str "note" j in
      Some (Mark { seq; note })
  | _ -> None

let decode payload =
  match Cm_json.Parser.parse payload with
  | Error _ -> None
  | Ok j -> ( try decode_json j with _ -> None)

let verdict_line v =
  Printf.sprintf "%d %s %s %s %d %s %s [%s] %s" v.v_seq v.v_rid v.v_meth
    v.v_path v.v_status v.v_conformance v.v_detail
    (String.concat "," v.v_covered)
    (match v.v_body with
    | None -> "-"
    | Some body -> Cm_json.Printer.to_string (J.sort_keys body))

let pp ppf ev =
  match ev with
  | Request { seq; rid; req } ->
      Format.fprintf ppf "#%d req %s %s %s" seq rid
        (Cm_http.Meth.to_string req.Cm_http.Request.meth)
        req.Cm_http.Request.path
  | Pre { seq; _ } -> Format.fprintf ppf "#%d pre" seq
  | Verdict v -> Format.fprintf ppf "#%d verdict %s" v.v_seq v.v_conformance
  | Mark { seq; note } -> Format.fprintf ppf "#%d mark %s" seq note
