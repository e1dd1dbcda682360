module Ast = Cm_ocl.Ast

type compiled = {
  rewritten_post : Ast.expr;
  slots : (string * Ast.expr) list;
}

let compile post =
  let slots = ref [] in
  let slot_for expr =
    match List.find_opt (fun (_, e) -> Ast.equal e expr) !slots with
    | Some (name, _) -> name
    | None ->
      let name = Printf.sprintf "__pre%d" (List.length !slots) in
      slots := !slots @ [ (name, expr) ];
      name
  in
  let rec rewrite expr =
    match expr with
    | Ast.At_pre inner ->
      (* [pre] is idempotent: nested pre() inside the slot expression is
         evaluated in the same pre-state. *)
      Ast.Var (slot_for inner)
    | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.String_lit _ | Ast.Null_lit
    | Ast.Var _ -> expr
    | Ast.Nav (e, prop) -> Ast.Nav (rewrite e, prop)
    | Ast.Coll (e, op) -> Ast.Coll (rewrite e, op)
    | Ast.Member (e, incl, x) -> Ast.Member (rewrite e, incl, rewrite x)
    | Ast.Count (e, x) -> Ast.Count (rewrite e, rewrite x)
    | Ast.Iter (e, kind, var, body) -> Ast.Iter (rewrite e, kind, var, rewrite body)
    | Ast.Unop (op, e) -> Ast.Unop (op, rewrite e)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, rewrite a, rewrite b)
  in
  let rewritten_post = rewrite post in
  { rewritten_post; slots = !slots }

type taken = (string * Cm_ocl.Value.t) list

let take compiled pre_env =
  (* The slot expressions may themselves contain pre() (idempotent), so
     evaluate them in an environment marked as the pre-state. *)
  let marked = Cm_ocl.Eval.with_pre ~pre:pre_env pre_env in
  List.map (fun (name, expr) -> (name, Cm_ocl.Eval.eval marked expr)) compiled.slots

let post_env taken env =
  List.fold_left
    (fun env (name, value) -> Cm_ocl.Eval.bind_value name value env)
    env taken

let check_post_lean compiled taken env =
  Cm_ocl.Eval.check (post_env taken env) compiled.rewritten_post

let check_post_full post ~pre env =
  Cm_ocl.Eval.check (Cm_ocl.Eval.with_pre ~pre env) post

let post_verdict : Cm_ocl.Value.tribool -> Cm_ocl.Eval.verdict = function
  | True -> Holds
  | False -> Violated
  | Unknown -> Undefined_verdict "postcondition undefined"

let value_bytes = function
  | Cm_ocl.Value.Undef -> 1
  | Cm_ocl.Value.Json json -> String.length (Cm_json.Printer.to_string json)

let size_bytes taken =
  List.fold_left (fun acc (_, value) -> acc + value_bytes value) 0 taken

let full_size_bytes env =
  List.fold_left
    (fun acc (_, json) -> acc + String.length (Cm_json.Printer.to_string json))
    0
    (Cm_ocl.Eval.bindings env)
