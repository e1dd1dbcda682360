module Json = Cm_json.Json

type env = {
  vars : (string * Value.t) list;
  pre : env option;
  is_pre : bool;
      (* true when this env *is* a pre-state: [pre(e)] then means [e]
         (the operator is idempotent), rather than Undef *)
}

let env_of_bindings bindings =
  { vars = List.map (fun (name, json) -> (name, Value.Json json)) bindings;
    pre = None;
    is_pre = false
  }

let with_pre ~pre env = { env with pre = Some { pre with is_pre = true } }

let bindings env =
  List.filter_map
    (fun (name, value) ->
      match value with
      | Value.Json json -> Some (name, json)
      | Value.Undef -> None)
    env.vars

let lookup name env =
  match List.assoc_opt name env.vars with
  | Some value -> value
  | None -> Value.Undef

let bind_value name value env = { env with vars = (name, value) :: env.vars }

let rec eval env expr =
  match expr with
  | Ast.Bool_lit b -> Prim.value_of_bool b
  | Ast.Int_lit n -> Value.of_int n
  | Ast.String_lit s -> Value.of_string s
  | Ast.Null_lit -> Value.Json Json.Null
  | Ast.Var name -> lookup name env
  | Ast.Nav (e, prop) -> Prim.navigate (eval env e) prop
  | Ast.At_pre e ->
    (match env.pre with
     | Some pre_env -> eval pre_env e
     | None -> if env.is_pre then eval env e else Value.Undef)
  | Ast.Coll (e, op) -> Prim.coll op (eval env e)
  | Ast.Member (e, includes, arg) ->
    Prim.member ~includes (eval env e) (eval env arg)
  | Ast.Count (e, arg) -> Prim.count (eval env e) (eval env arg)
  | Ast.Iter (e, kind, var, body) ->
    Prim.iter kind (eval env e) (fun item ->
        eval (bind_value var item env) body)
  | Ast.Unop (Ast.Not, e) ->
    Prim.value_of_tribool (Value.tri_not (Value.truth (eval env e)))
  | Ast.Unop (Ast.Neg, e) -> Prim.neg (eval env e)
  | Ast.Binop (op, a, b) -> eval_binop env op a b

and eval_binop env op a b =
  match op with
  | Ast.And ->
    Prim.value_of_tribool
      (Value.tri_and (Value.truth (eval env a)) (Value.truth (eval env b)))
  | Ast.Or ->
    Prim.value_of_tribool
      (Value.tri_or (Value.truth (eval env a)) (Value.truth (eval env b)))
  | Ast.Implies ->
    Prim.value_of_tribool
      (Value.tri_implies (Value.truth (eval env a)) (Value.truth (eval env b)))
  | Ast.Xor ->
    Prim.value_of_tribool
      (Value.tri_xor (Value.truth (eval env a)) (Value.truth (eval env b)))
  | Ast.Eq -> Prim.value_of_tribool (Value.equal_value (eval env a) (eval env b))
  | Ast.Neq ->
    Prim.value_of_tribool
      (Value.tri_not (Value.equal_value (eval env a) (eval env b)))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    Prim.compare op (eval env a) (eval env b)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
    Prim.arith op (eval env a) (eval env b)

let check env expr = Value.truth (eval env expr)

type verdict = Holds | Violated | Undefined_verdict of string

(* Cheap structural hint: variables involved in the undefined part. *)
let pp_culprit ppf e =
  Fmt.pf ppf "undefined over {%s}" (String.concat ", " (Ast.free_vars e))

let verdict env expr =
  match check env expr with
  | Value.True -> Holds
  | Value.False -> Violated
  | Value.Unknown ->
    (* Point at the first undefined atom to aid fault localization. *)
    let rec first_undef e =
      match e with
      | Ast.Binop ((Ast.And | Ast.Or | Ast.Implies | Ast.Xor), a, b) ->
        (match Value.truth (eval env a) with
         | Value.Unknown -> first_undef a
         | _ ->
           (match Value.truth (eval env b) with
            | Value.Unknown -> first_undef b
            | _ -> e))
      | _ -> e
    in
    let culprit = first_undef expr in
    Undefined_verdict (Fmt.str "%a" pp_culprit culprit)

let pp_verdict ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Violated -> Fmt.string ppf "violated"
  | Undefined_verdict hint -> Fmt.pf ppf "undefined (%s)" hint

let verdict_equal a b =
  match a, b with
  | Holds, Holds | Violated, Violated -> true
  | Undefined_verdict _, Undefined_verdict _ -> true
  | _ -> false
