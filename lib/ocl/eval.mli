(** OCL evaluation over observed cloud state.

    An {!env} binds the model's context variables ([project], [user],
    [volume], [quota_sets], …) to JSON documents derived from cloud
    responses.  Evaluation of postconditions additionally receives the
    {e pre-state} environment — the snapshot taken before the call —
    which [pre(e)]/[e@pre] subexpressions are evaluated against. *)

type env

val env_of_bindings : (string * Cm_json.Json.t) list -> env
(** Environment with no pre-state: [pre(e)] evaluates to [Undef]. *)

val with_pre : pre:env -> env -> env
(** Attach a pre-state environment. *)

val bind_value : string -> Value.t -> env -> env
(** Like {!bind} but can bind [Undef] — used by the snapshot runtime to
    carry over values that were already undefined before the call. *)

val bindings : env -> (string * Cm_json.Json.t) list

val lookup : string -> env -> Value.t

val eval : env -> Ast.expr -> Value.t
(** Total: never raises; failures yield [Value.Undef]. *)

val check : env -> Ast.expr -> Value.tribool
(** [truth (eval env e)]. *)

type verdict =
  | Holds
  | Violated
  | Undefined_verdict of string
      (** the expression did not evaluate to a boolean; the payload is a
          human-readable hint (pretty-printed subexpression) *)

val verdict : env -> Ast.expr -> verdict
val pp_verdict : Format.formatter -> verdict -> unit
val verdict_equal : verdict -> verdict -> bool
