(** Value-level OCL operations, shared verbatim by the tree-walking
    interpreter ({!Eval}) and the staged compiler ({!Compile}).

    Keeping the two evaluators on one set of primitives is what makes
    their verdict-equivalence (asserted by [test/test_compile.ml]) a
    structural property rather than a maintenance promise: the only code
    that differs between them is variable lookup and control flow. *)

val v_true : Value.t
val v_false : Value.t
(** Preallocated boolean results — the hot path must not allocate a
    fresh [Json (Bool _)] per connective. *)

val value_of_bool : bool -> Value.t
val value_of_tribool : Value.tribool -> Value.t
(** Like {!Value.of_bool}, and its three-valued counterpart, but
    returning the shared values above. *)

val navigate : Value.t -> string -> Value.t
(** Property navigation [e.prop], including the collect shorthand over
    lists. *)

val arith : Ast.binop -> Value.t -> Value.t -> Value.t
(** [Add]/[Sub]/[Mul]/[Div]; anything non-numeric (or division by zero)
    is [Undef]. *)

val neg : Value.t -> Value.t

val coll : Ast.coll_op -> Value.t -> Value.t
(** The argument-less arrow operations ([size], [isEmpty], …) applied to
    a value coerced by {!Value.as_collection}. *)

val member : includes:bool -> Value.t -> Value.t -> Value.t
(** [includes]/[excludes]; an undefined needle is [Undef]. *)

val count : Value.t -> Value.t -> Value.t

val iter : Ast.iter_kind -> Value.t -> (Value.t -> Value.t) -> Value.t
(** [iter kind coll body] runs an iterator; [body] evaluates the
    iterator's body with the element bound. *)

val compare : Ast.binop -> Value.t -> Value.t -> Value.t
(** [Lt]/[Le]/[Gt]/[Ge] via {!Value.compare_order}. *)
