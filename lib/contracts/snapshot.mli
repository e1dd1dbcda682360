(** Pre-state snapshots.

    "Since an execution of a method might change the state of a
    resource, to evaluate the [post-]condition we need to store the
    resource state before the method execution … we do not need to save
    the copy of the whole resource(s) but only the values that
    constitute the guards and invariants" (§V).

    Two strategies are implemented; the bench [snapshot-ablation]
    compares them and validates the paper's few-bits claim:

    - {b Lean} (the paper's): the postcondition is compiled so that
      every [pre(e)] subterm becomes a fresh variable; before the call
      only those subterms are evaluated and their (scalar) values
      stored.
    - {b Full}: the entire pre-state environment (deep JSON copies of
      every bound resource) is retained and the postcondition evaluated
      with it attached. *)

type compiled = {
  rewritten_post : Cm_ocl.Ast.expr;  (** [pre(e_k)] replaced by [Var v_k] *)
  slots : (string * Cm_ocl.Ast.expr) list;  (** v_k -> e_k *)
}

val compile : Cm_ocl.Ast.expr -> compiled
(** Slot variables are named [__pre0], [__pre1], … in first-occurrence
    order; identical subterms share a slot. *)

type taken = (string * Cm_ocl.Value.t) list
(** Captured slot values. *)

val take : compiled -> Cm_ocl.Eval.env -> taken
(** Evaluate every slot in the pre-state environment. *)

val post_env : taken -> Cm_ocl.Eval.env -> Cm_ocl.Eval.env
(** Bind captured values into the post-state environment. *)

val check_post_lean :
  compiled -> taken -> Cm_ocl.Eval.env -> Cm_ocl.Value.tribool
(** Evaluate the rewritten postcondition with the captured slots. *)

val check_post_full :
  Cm_ocl.Ast.expr ->
  pre:Cm_ocl.Eval.env ->
  Cm_ocl.Eval.env ->
  Cm_ocl.Value.tribool
(** Evaluate the original postcondition with the full pre-environment
    attached. *)

val post_verdict : Cm_ocl.Value.tribool -> Cm_ocl.Eval.verdict
(** A postcondition check's verdict: [Unknown] is
    [Undefined_verdict "postcondition undefined"]. *)

val size_bytes : taken -> int
(** Serialized size of the captured values — the ablation's metric. *)

val full_size_bytes : Cm_ocl.Eval.env -> int
(** Serialized size of a full environment copy, for comparison. *)
