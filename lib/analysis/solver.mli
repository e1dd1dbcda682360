(** A small decision procedure for the quantifier-free fragment of our
    OCL: boolean structure over integer difference constraints,
    string/enum equalities and collection membership of string
    constants.

    The solver is {e three-valued sound}:

    - {!Unsat} is only reported when {e no} environment can make the
      expression evaluate to [True] under {!Cm_ocl.Eval} — every branch
      of the search closed either propositionally or by a theory
      conflict whose reasoning is valid for all total models;
    - [Sat env] is only reported after the candidate witness [env] has
      been {e replayed through the evaluator} and the original
      expression checked to yield [Value.True] — the theory's model
      construction never has the last word;
    - everything else — opaque atoms (iterators, arbitrary navigations
      used as booleans), exceeded budgets, witnesses the evaluator
      rejects — degrades to {!Unknown}, never to a wrong verdict.

    Incompleteness is by design: the analysis rules treat [Unknown] as
    "cannot tell", so a conservative solver produces fewer findings,
    never wrong ones. *)

type outcome =
  | Unsat
  | Sat of Cm_ocl.Eval.env  (** a verified witness *)
  | Unknown

val satisfiable : Cm_ocl.Ast.expr -> outcome
(** Can the expression evaluate to [True] in some environment? *)

val never_false : Cm_ocl.Ast.expr -> outcome
(** Dually: [never_false e] is [satisfiable (not e)] — {!Unsat} means
    the expression can never evaluate to [False] (it is a tautology up
    to undefinedness, i.e. monitoring it can never report a violation).
    [Sat env] carries an environment falsifying [e]. *)

val witness_summary : Cm_ocl.Eval.env -> string
(** Compact one-line rendering of a witness environment for reports. *)

(** {2 Introspection — exposed for tests} *)

val atom_budget : int
(** Maximum number of distinct atoms before the solver gives up with
    {!Unknown}. *)
