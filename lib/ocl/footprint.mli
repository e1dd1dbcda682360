(** Static read-set ("footprint") analysis of OCL expressions.

    A contract only ever reads a small part of the observable cloud
    state: the root context variables it mentions and, for each, the
    first-level members it navigates into.  The observer uses this to
    fetch exactly the needed state instead of a full snapshot — the
    classic runtime-verification overhead reduction of monitoring only
    what the property can see.

    The analysis is an over-approximation and therefore safe to prune
    against: a root used whole (compared, iterated, passed to a
    collection operation directly) is recorded as {!All}; only
    first-level navigations on a {e free} root variable are refined to
    {!Fields}.  Iterator binders shadow roots inside their body, and
    [pre(...)] reads the same footprint in the pre-state, so no special
    casing is needed. *)

type fields =
  | All  (** the whole root value may be read *)
  | Fields of string list  (** only these first-level members (sorted) *)

type t = (string * fields) list
(** Root variable name -> what of it is read.  Sorted by root;
    normalized (no duplicate roots, sorted field lists). *)

val empty : t

val of_expr : Ast.expr -> t

val of_exprs : Ast.expr list -> t
(** Union of the individual footprints. *)

val union : t -> t -> t

val mentions : t -> string -> bool
(** Does the footprint read the root at all?  [false] means the
    observer may skip producing the binding entirely. *)

val needs_field : t -> root:string -> string -> bool
(** Does the footprint read [root.field]?  [true] whenever the root is
    recorded as {!All}; [false] when the root is absent. *)

val is_total : t -> string -> bool
(** [true] when the root is recorded as {!All}. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Cm_json.Json.t
