(** OCL runtime values.

    Values are JSON data (the observable representation of cloud
    resources) plus [Undef], OCL's {e undefined}: the result of navigating
    a property that does not exist, of arithmetic errors, and of [pre()]
    when no snapshot was taken.  Undefinedness must propagate rather than
    crash — the monitor evaluates contracts over whatever the cloud
    actually returned. *)

type t =
  | Undef
  | Json of Cm_json.Json.t

(** Three-valued truth (Kleene logic).  A contract evaluating to
    [Unknown] is reported as a distinct verdict, never silently treated
    as success. *)
type tribool =
  | True
  | False
  | Unknown

val of_json : Cm_json.Json.t -> t
val of_bool : bool -> t
val of_int : int -> t
val of_string : string -> t

val truth : t -> tribool
(** [Json (Bool b)] is [b]; everything else is [Unknown]. *)

val as_collection : t -> t list
(** OCL collection coercion: a JSON list yields its elements; [Undef]
    yields the empty collection (an absent resource has no elements —
    this is what makes [project.volumes->size() = 0] express "GET on
    Volumes did not return 200"); any other value is a singleton. *)

val equal_value : t -> t -> tribool
(** Structural equality; [Unknown] when either side is [Undef]. *)

val same : t -> t -> bool
(** Change detection for the incremental engine: [true] iff the two
    values are observably identical ([Undef] = [Undef], deep JSON
    equality otherwise).  Unlike {!equal_value} this is two-valued —
    [Undef] is treated as a concrete state, not an unknown. *)

val compare_order : t -> t -> int option
(** Ordering for [<] etc.: defined for two numbers or two strings
    ([None] otherwise, which evaluates to [Unknown]). *)

val pp : Format.formatter -> t -> unit
val pp_tribool : Format.formatter -> tribool -> unit

(** Kleene connectives. *)

val tri_not : tribool -> tribool
val tri_and : tribool -> tribool -> tribool
val tri_or : tribool -> tribool -> tribool
val tri_implies : tribool -> tribool -> tribool
val tri_xor : tribool -> tribool -> tribool
