(** JSON values.

    This module defines the JSON value type used throughout the cloud
    monitor: request and response bodies, [policy.json]-style RBAC policy
    files and configuration all use {!t}.  The representation keeps object
    members in insertion order so that generated artifacts are
    deterministic. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Constructors} *)

val null : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val string : string -> t
val list : t list -> t
val obj : (string * t) list -> t

(** {1 Accessors}

    Accessors return [None] rather than raising when the shape does not
    match; the monitor must never crash on a malformed cloud response. *)

val member : string -> t -> t option
(** [member key json] is the value bound to [key] if [json] is an object
    containing [key]. *)

val member_exn : string -> t -> t
(** Like {!member} but raises [Invalid_argument] when absent. *)

val index : int -> t -> t option
(** [index i json] is the [i]-th element if [json] is a list. *)

val to_bool : t -> bool option
val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts both [Float] and [Int] values. *)

val to_string : t -> string option
val to_list : t -> t list option

val keys : t -> string list
(** Keys of an object, in order; [[]] for non-objects. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality.  Object member {e order is ignored}; duplicate
    keys compare by first occurrence.  [Int n] and [Float f] are equal when
    [float_of_int n = f]. *)

val compare : t -> t -> int
(** A total order compatible with {!equal} on order-normalised values. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print for debugging (compact, single-line). *)

val sort_keys : t -> t
(** Recursively sort object members by key — canonical form.  Of a
    duplicate key's bindings only the first is kept, the one {!member}
    reads. *)

val merge_patch : t -> patch:t -> t
(** RFC 7386 JSON merge patch: [patch] members overwrite the target's,
    [Null] members delete, nested objects merge recursively; a non-object
    patch replaces the target entirely.  A patched key loses every
    binding it had in the target, duplicates included.  This is the
    semantics partial PUT bodies carry in the simulated services. *)
