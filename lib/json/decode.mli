(** Decoder combinators: typed extraction from JSON with error context.

    Turns a JSON document into a typed value, or into an error message
    that says where in the document decoding failed and why. *)

type 'a t
(** A decoder producing ['a] or an error message with a path context. *)

val run : 'a t -> Json.t -> ('a, string) result
val run_exn : 'a t -> Json.t -> 'a

(** {1 Primitives} *)

val json : Json.t t
val null : unit t
val bool : bool t
val int : int t
val float : float t
val string : string t

(** {1 Structures} *)

val list : 'a t -> 'a list t
val field : string -> 'a t -> 'a t
(** Decode a required object member. *)

val field_opt : string -> 'a t -> 'a option t
(** [None] when the member is absent (but an error when present and
    malformed). *)

val at : string list -> 'a t -> 'a t
(** Descend through nested required members. *)

val keys : string list t
(** The member names of an object. *)

(** {1 Combinators} *)

val map : ('a -> 'b) -> 'a t -> 'b t
val bind : ('a -> 'b t) -> 'a t -> 'b t
val both : 'a t -> 'b t -> ('a * 'b) t
val succeed : 'a -> 'a t
val fail : string -> 'a t
val one_of : 'a t list -> 'a t
(** First decoder that succeeds; error lists all attempts otherwise. *)

val default : 'a -> 'a t -> 'a t
(** Fall back to a value when the decoder fails. *)
