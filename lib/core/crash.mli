(** Deterministic crash-point injection.

    A {!t} is a set of named {e sites} threaded through the monitor and
    the journal ("the process could die here").  Each call to {!at}
    counts one occurrence of its site; when the instance is {e armed}
    at [(site, nth)] the nth occurrence raises {!Crashed} — modelling
    the process being killed at exactly that point — and disarms the
    instance, so the recovery path that follows cannot crash again at
    the same arming.  Everything is a pure function of the call
    sequence: campaigns replay bit-identically.

    The injected exception deliberately escapes the monitor's
    per-request exception containment (which re-raises it, like
    resource exhaustion): a kill must kill. *)

exception Crashed of string
(** Carries the site name.  Raised by {!at}, never caught internally. *)

type t

val create : unit -> t
(** A disarmed instance: {!at} only counts. *)

val arm : t -> site:string -> nth:int -> unit
(** Crash at the [nth] occurrence (1-based) of [site].  Re-arming
    replaces the previous arming and clears {!fired}. *)

val at : t option -> string -> unit
(** [at (Some t) site] counts an occurrence and raises {!Crashed} if it
    is the armed one.  [at None _] is free — production configurations
    pass no instance. *)

val fired : t -> string option
(** The site that crashed, once it has. *)

val hits : t -> (string * int) list
(** Occurrence counts per site seen so far, sorted by site name. *)
