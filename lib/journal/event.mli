(** Journal events and their (JSON) payload serialization.

    One monitored exchange produces up to three events, all carrying
    the same sequence number:

    - [Request] — the incoming request, verbatim, tagged with its
      idempotency key ([X-Request-Id]); appended {e and synced} before
      anything is forwarded.
    - [Pre] — the pre-phase conclusion ({!Cm_monitor.Monitor.pre_image})
      of a contracted request; synced before the forward, so recovery
      never has to re-observe a pre-state the effect may already have
      destroyed.
    - [Verdict] — the exchange's conformance verdict and response;
      group-committed (rides unsynced until the next barrier or batch
      flush).

    [Mark] records out-of-band actions (relogins, tenant churn) so a
    replay can re-perform them in sequence; it carries no verdict.

    Serialization is line-oriented JSON — human-greppable, and decode
    failures are soft ([None]) because a journal tail can be torn.

    A [Pre] record's ["snap"] field is the snapshot wrapped in a
    one-element list.  A [Pre] record with ["snap":null] — which only
    the since-deleted whole-environment snapshot strategy could write —
    is malformed and fails to decode. *)

type verdict_record = {
  v_seq : int;
  v_rid : string;  (** the request's idempotency key *)
  v_meth : string;
  v_path : string;
  v_status : int;  (** status the monitor returned upstream *)
  v_conformance : string;  (** [Outcome.conformance_to_string] *)
  v_detail : string;
  v_covered : string list;
  v_body : Cm_json.Json.t option;
      (** response body — replays resolve created ids from it *)
}

type t =
  | Request of { seq : int; rid : string; req : Cm_http.Request.t }
  | Pre of { seq : int; image : Cm_monitor.Monitor.pre_image }
  | Verdict of verdict_record
  | Mark of { seq : int; note : string }

val seq : t -> int
val encode : t -> string
val decode : string -> t option
(** [None] on any malformed payload — never raises. *)

val verdict_line : verdict_record -> string
(** Canonical one-line rendering of a verdict, used wherever two
    verdict streams are compared for bit-identity (live vs. replayed,
    pre- vs. post-crash).  Includes the response body in canonical
    (key-sorted) form. *)
