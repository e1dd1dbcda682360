(** Monitoring verdicts.

    A {!conformance} classifies one monitored exchange by comparing what
    the specification demanded (contract pre/post over observed state)
    with what the cloud did (its response).  [Security_*] verdicts are
    the data-breach / privilege-escalation detections the paper targets;
    [Functional_*] are behavioural bugs; [Undefined] means the
    observation was insufficient to decide (never silently treated as
    success). *)

type conformance =
  | Conform  (** permitted request, succeeded, postcondition holds *)
  | Conform_denied
      (** request the specification forbids, and the cloud denied it *)
  | Security_unauthorized_allowed
      (** the cloud {e performed} a request the security policy forbids —
          privilege escalation *)
  | Security_authorized_denied
      (** the cloud rejected (401/403) a request the policy allows *)
  | Functional_wrongly_rejected
      (** behaviourally valid request rejected for a non-security reason *)
  | Functional_wrongly_accepted
      (** request that should be impossible (quota full, volume in use)
          but the cloud performed it *)
  | Functional_bad_status
      (** success, but with an unexpected success status code *)
  | Post_violated  (** success, but the postcondition does not hold *)
  | Undefined of string  (** contracts could not be evaluated *)
  | Degraded of string
      (** monitoring was degraded by transport trouble: the request was
          blocked (fail-closed) or forwarded unmonitored (fail-open) —
          never a definite claim about the cloud's conformance *)
  | Monitor_error of string
      (** the monitor {e itself} failed on this exchange (an internal
          exception was contained) — never reported as a cloud
          violation *)
  | Not_monitored  (** no model covers this request; forwarded verbatim *)

val is_violation : conformance -> bool
(** [true] exactly for the [Security_*], [Functional_*] and
    [Post_violated] verdicts — what "kills a mutant". *)

val is_definite : conformance -> bool
(** A definite claim about the exchange ([false] for [Undefined],
    [Degraded] and [Monitor_error]).  Verdict integrity under transport
    faults means: a definite verdict never {e flips} to a different
    definite verdict — it may only degrade to a non-definite one. *)

val conformance_to_string : conformance -> string

val conformance_of_string : string -> conformance option
(** Inverse of {!conformance_to_string} (used by trace replay). *)

val pp_conformance : Format.formatter -> conformance -> unit

type t = {
  request : Cm_http.Request.t;
  response : Cm_http.Response.t;  (** what the monitor returned upstream *)
  cloud_response : Cm_http.Response.t option;
      (** the backend's answer; [None] when the call was blocked *)
  conformance : conformance;
  pre_verdict : Cm_ocl.Eval.verdict option;
  post_verdict : Cm_ocl.Eval.verdict option;
  covered_requirements : string list;
      (** SecReq ids of the branches active in the pre-state (coverage
          in the §IV-C sense) *)
  contract_requirements : string list;
      (** all SecReq ids of the matched contract — what a violation
          implicates, even when no branch was active (e.g. an
          authorization failure) *)
  snapshot_bytes : int;
  detail : string;
}

val pp : Format.formatter -> t -> unit
