(** The mutant catalog.

    A mutant is a named, deliberately-injected implementation error —
    "mutants (errors) systematically introduced in the cloud
    implementation to detect wrong authorization on resources" (§VI-D).
    The paper injects three authorization mutants; the extended catalog
    adds behavioural mutants (quota, lifecycle, status codes) that
    exercise the functional half of the contracts. *)

type t = {
  name : string;
  description : string;
  faults : Cm_cloudsim.Faults.set;
  from_paper : bool;
}

val paper_mutants : t list
(** The three authorization mutants of §VI-D:
    - M1: DELETE on volume opened up to the member role (privilege
      escalation);
    - M2: the authorization check on PUT is missing entirely;
    - M3: authorized users are denied GET on volume. *)

val extended_mutants : t list
(** Behavioural mutants beyond the paper's three. *)

val cross_mutants : t list
(** Mutants X1..X8 targeting the cross-service invariants: attachment
    integrity (missing/busy volume, ghost server, no-op detach),
    image-backed volume creation and backing-image protection, token
    revocation visibility, and server-delete attachment release.  Run
    through the cross campaign ({!Campaign.run_cross}); the standard
    workload never reaches the faulty surfaces. *)

val all : t list
(** [paper_mutants @ extended_mutants] — the single-service catalog the
    standard campaign runs. *)

val all_extended : t list
(** [all @ cross_mutants] — the full catalog for the cross campaign. *)

(** Looks up across {!all_extended}. *)
val find : string -> t option
