(** Summaries over monitoring logs: violation counts, requirement
    coverage, and a rendered validation report (the artifact a tester
    reads after a campaign). *)

type summary = {
  total : int;
  conform : int;
  denied : int;  (** conform-denied *)
  violations : int;
  undefined : int;
  not_monitored : int;
  by_conformance : (string * int) list;  (** verdict name -> count *)
}

val summarize : Outcome.t list -> summary

val violations : Outcome.t list -> Outcome.t list

val render : summary -> coverage:(string * int) list -> string
(** Human-readable report: verdict table plus SecReq coverage with
    uncovered requirements flagged. *)

val to_json : summary -> coverage:(string * int) list -> Cm_json.Json.t
(** Machine-readable form for CI gates:
    [{"total": …, "conform": …, "violations": …, "by_conformance": {…},
      "coverage": {…}, "uncovered_requirements": […]}]. *)

val pp_summary : Format.formatter -> summary -> unit
