(** The unified lint framework: findings, rule metadata, reporters.

    Both the syntactic well-formedness checks ({!Cm_uml.Validate}) and
    the satisfiability-based design-time analyses ({!Cm_analysis.Rules})
    report through this one finding type, so `cmonitor analyze` renders
    a single, uniformly coded list and CI can gate on severities without
    knowing which layer produced a finding. *)

type severity = Error | Warning | Info

val severity_label : severity -> string
val severity_rank : severity -> int
(** [Error] ranks lowest (most severe first when sorting). *)

type finding = {
  rule : string;  (** stable rule code, e.g. ["AN002"] or ["VAL005"] *)
  severity : severity;
  where : string;  (** the model element the finding is attached to *)
  message : string;
  witness : string option;
      (** for satisfiability findings: a concrete state exhibiting the
          problem (or [None] when the defect is purely structural) *)
}

val finding :
  ?witness:string -> rule:string -> severity:severity -> where:string ->
  string -> finding

val pp_finding : Format.formatter -> finding -> unit
(** ["error[AN002] <where>: <message>"], plus the witness on a
    continuation line when present. *)

(** {2 Rule metadata} *)

type rule = {
  code : string;
  title : string;
  default_severity : severity;
  explanation : string;
}

val rule :
  code:string -> title:string -> severity:severity -> string -> rule

val find_rule : rule list -> string -> rule option

(** {2 Aggregation and reporting} *)

val sort : finding list -> finding list
(** Stable order: severity, then rule code, then location — the
    human-facing presentation order ({!render}). *)

val canonical : finding list -> finding list
(** Machine-diffable order: exact duplicates dropped, then a total
    order over every field (rule, location, severity, message,
    witness) — independent of emission order, so dumps and golden
    files are byte-stable across runs.  {!to_json} uses it. *)

val errors : finding list -> finding list

val at_least : severity -> finding list -> finding list
(** The findings at or above a severity threshold ([at_least Warning]
    keeps errors and warnings) — what `--fail-on` gates on. *)

val count : severity -> finding list -> int

val summary : finding list -> string
(** ["2 errors, 1 warning, 0 info"]. *)

val render : ?catalogue:rule list -> finding list -> string
(** Text report: one line per finding (plus witness lines), a blank
    line, and the summary.  When a catalogue is supplied, rule titles
    are appended to the first occurrence of each code. *)

val to_json : finding list -> Cm_json.Json.t
(** [{"findings": [...], "errors": n, "warnings": n, "info": n}]. *)

(** {2 Waivers}

    A shipped model may carry a reviewed, documented exception: a waiver
    demotes matching findings to [Info] (annotated with the reason)
    instead of deleting them, so the report still shows what was
    accepted and why. *)

type waiver = {
  waive_rule : string;  (** rule code the waiver applies to *)
  where_fragment : string;  (** substring of the finding's [where] *)
  reason : string;
}

val waiver : rule:string -> where:string -> reason:string -> waiver
val apply_waivers : waiver list -> finding list -> finding list

val contains : string -> string -> bool
(** [contains haystack needle] — substring test used by waiver
    matching, exposed for callers building their own filters. *)
