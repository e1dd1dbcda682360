(** Cloudmon: generating cloud monitors from models.

    The umbrella API of the reproduction of {e Generating Cloud Monitors
    from Models to Secure Clouds} (Rauf & Troubitsyna, DSN 2018).  The
    subsystem libraries are re-exported under stable names, and the
    common end-to-end flows are packaged as single calls:

    - {!monitor_of_models}: models + security table -> running monitor
      over a backend;
    - {!monitor_of_xmi}: the paper's file-driven pipeline (Fig. 4);
    - {!django_of_xmi}: the [uml2django] generation step;
    - {!validate_cloud}: the §VI-D experiment — run the standard
      workload against a (possibly mutated) simulated cloud and report.

    Quickstart:
    {[
      let cloud = Cloudmon.Cloudsim.create () in
      Cloudmon.Cloudsim.seed cloud Cloudmon.Cloudsim.my_project;
      (* ... obtain a service token ... *)
      let monitor =
        Cloudmon.monitor_of_models ~service_token
          ~security:Cloudmon.cinder_security
          Cloudmon.Uml.Cinder_model.resources
          Cloudmon.Uml.Cinder_model.behavior
          (Cloudmon.Cloudsim.handle cloud)
        |> Result.get_ok
      in
      let outcome = Cloudmon.Monitor.handle monitor request in
      ...
    ]} *)

(** {1 Subsystems} *)

module Json = Cm_json.Json
module Json_parser = Cm_json.Parser
module Json_printer = Cm_json.Printer
module Xml = Cm_xml.Xml
module Http = Cm_http
module Ocl = Cm_ocl
module Uml = Cm_uml
module Rbac = Cm_rbac
module Contracts = Cm_contracts
module Cloudsim = Cm_cloudsim.Cloud
module Identity = Cm_cloudsim.Identity
module Store = Cm_cloudsim.Store
module Faults = Cm_cloudsim.Faults
module Monitor = Cm_monitor.Monitor
module Outcome = Cm_monitor.Outcome
module Report = Cm_monitor.Report
module Codegen = Cm_codegen
module Mutation = Cm_mutation
module Testgen = Cm_testgen

module Workload = Cm_workload.Workload
(** The seeded traffic-mix DSL: named mixes compiling deterministically
    to symbolic request traces. *)

module Workload_exec = Cm_workload.Exec
(** Trace execution: dynamic (through a monitor, resolving created
    ids) and static (batch request compilation for the benches). *)

module Lint = Cm_lint.Lint
(** The unified finding/rule/waiver vocabulary shared by validation and
    design-time analysis. *)

module Analysis = Cm_analysis
(** Design-time contract verification: the satisfiability solver, the
    AN001..AN015 rule registry (vacuity/RBAC/footprint plus the
    monitorability and interference passes), the seeded defect corpus
    and the dynamic cross-checks (the [analyze] subcommand). *)

module Serve_bench = Serve_bench
(** Sharded-serving throughput harness (the [serve-bench]
    subcommand). *)

(** {1 End-to-end flows} *)

val cinder_security : Cm_contracts.Generate.security
(** Table I with its usergroup/role assignment. *)

val glance_security : Cm_contracts.Generate.security
(** The image-service table (2.x requirements) with the same
    assignment. *)

val snapshot_security : Cm_contracts.Generate.security
(** The snapshot table (3.x requirements) with the same assignment. *)

val cross_security : Cm_contracts.Generate.security
(** The cross-service table (cinder + glance + compute attach rows)
    with the same assignment — pairs with
    {!Cm_uml.Cross_model}. *)

val monitor_of_models :
  ?mode:Cm_monitor.Monitor.mode ->
  service_token:string ->
  ?security:Cm_contracts.Generate.security ->
  Cm_uml.Resource_model.t ->
  Cm_uml.Behavior_model.t ->
  (Cm_http.Request.t -> Cm_http.Response.t) ->
  (Cm_monitor.Monitor.t, string list) result

val monitor_of_xmi :
  ?mode:Cm_monitor.Monitor.mode ->
  service_token:string ->
  ?security:Cm_contracts.Generate.security ->
  string ->
  (Cm_http.Request.t -> Cm_http.Response.t) ->
  (Cm_monitor.Monitor.t, string list) result
(** Parse XMI text (one resource model, at least one state machine) and
    build the monitor from the first state machine. *)

val django_of_xmi :
  project_name:string ->
  ?cloud_base:string ->
  ?security:Cm_contracts.Generate.security ->
  string ->
  (Cm_codegen.Django_project.file list, string) result
(** The [uml2django ProjectName DiagramsFileinXML] flow. *)

val validate_cloud :
  ?mutants:Cm_mutation.Mutant.t list ->
  unit ->
  (Cm_mutation.Campaign.result list, string list) result
(** The paper's validation: baseline plus each mutant (default: the
    three paper mutants) under the standard workload. *)

val version : string
