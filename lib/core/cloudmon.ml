module Json = Cm_json.Json
module Json_parser = Cm_json.Parser
module Json_printer = Cm_json.Printer
module Xml = Cm_xml.Xml
module Http = Cm_http
module Ocl = Cm_ocl
module Uml = Cm_uml
module Rbac = Cm_rbac
module Contracts = Cm_contracts
module Clock = Cm_core.Clock
module Transport = Cm_core.Transport
module Cloudsim = Cm_cloudsim.Cloud
module Identity = Cm_cloudsim.Identity
module Store = Cm_cloudsim.Store
module Faults = Cm_cloudsim.Faults
module Chaos = Cm_cloudsim.Chaos
module Monitor = Cm_monitor.Monitor
module Resilience = Cm_monitor.Resilience
module Outcome = Cm_monitor.Outcome
module Report = Cm_monitor.Report
module Codegen = Cm_codegen
module Mutation = Cm_mutation
module Workload = Cm_workload.Workload
module Workload_exec = Cm_workload.Exec
module Testgen = Cm_testgen
module Lint = Cm_lint.Lint
module Analysis = Cm_analysis
module Serve_bench = Serve_bench

let cinder_security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.cinder;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let glance_security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.glance;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let snapshot_security =
  { Cm_contracts.Generate.table = Cm_uml.Snapshot_model.security_table;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let cross_security =
  { Cm_contracts.Generate.table = Cm_rbac.Security_table.cross;
    assignment = Cm_rbac.Security_table.cinder_assignment
  }

let monitor_of_models ?mode ~service_token ?security resources behavior
    backend =
  let config =
    Monitor.default_config ?mode ~service_token ?security resources behavior
  in
  Monitor.create config backend

let monitor_of_xmi ?mode ~service_token ?security xmi_text backend =
  match Cm_uml.Xmi.read xmi_text with
  | Error msg -> Error [ msg ]
  | Ok doc ->
    (match doc.Cm_uml.Xmi.behavior_models with
     | [] -> Error [ "XMI document contains no state machine" ]
     | behavior :: _ ->
       monitor_of_models ?mode ~service_token ?security
         doc.Cm_uml.Xmi.resource_model behavior backend)

let django_of_xmi ~project_name ?cloud_base ?security xmi_text =
  match Cm_uml.Xmi.read xmi_text with
  | Error msg -> Error msg
  | Ok doc ->
    (match doc.Cm_uml.Xmi.behavior_models with
     | [] -> Error "XMI document contains no state machine"
     | behavior :: _ ->
       Cm_codegen.Django_project.generate ~project_name ?cloud_base ?security
         doc.Cm_uml.Xmi.resource_model behavior)

let validate_cloud ?(mutants = Cm_mutation.Mutant.paper_mutants) () =
  Cm_mutation.Campaign.run mutants

let version = "1.0.0"
