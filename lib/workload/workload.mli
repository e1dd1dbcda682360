(** A small DSL of named, seeded, composable traffic mixes.

    A {!trace} is pure data: a list of steps, each an actor (a role of
    the paper's three-user setup) plus an operation over the simulated
    cloud's volume, compute, image and identity surfaces.  Mixes
    {e compile} to traces deterministically — the same [(mix, seed)]
    pair always yields a bit-identical trace ({!render} equality, and
    {!fingerprint} as a short witness) — so every workload consumer
    (mutation campaigns, benches, property tests) replays exactly the
    same request stream.

    Resource references are symbolic: [Fresh k] names the volume made
    by the [k]-th {!Create_volume} of the same trace (resolved from the
    create response at execution time), [Stable]/[Victim] index
    pre-provisioned fixtures, [Absent]/[Ghost]/[No_such_image] name
    resources that deliberately do not exist.  Compile-time bookkeeping
    (victim stacks, image status tracking) guarantees a trace stays
    {e verdict-consistent} on a fault-free cloud: every step's expected
    outcome matches the generated contracts whether the operation is
    accepted or denied, so a baseline run is violation-free and any
    violation indicts the cloud, not the workload.

    Execution lives in {!Exec}; this module is purely symbolic. *)

type role = Admin | Member | User
(** The paper's alice (proj_administrator), bob (service_architect) and
    carol (business_analyst). *)

(** Volume references. *)
type vref =
  | Stable of int  (** pre-provisioned GET/PUT target, modulo fixture size *)
  | Fresh of int  (** the [k]-th volume created by this trace *)
  | Victim of int  (** pre-provisioned deletion target, used at most once *)
  | Absent of int  (** a volume id that never exists *)

(** Server references. *)
type sref =
  | Live of int  (** the [k]-th server created by this trace *)
  | Ghost of int  (** a server id that never exists *)

(** Image references. *)
type iref =
  | Img of int  (** the [k]-th image created by this trace *)
  | No_such_image of int  (** an image id that never exists *)

(** Backing source of a volume creation (req 3.3). *)
type source = No_image | From_image of iref

type op =
  | Create_volume of { idx : int; name : string; size : int; source : source }
      (** POST on the volumes collection; [idx] is the trace-wide
          creation index later [Fresh idx] references resolve to. *)
  | List_volumes
  | Show_volume of vref
  | Rename_volume of vref * string
  | Delete_volume of vref
  | Volume_action_attach of vref * string
      (** legacy [os-attach] volume action (unmodelled URI, forwarded) *)
  | Volume_action_detach of vref
  | Create_server of { idx : int; name : string }
  | List_servers
  | Show_server of sref
  | Delete_server of sref
  | Attach of sref * vref
      (** POST /v3/{p}/servers/{s}/attach {volume_id} — the monitored
          cross-service attachment (req 3.1) *)
  | Detach of sref * vref  (** its converse (req 3.2) *)
  | Create_image of { idx : int; name : string; size_mb : int }
  | List_images
  | Show_image of iref
  | Set_image_status of iref * string
  | Delete_image of iref
  | Revoke_token of role
      (** monitored DELETE on the introspection path with the target
          role's current token as X-Subject-Token *)
  | Relogin of role  (** out-of-band: issue the role a fresh token *)
  | Churn_project of int
      (** out-of-band tenant lifecycle churn in a throwaway project *)

type step = { actor : role; op : op }
type trace = step list

val render : trace -> string
(** Canonical textual form, one line per step.  Two traces are
    bit-identical iff their renderings are equal — this is the object
    of the determinism contract. *)

val fingerprint : trace -> string
(** MD5 hex of {!render} — a short witness for logs and CI output. *)

val to_line : trace -> string
(** The whole trace on one line: each step as {!render} prints it,
    without the step number, steps separated by ["; "].  This is the
    form fuzz counterexamples take in a corpus file. *)

val of_line : string -> (trace, string) result
(** The inverse of {!to_line}: [of_line (to_line t) = Ok t].  Text that
    is not a trace yields [Error]; it never raises. *)

val role_to_string : role -> string

(** {1 Traces} *)

val standard_trace : trace
(** The 16-step validation workload of §VI-D (seed-independent): volume
    lifecycle to quota, denied escalations, updates, legacy
    attach/detach actions, deletion — kills M1..M10. *)

val cross_trace : trace
(** {!standard_trace} followed by the cross-service scenarios: server
    lifecycle with monitored attach/detach (live-server + available
    volume integrity, busy/absent/ghost denials, server-delete
    release), image-backed volume creation and backing-image
    protection, and token revocation visibility.  Kills M1..M10 and
    X1..X8; violation-free on a correct cloud. *)

val read_heavy_trace : steps:int -> victims:int -> seed:int -> trace
(** The serve-bench mix: per step d10 — 0-2 list, 3-5 show stable,
    6-7 rename stable, 8 create, 9 delete the next unused victim (a
    listing once [victims] are exhausted).  Reads dominate; mutations
    keep cache invalidation honest. *)

val churn_heavy_trace : steps:int -> seed:int -> trace
(** Tenant-lifecycle churn: volume create/delete waves, server
    create/delete, image status cycling and deletion, project churn,
    and token revoke/relogin races.  Compile-time tracking only emits
    image status moves and deletes that are legal for the tracked
    state, so the baseline stays clean. *)

val adversarial_trace : steps:int -> seed:int -> trace
(** Predicted-denial traffic: unauthorized creates/deletes/renames,
    attaches to ghost servers, image-backed creates naming missing
    images, deletes of absent volumes — plus enough allowed traffic to
    exercise the quota boundary from both sides. *)

(** {1 Named mixes} *)

type mix = {
  mix_name : string;
  description : string;
  compile : seed:int -> trace;
}

val standard : mix
val read_heavy : mix
val churn_heavy : mix
val adversarial : mix
val cross : mix

val mixes : mix list
val find : string -> mix option
