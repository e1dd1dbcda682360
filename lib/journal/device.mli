(** A virtual durable byte device with an explicit sync barrier.

    The journal appends into a volatile buffer; {!sync} moves the
    durability watermark to the end of the buffer (modelling [fsync],
    charging its latency to the shared virtual clock).  {!crash} models
    a process/machine crash under the standard torn-write model: all
    synced bytes survive, and a {e seeded-random prefix} of the unsynced
    tail survives too — the tail may end mid-record, which is exactly
    the corruption the record framing's checksums must catch.

    Like every simulator in this repo the device is deterministic: the
    surviving-prefix length is drawn from a splitmix64 stream, so a
    crash campaign replays bit-identically from its seed. *)

type t

val create :
  ?contents:string ->
  clock:Cm_core.Clock.t ->
  seed:int ->
  unit ->
  t
(** A fresh device.  Every effective {!sync} charges 1 ms to
    [clock].  [contents] mounts an existing
    image (counted as durable) — the torn-tail tests use it to open
    the same recorded journal cut at every byte offset. *)

val append : t -> string -> unit
(** Append bytes to the volatile tail. *)

val sync : t -> unit
(** Durability barrier: everything appended so far survives any later
    {!crash}.  No-op (and free) when there is nothing unsynced. *)

val crash : t -> unit
(** Kill the device: the unsynced tail is truncated to a seeded-random
    surviving prefix (possibly empty, possibly all of it).  Synced
    bytes are never lost. *)

val truncate : t -> int -> unit
(** [truncate t n] discards bytes from offset [n] on — recovery uses
    this to drop a torn tail it has scanned past. *)

val contents : t -> string
(** Every byte currently on the device (synced or not). *)

val size : t -> int
val durable_size : t -> int

val syncs : t -> int
(** Effective sync count (no-op syncs are not counted) — the
    group-commit benchmark's denominator. *)

val crashes : t -> int
