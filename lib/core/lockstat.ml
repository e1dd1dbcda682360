(* Instrumented named mutexes: every lock the serving stack still owns
   is created here, so "the monitored read path acquires zero locks" is
   a measurable property, not a comment.  Each lock counts acquisitions,
   contended acquisitions (the fast [try_lock] failed and the caller had
   to block), and cumulative wait/hold nanoseconds; a global registry
   sums them so a bench can snapshot the totals around a serving phase
   and divide by requests.

   The counters are [Atomic] — deliberately: after the shard-local
   refactor no instrumented lock sits on the per-request read path, so
   the atomics only see setup-phase and mutation-path traffic, where a
   cache-line bounce per acquisition is irrelevant next to the lock
   itself. *)

type t = {
  name : string;
  mutex : Mutex.t;
  acquisitions : int Atomic.t;
  contended : int Atomic.t;
  wait_ns : int Atomic.t;
  hold_ns : int Atomic.t;
  mutable acquired_at : int;  (* write-protected by [mutex] itself *)
}

type stats = {
  st_name : string;
  st_acquisitions : int;
  st_contended : int;
  st_wait_ns : int;
  st_hold_ns : int;
}

(* The registry only grows (locks live as long as the structures that
   own them); registration is rare, so one plain mutex suffices. *)
let registry : t list ref = ref []
let registry_lock = Mutex.create ()

(* Process-wide acquisition total, bumped on every instrumented lock:
   benches snapshot it before and after a serving phase, so it must be
   an O(1) [Atomic.get], not a registry fold (the registry grows with
   every cloud a long campaign creates). *)
let global_acquisitions = Atomic.make 0

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let create name =
  let t =
    { name;
      mutex = Mutex.create ();
      acquisitions = Atomic.make 0;
      contended = Atomic.make 0;
      wait_ns = Atomic.make 0;
      hold_ns = Atomic.make 0;
      acquired_at = 0
    }
  in
  Mutex.protect registry_lock (fun () -> registry := t :: !registry);
  t

let lock t =
  (if Mutex.try_lock t.mutex then ()
   else begin
     (* Slow path: somebody else holds it.  Only this path pays for a
        timestamp pair, so uncontended setup locking stays cheap. *)
     Atomic.incr t.contended;
     let t0 = now_ns () in
     Mutex.lock t.mutex;
     ignore (Atomic.fetch_and_add t.wait_ns (now_ns () - t0))
   end);
  Atomic.incr t.acquisitions;
  Atomic.incr global_acquisitions;
  t.acquired_at <- now_ns ()

let unlock t =
  ignore (Atomic.fetch_and_add t.hold_ns (now_ns () - t.acquired_at));
  Mutex.unlock t.mutex

let protect t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f

let stats t =
  { st_name = t.name;
    st_acquisitions = Atomic.get t.acquisitions;
    st_contended = Atomic.get t.contended;
    st_wait_ns = Atomic.get t.wait_ns;
    st_hold_ns = Atomic.get t.hold_ns
  }

let all () =
  Mutex.protect registry_lock (fun () -> List.rev_map stats !registry)
  |> List.sort (fun a b -> String.compare a.st_name b.st_name)

(* Total acquisitions across every instrumented lock in the process —
   the number the contention gate differences around a serving phase.
   Monotone, never reset: concurrent phases must snapshot-and-subtract
   rather than fight over a reset. *)
let total_acquisitions () = Atomic.get global_acquisitions

(* Collapse per-lock stats by name (several clouds in one process create
   one lock instance each for the same role). *)
let by_name () =
  let table = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev =
        Option.value
          ~default:
            { st_name = s.st_name; st_acquisitions = 0; st_contended = 0;
              st_wait_ns = 0; st_hold_ns = 0
            }
          (Hashtbl.find_opt table s.st_name)
      in
      Hashtbl.replace table s.st_name
        { prev with
          st_acquisitions = prev.st_acquisitions + s.st_acquisitions;
          st_contended = prev.st_contended + s.st_contended;
          st_wait_ns = prev.st_wait_ns + s.st_wait_ns;
          st_hold_ns = prev.st_hold_ns + s.st_hold_ns
        })
    (all ());
  Hashtbl.fold (fun _ s acc -> s :: acc) table []
  |> List.sort (fun a b -> String.compare a.st_name b.st_name)
