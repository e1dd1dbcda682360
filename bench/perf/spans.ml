(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the boundary: name, start and end on the monotonic clock, the span
   that was open on the same domain when it started (its parent), the
   request sequence number, and the minor-heap words the domain
   allocated while it was open.  Spans go into per-domain struct-of-
   arrays buffers, so recording one allocates nothing; the buffers are
   summarised (and optionally written as JSONL) after the run.

   Recording is off unless [enabled] is set; the untraced end-to-end
   runs never build the wrappers at all. *)

type layer =
  | Handle  (** one monitored request: Monitor/Jmonitor.handle *)
  | Batch  (** one Shard.handle_all call *)
  | Observe  (** a backend call the monitor made to observe state *)
  | Forward  (** the backend call that forwarded the client's request *)
  | Journal_pre  (** the write-ahead hook: Pre image append *)
  | Journal_barrier  (** the forward barrier hook: journal sync *)

let layers = [| Handle; Batch; Observe; Forward; Journal_pre; Journal_barrier |]

let index = function
  | Handle -> 0
  | Batch -> 1
  | Observe -> 2
  | Forward -> 3
  | Journal_pre -> 4
  | Journal_barrier -> 5

let name = function
  | Handle -> "monitor.handle"
  | Batch -> "shard.batch"
  | Observe -> "cloudsim.observe"
  | Forward -> "cloudsim.forward"
  | Journal_pre -> "journal.pre"
  | Journal_barrier -> "journal.barrier"

let now () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false

type buf = {
  slot : int;
  mutable len : int;
  mutable layer : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable seq : int array;
  mutable words : float array;
  mutable current : int;  (* id of the innermost open span, -1 for none *)
}

(* Span ids are unique across domains: buffer slot in the high bits. *)
let id_of slot i = (slot lsl 40) lor i

let buffers : buf list ref = ref []
let buffers_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect buffers_lock (fun () ->
          let cap = 1 lsl 16 in
          let b =
            { slot = List.length !buffers; len = 0;
              layer = Array.make cap 0; start = Array.make cap 0;
              stop = Array.make cap 0; parent = Array.make cap 0;
              seq = Array.make cap 0; words = Array.make cap 0.;
              current = -1 }
          in
          buffers := b :: !buffers;
          b))

let grow b =
  let cap = 2 * Array.length b.layer in
  let ext a z =
    let a' = Array.make cap z in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.layer <- ext b.layer 0;
  b.start <- ext b.start 0;
  b.stop <- ext b.stop 0;
  b.parent <- ext b.parent 0;
  b.seq <- ext b.seq 0;
  b.words <- ext b.words 0.

(* Fallback parent for spans a worker domain opens with nothing open on
   that domain: the batch span the dispatching domain holds. *)
let root_parent = ref (-1)

let finish b i prev =
  b.stop.(i) <- now ();
  b.words.(i) <- Gc.minor_words () -. b.words.(i);
  b.current <- prev

let record layer ~seq f x =
  let b = Domain.DLS.get key in
  if b.len = Array.length b.layer then grow b;
  let i = b.len in
  b.len <- i + 1;
  let prev = b.current in
  b.layer.(i) <- index layer;
  b.parent.(i) <- (if prev >= 0 then prev else !root_parent);
  b.seq.(i) <- seq;
  b.current <- id_of b.slot i;
  b.words.(i) <- Gc.minor_words ();
  b.start.(i) <- now ();
  match f x with
  | r ->
    finish b i prev;
    r
  | exception e ->
    finish b i prev;
    raise e

let span layer ~seq f x = if !enabled then record layer ~seq f x else f x

(* A Shard.handle_all call: worker domains parent their spans to it. *)
let batch f x =
  if not !enabled then f x
  else
    record Batch ~seq:(-1)
      (fun x ->
        root_parent := (Domain.DLS.get key).current;
        Fun.protect ~finally:(fun () -> root_parent := -1) (fun () -> f x))
      x

(* ---- backend classification ---------------------------------------- *)

(* The monitor forwards the client's request value itself, so a backend
   call is the forward exactly when its argument is physically the
   request being served.  Serial workloads set [current]; the parallel
   workload registers each traced batch in [in_batch]. *)
let dummy = Cm_http.Request.make Cm_http.Meth.GET "/"
let current = ref dummy
let current_seq = ref (-1)

module Phys = Hashtbl.Make (struct
  type t = Cm_http.Request.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let in_batch : int Phys.t = Phys.create 512

let backend inner req =
  if not !enabled then inner req
  else if req == !current then record Forward ~seq:!current_seq inner req
  else
    match Phys.find_opt in_batch req with
    | Some seq -> record Forward ~seq inner req
    | None -> record Observe ~seq:!current_seq inner req

let hook layer f = fun x -> span layer ~seq:!current_seq f x

(* ---- summaries ------------------------------------------------------- *)

type summary = {
  count : int array;  (* per layer index *)
  total_ns : float array;
  total_words : float array;
  self_ns : float array;  (* duration minus direct children *)
  self_words : float array;
}

let all_buffers () = Mutex.protect buffers_lock (fun () -> !buffers)

let summarise () =
  let n = Array.length layers in
  let s =
    { count = Array.make n 0; total_ns = Array.make n 0.;
      total_words = Array.make n 0.; self_ns = Array.make n 0.;
      self_words = Array.make n 0. }
  in
  let bufs = all_buffers () in
  let child_ns = Hashtbl.create 4096 and child_words = Hashtbl.create 4096 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let l = b.layer.(i) in
        let d = float_of_int (b.stop.(i) - b.start.(i)) in
        s.count.(l) <- s.count.(l) + 1;
        s.total_ns.(l) <- s.total_ns.(l) +. d;
        s.total_words.(l) <- s.total_words.(l) +. b.words.(i);
        if b.parent.(i) >= 0 then begin
          add child_ns b.parent.(i) d;
          add child_words b.parent.(i) b.words.(i)
        end
      done)
    bufs;
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let l = b.layer.(i) and id = id_of b.slot i in
        let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl id) in
        s.self_ns.(l) <-
          s.self_ns.(l) +. float_of_int (b.stop.(i) - b.start.(i)) -. get child_ns;
        s.self_words.(l) <- s.self_words.(l) +. b.words.(i) -. get child_words
      done)
    bufs;
  s

(* One JSON object per line, times relative to [t0]. *)
let write_jsonl ~t0 path =
  let oc = open_out path in
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"seq\":%d,\"alloc_words\":%.0f}\n"
          (id_of b.slot i) (name layers.(b.layer.(i)))
          (b.start.(i) - t0) (b.stop.(i) - t0) b.parent.(i) b.seq.(i)
          b.words.(i)
      done)
    (List.rev (all_buffers ()));
  close_out oc
