module Compile = Cm_ocl.Compile
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value

(* Everything staged once per contract at [stage] time: one slot plan
   shared by all of the contract's expressions, and one tracked closure
   (closure + dependency summary) per expression the monitor evaluates
   on the request path. *)
type staged = {
  plan : Compile.plan;
  pre_t : Compile.tracked;
  functional_pre_t : Compile.tracked;
  functional_disjuncts_t : Compile.tracked list;
      (* the functional precondition's top-level disjuncts — under
         memoization these share memo nodes with the branch guards
         staged inside [pre_t], so a functional check can be replayed
         from their cached verdicts even though its own root (a
         different or-chain) was never evaluated *)
  auth_guard_t : Compile.tracked option;
  branches_t : (Compile.tracked * string list) list;
  post_t : Compile.tracked;  (* rewritten post: pre(e_k) -> slot vars *)
  slots_t : (string * int * Compile.tracked) list;
      (* snapshot slot: name, its slot index in the plan, compiled e_k *)
  branches_mask : int;  (* union of branch dependency masks *)
  branches_impure : bool;
  slots_mask : int;  (* union of snapshot-expression masks *)
  slots_impure : bool;  (* any slot expression reads pre() *)
}

(* Top-level check counters: [evals] are real expression evaluations,
   [replays] memoized verdict replays.  Single-threaded per instance
   (each monitor owns its instances). *)
type counters = { mutable evals : int; mutable replays : int }

(* An observed state: the interpreter environment as delivered by the
   observer, plus its projection onto the contract's frame.  One record
   per contract, refreshed in place. *)
type observed = {
  mutable env : Eval.env;
  frame : Compile.frame;
}

(* The values of the postcondition's [pre(...)] subterms, by slot. *)
type snapshot = Snapshot.taken

(* Persistent incremental-evaluation state of one prepared contract. *)
type inc = {
  memo : Compile.memo;
  obs : observed;
  mutable covered_stamp : int;  (* epoch of the cached covered list; -1 = none *)
  mutable covered_cache : string list;
  mutable snap_stamp : int;  (* epoch of the cached lean snapshot; -1 = none *)
  mutable snap_cache : snapshot;
  mutable refreshes : int;
  mutable slots_changed : int;
}

(* What a contract determines, staged once and shared by every instance:
   its closures over one slot plan, and its read-set.  Nothing writes it
   after [stage], so instances on other domains read it without a
   lock. *)
type plan = {
  p_contract : Contract.t;
  p_staged : staged;
  p_footprint : Cm_ocl.Footprint.t;
}

(* One instance: the memo frame and counters it owns, beside the plan's
   parts (copied, so the request path reads them at one remove, as
   before the split). *)
type prepared = {
  contract : Contract.t;
  staged : staged;
  footprint : Cm_ocl.Footprint.t;
  counters : counters;
  inc : inc;
}

(* The read-set is computed over the contract's original expressions,
   not the slot-rewritten post: slot variables are synthetic and the
   slot expressions themselves are sub-expressions of the post. *)
let contract_footprint (contract : Contract.t) =
  Cm_ocl.Footprint.of_exprs
    ([ contract.Contract.pre;
       contract.Contract.functional_pre;
       contract.Contract.post
     ]
    @ Option.to_list contract.Contract.auth_guard
    @ List.concat_map
        (fun (b : Contract.branch) ->
          [ b.Contract.branch_pre; b.Contract.branch_post ])
        contract.Contract.branches)

let tracked_mask (t : Compile.tracked) = t.Compile.mask
let tracked_impure (t : Compile.tracked) = t.Compile.impure

let stage_contract (contract : Contract.t) (compiled : Snapshot.compiled) =
  let plan = Compile.plan () in
  (* Stage the narrower expressions first: compile_tracked publishes each
     wrapped root into the plan's CSE table, and the precondition contains
     all of them as subtrees (pre = disj over branches of
     [functional_pre and auth]), so staging it last makes one pre
     evaluation stamp every guard's memo node for intra-request replay.
     Snapshot slot expressions come before everything else: an atom like
     [coll(project.volumes)] is only memoizable through its own wrapped
     root, and the comparisons that contain it capture whatever staging
     the CSE table holds at the time. *)
  let slots_t =
    List.map
      (fun (name, expr) ->
        (name, Compile.var_slot plan name, Compile.compile_tracked plan expr))
      compiled.Snapshot.slots
  in
  let functional_pre_t =
    Compile.compile_tracked plan contract.Contract.functional_pre
  in
  let auth_guard_t =
    Option.map (Compile.compile_tracked plan) contract.Contract.auth_guard
  in
  let branches_t =
    List.map
      (fun (b : Contract.branch) ->
        ( Compile.compile_tracked plan b.Contract.branch_pre,
          b.Contract.branch_requirements ))
      contract.Contract.branches
  in
  let functional_disjuncts_t =
    List.map (Compile.compile_tracked plan)
      (Cm_ocl.Simplify.disjuncts
         (Cm_ocl.Simplify.simplify contract.Contract.functional_pre))
  in
  (* Strict disjunction over the branch guards: short-circuiting [or]
     would leave every guard right of the deciding branch unevaluated, so
     the covered-requirements and functional checks of the same
     observation could not replay.  [tri_or] is total and True-absorbing,
     so the verdict is bit-identical. *)
  let pre_t =
    Compile.strict_disjunction plan
      (List.map (Compile.compile_tracked plan)
         (Cm_ocl.Simplify.disjuncts
            (Cm_ocl.Simplify.simplify contract.Contract.pre)))
  in
  let post_t = Compile.compile_tracked plan compiled.Snapshot.rewritten_post in
  { plan;
    pre_t;
    functional_pre_t;
    functional_disjuncts_t;
    auth_guard_t;
    branches_t;
    post_t;
    slots_t;
    branches_mask =
      List.fold_left (fun acc (t, _) -> acc lor tracked_mask t) 0 branches_t;
    branches_impure = List.exists (fun (t, _) -> tracked_impure t) branches_t;
    slots_mask =
      List.fold_left (fun acc (_, _, t) -> acc lor tracked_mask t) 0 slots_t;
    slots_impure = List.exists (fun (_, _, t) -> tracked_impure t) slots_t
  }

let stage contract =
  { p_contract = contract;
    p_staged =
      stage_contract contract (Snapshot.compile contract.Contract.post);
    p_footprint = contract_footprint contract
  }

let instance plan =
  let staged = plan.p_staged in
  let memo = Compile.make_memo staged.plan in
  let inc =
    { memo;
      obs =
        { env = Eval.env_of_bindings [];
          frame = Compile.memo_frame staged.plan memo
        };
      covered_stamp = -1;
      covered_cache = [];
      snap_stamp = -1;
      snap_cache = [];
      refreshes = 0;
      slots_changed = 0
    }
  in
  { contract = plan.p_contract;
    staged;
    footprint = plan.p_footprint;
    counters = { evals = 0; replays = 0 };
    inc
  }

let prepare contract = instance (stage contract)
let contract p = p.contract
let footprint p = p.footprint

(* Snapshot slots ([__pre0], [__pre1], …) are written by the snapshot
   machinery, never synced from the observer's environment — a refresh
   that overwrote them with Undef would wrongly invalidate every
   post-condition memo. *)
let is_snap_name name =
  String.length name >= 5
  && String.unsafe_get name 0 = '_'
  && String.unsafe_get name 1 = '_'
  && String.unsafe_get name 2 = 'p'
  && String.unsafe_get name 3 = 'r'
  && String.unsafe_get name 4 = 'e'

let not_snap_name name = not (is_snap_name name)

let observe p env =
  let inc = p.inc in
  inc.refreshes <- inc.refreshes + 1;
  let n =
    Compile.refresh p.staged.plan inc.memo inc.obs.frame env
      ~sync:not_snap_name
  in
  inc.slots_changed <- inc.slots_changed + n;
  inc.obs.env <- env;
  inc.obs

let observed_env obs = obs.env

(* Memoized truth of a tracked expression against an observed state:
   replay the cached verdict when the dependency slots are clean,
   evaluate (and let the node caches restamp themselves) otherwise. *)
let tracked_truth p (t : Compile.tracked) (obs : observed) =
  if Compile.cached p.inc.memo t then begin
    p.counters.replays <- p.counters.replays + 1;
    Value.truth (Compile.cached_value p.inc.memo t)
  end
  else begin
    p.counters.evals <- p.counters.evals + 1;
    Value.truth (Compile.eval t.Compile.run obs.frame)
  end

let check_pre_observed p obs =
  match tracked_truth p p.staged.pre_t obs with
  | Value.True -> Eval.Holds
  | Value.False -> Eval.Violated
  | Value.Unknown ->
    (* Rare path: re-run the interpreter for its fault-localization
       hint (verdict is necessarily Undefined_verdict — the two
       evaluators agree on tribools). *)
    Eval.verdict obs.env p.contract.Contract.pre

let check_pre p env = check_pre_observed p (observe p env)

let covered_requirements_observed p obs =
  let inc = p.inc in
  if
    (not p.staged.branches_impure)
    && inc.covered_stamp >= 0
    && Compile.deps_clean inc.memo ~mask:p.staged.branches_mask
         ~stamp:inc.covered_stamp
  then begin
    p.counters.replays <- p.counters.replays + 1;
    inc.covered_cache
  end
  else if
    (not p.staged.branches_impure)
    && List.for_all
         (fun ((t : Compile.tracked), _) -> Compile.cached inc.memo t)
         p.staged.branches_t
  then begin
    (* The branch guards were already evaluated this epoch — typically
       as subtrees of the precondition, whose staging shares their memo
       nodes — so the covered set can be rebuilt from the node caches
       without re-running any guard. *)
    p.counters.replays <- p.counters.replays + 1;
    let covered =
      List.concat_map
        (fun ((t : Compile.tracked), requirements) ->
          if Value.truth (Compile.cached_value inc.memo t) = Value.True then
            requirements
          else [])
        p.staged.branches_t
      |> List.sort_uniq String.compare
    in
    inc.covered_stamp <- Compile.epoch inc.memo;
    inc.covered_cache <- covered;
    covered
  end
  else begin
    p.counters.evals <- p.counters.evals + 1;
    let covered =
      List.concat_map
        (fun ((branch_t : Compile.tracked), requirements) ->
          if Value.truth (Compile.eval branch_t.Compile.run obs.frame) = Value.True then
            requirements
          else [])
        p.staged.branches_t
      |> List.sort_uniq String.compare
    in
    if not p.staged.branches_impure then begin
      inc.covered_stamp <- Compile.epoch inc.memo;
      inc.covered_cache <- covered
    end;
    covered
  end

let covered_requirements p env =
  covered_requirements_observed p (observe p env)

(* Preallocated option results: the guard replays must not allocate. *)
let some_true = Some Value.True
let some_false = Some Value.False
let some_unknown = Some Value.Unknown

let some_tri = function
  | Value.True -> some_true
  | Value.False -> some_false
  | Value.Unknown -> some_unknown

let auth_guard_tri p obs =
  match p.staged.auth_guard_t with
  | None -> None
  | Some guard_t -> some_tri (tracked_truth p guard_t obs)

(* Kleene-or replay over per-disjunct caches: a cached True disjunct
   decides the whole disjunction even when other disjuncts are stale
   (True absorbs under [tri_or]); short of that, every disjunct must be
   clean and the fold mirrors the staged or-chain exactly. *)
let rec disjuncts_any_cached_true memo = function
  | [] -> false
  | (t : Compile.tracked) :: rest ->
    (Compile.cached memo t
     && Value.truth (Compile.cached_value memo t) = Value.True)
    || disjuncts_any_cached_true memo rest

let rec disjuncts_fold_cached memo acc = function
  | [] -> Some acc
  | (t : Compile.tracked) :: rest ->
    if Compile.cached memo t then
      disjuncts_fold_cached memo
        (Value.tri_or acc (Value.truth (Compile.cached_value memo t)))
        rest
    else None

let functional_pre_tri p obs =
  let memo = p.inc.memo in
  if Compile.cached memo p.staged.functional_pre_t then
    tracked_truth p p.staged.functional_pre_t obs
  else begin
    (* The root or-chain was not itself evaluated this epoch, but a pre
       evaluation stamps the shared branch-guard nodes — its disjuncts —
       so the verdict usually replays from those. *)
    let ds = p.staged.functional_disjuncts_t in
    if disjuncts_any_cached_true memo ds then begin
      p.counters.replays <- p.counters.replays + 1;
      Value.True
    end
    else
      match disjuncts_fold_cached memo Value.False ds with
      | Some tri ->
        p.counters.replays <- p.counters.replays + 1;
        tri
      | None -> tracked_truth p p.staged.functional_pre_t obs
  end

let take_snapshot_observed p obs =
  let inc = p.inc in
  if
    (not p.staged.slots_impure)
    && inc.snap_stamp >= 0
    && Compile.deps_clean inc.memo ~mask:p.staged.slots_mask
         ~stamp:inc.snap_stamp
  then begin
    p.counters.replays <- p.counters.replays + 1;
    inc.snap_cache
  end
  else if
    (not p.staged.slots_impure)
    && List.for_all
         (fun (_, _, (t : Compile.tracked)) -> Compile.cached inc.memo t)
         p.staged.slots_t
  then begin
    (* Every slot expression was already evaluated this epoch — the
       branch guards and quota atoms it snapshots are subtrees of the
       precondition, whose staging shares their memo nodes — so the
       snapshot values can be read back from the node caches. *)
    p.counters.replays <- p.counters.replays + 1;
    let snap =
      List.map
        (fun (name, _slot, (t : Compile.tracked)) ->
          (name, Compile.cached_value inc.memo t))
        p.staged.slots_t
    in
    inc.snap_stamp <- Compile.epoch inc.memo;
    inc.snap_cache <- snap;
    snap
  end
  else begin
    p.counters.evals <- p.counters.evals + 1;
    (* Slot expressions may themselves contain pre() (idempotent), so
       when they do, evaluate them against a frame marked as the
       pre-state — each slot exactly once. *)
    let marked =
      if p.staged.slots_impure then Compile.with_pre ~pre:obs.frame obs.frame
      else obs.frame
    in
    let snap =
      List.map
        (fun (name, _slot, (slot_t : Compile.tracked)) ->
          (name, Compile.eval slot_t.Compile.run marked))
        p.staged.slots_t
    in
    if not p.staged.slots_impure then begin
      inc.snap_stamp <- Compile.epoch inc.memo;
      inc.snap_cache <- snap
    end;
    snap
  end

let take_snapshot p env = take_snapshot_observed p (observe p env)
let snapshot_bytes = Snapshot.size_bytes

(* Allocation-free lookup of a captured slot value (assoc lists here
   are one or two entries long). *)
let rec snap_value name = function
  | [] -> Value.Undef
  | (n, v) :: rest -> if String.equal n name then v else snap_value name rest

let rec write_snap_slots frame taken = function
  | [] -> ()
  | (name, slot, _) :: rest ->
    Compile.write_slot_versioned frame slot (snap_value name taken);
    write_snap_slots frame taken rest

let check_post_observed p snapshot obs =
  write_snap_slots obs.frame snapshot p.staged.slots_t;
  Snapshot.post_verdict (tracked_truth p p.staged.post_t obs)

let check_post p snapshot env =
  check_post_observed p snapshot (observe p env)

(* ------------------------------------------------------------------ *)
(* Incremental-evaluation statistics                                   *)

type eval_stats = {
  evals : int;  (* top-level expression evaluations *)
  replays : int;  (* top-level memoized verdict replays *)
  node_hits : int;  (* inner connective cache hits *)
  node_evals : int;  (* inner connective evaluations *)
  refreshes : int;  (* frame refreshes (observations) *)
  slots_changed : int;  (* slot values that actually changed *)
}

let eval_stats p =
  { evals = p.counters.evals;
    replays = p.counters.replays;
    node_hits = Compile.memo_hits p.inc.memo;
    node_evals = Compile.memo_evals p.inc.memo;
    refreshes = p.inc.refreshes;
    slots_changed = p.inc.slots_changed
  }
