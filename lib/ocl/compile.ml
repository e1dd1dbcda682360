module Json = Cm_json.Json

(* A frame is the compiled counterpart of {!Eval.env}: a pre-sized value
   array indexed by compile-time slot numbers, replacing the
   interpreter's assoc-list lookups.  Iterator binders get scratch slots
   in the same array, written in place during iteration — evaluating a
   compiled contract allocates nothing beyond what the OCL collection
   operations themselves build.

   For the incremental engine a frame may additionally carry a [memo]:
   per-slot change epochs plus per-node verdict caches for the
   and/or/implies skeleton.  A staged node whose dependency slots are
   all unchanged since its last evaluation replays its cached value
   without recomputing — and without allocating. *)

type memo = {
  mutable epoch : int;  (* bumped on every slot change *)
  slot_epoch : int array;  (* epoch at which each slot last changed *)
  node_stamp : int array;  (* epoch at last evaluation; -1 = never *)
  node_value : Value.t array;
  mutable node_hits : int;
  mutable node_evals : int;
}

type frame = {
  slots : Value.t array;
  pre : frame option;
  is_pre : bool;
  memo : memo option;
}

type t = frame -> Value.t

(* Staging: subtrees whose value cannot depend on the frame are folded
   to constants at compile time; every OCL operation is total and pure,
   so folding (and the short-circuits below) cannot change verdicts. *)
type staged = Const of Value.t | Dyn of t

(* Compile-time dependency summary of a staged subtree. [mask] has one
   bit per slot the subtree reads; [impure] marks subtrees whose value
   is not a function of the maskable slots alone (pre-state access, or
   slots beyond the bitmask width). [node] is the memo node id when the
   subtree was wrapped in a cache. *)
type info = { mask : int; impure : bool; node : int }

type plan = {
  free_tbl : (string, int) Hashtbl.t;
  mutable frees : (string * int) list;  (* reversed insertion order *)
  mutable size : int;  (* free slots + iterator scratch slots *)
  mutable scratch_mask : int;  (* bits of iterator scratch slots *)
  mutable nodes : int;  (* memo node ids handed out so far *)
  cse : (Ast.expr * (string * int) list, staged * info) Hashtbl.t;
      (* structural common-subexpression table: the same subtree
         under the same binder scope stages to the same closure and the
         same memo node, so the generated pre, functional pre, auth
         guard and branch preconditions — which are all built from
         shared model pieces — share verdict caches across the
         contract's expressions *)
}

let plan () =
  { free_tbl = Hashtbl.create 16;
    frees = [];
    size = 0;
    scratch_mask = 0;
    nodes = 0;
    cse = Hashtbl.create 64
  }

(* Slots beyond this index don't fit the dependency bitmask; expressions
   touching them are treated as unconditionally dirty. *)
let max_masked_slot = Sys.int_size - 2

let var_slot plan name =
  match Hashtbl.find_opt plan.free_tbl name with
  | Some i -> i
  | None ->
    let i = plan.size in
    plan.size <- plan.size + 1;
    Hashtbl.add plan.free_tbl name i;
    plan.frees <- (name, i) :: plan.frees;
    i

let scratch_slot plan =
  let i = plan.size in
  plan.size <- plan.size + 1;
  if i <= max_masked_slot then plan.scratch_mask <- plan.scratch_mask lor (1 lsl i);
  i

let frame_of_env plan env =
  let slots = Array.make (max 1 plan.size) Value.Undef in
  List.iter
    (fun (name, i) -> slots.(i) <- Eval.lookup name env)
    plan.frees;
  { slots; pre = None; is_pre = false; memo = None }

(* The pre-marked copy drops the memo: node caches are keyed by the
   post-state frame, and replaying them while evaluating in pre context
   would confuse the two. *)
let with_pre ~pre frame =
  { frame with pre = Some { pre with is_pre = true; memo = None } }

let no_node = -1
let pure_info = { mask = 0; impure = false; node = no_node }
let impure_info = { mask = 0; impure = true; node = no_node }

let slot_info i =
  if i <= max_masked_slot then { mask = 1 lsl i; impure = false; node = no_node }
  else impure_info

let join a b = { mask = a.mask lor b.mask; impure = a.impure || b.impure; node = no_node }

(* Info for a closure {e derived from} a staged subtree (navigation,
   negation, constant-folded connective…): same dependencies, but the
   subtree's cache — if any — holds the subtree's value, not the
   derived one, so the node must not be claimed. *)
let derived info =
  if info.node = no_node then info else { info with node = no_node }

let run = function Const v -> fun _ -> v | Dyn f -> f

let of_tri = Prim.value_of_tribool

(* True when every dependency slot in [mask] is unchanged since epoch
   [stamp].  Allocation-free: walks the mask bit by bit, as a toplevel
   recursive function (an inner [let rec] capturing [memo] would
   allocate a closure on every probe — the hot replay path). *)
let rec deps_clean_from memo ~stamp mask i =
  mask = 0
  || ((mask land 1 = 0 || memo.slot_epoch.(i) <= stamp)
      && deps_clean_from memo ~stamp (mask lsr 1) (i + 1))

let deps_clean memo ~mask ~stamp = deps_clean_from memo ~stamp mask 0

(* Wrap a staged connective in an epoch-stamped cache.  Only pure
   subtrees whose dependencies avoid iterator scratch slots are
   memoizable — scratch writes during iteration don't bump slot
   epochs, and pre-state reads escape the mask entirely. *)
let memo_wrap plan st info =
  match st with
  | Const _ -> (st, info)
  | Dyn f ->
    if info.impure || info.node >= 0 || info.mask land plan.scratch_mask <> 0
    then (st, info)
    else begin
      let id = plan.nodes in
      plan.nodes <- plan.nodes + 1;
      let mask = info.mask in
      let g fr =
        match fr.memo with
        | None -> f fr
        | Some m ->
          let stamp = m.node_stamp.(id) in
          if stamp >= 0 && deps_clean m ~mask ~stamp then begin
            m.node_hits <- m.node_hits + 1;
            m.node_value.(id)
          end
          else begin
            let v = f fr in
            m.node_evals <- m.node_evals + 1;
            m.node_stamp.(id) <- m.epoch;
            m.node_value.(id) <- v;
            v
          end
      in
      (Dyn g, { info with node = id })
    end

(* [truth_like f] — the connectives only look at the truth of their
   operands, so compile them down to tribool producers.

   Staging goes through the structural CSE table: the same subtree
   under the same binder scope returns the identical staged closure
   (and memo node), however many expressions of the plan it occurs
   in. *)
let rec stage plan scope expr : staged * info =
  let key = (expr, scope) in
  match Hashtbl.find_opt plan.cse key with
  | Some r -> r
  | None ->
    let r = stage_fresh plan scope expr in
    Hashtbl.add plan.cse key r;
    r

and stage_fresh plan scope expr : staged * info =
  match expr with
  | Ast.Bool_lit b -> (Const (Prim.value_of_bool b), pure_info)
  | Ast.Int_lit n -> (Const (Value.of_int n), pure_info)
  | Ast.String_lit s -> (Const (Value.of_string s), pure_info)
  | Ast.Null_lit -> (Const (Value.Json Json.Null), pure_info)
  | Ast.Var name ->
    let i =
      match List.assoc_opt name scope with
      | Some i -> i  (* innermost iterator binder shadows context vars *)
      | None -> var_slot plan name
    in
    (Dyn (fun fr -> fr.slots.(i)), slot_info i)
  | Ast.Nav (e, prop) ->
    (match stage plan scope e with
     | Const v, _ -> (Const (Prim.navigate v prop), pure_info)
     | Dyn f, i -> (Dyn (fun fr -> Prim.navigate (f fr) prop), derived i))
  | Ast.At_pre e ->
    (* Never constant: the result depends on whether a pre-state is
       attached to the frame. *)
    let st, _ = stage plan scope e in
    let f = run st in
    ( Dyn
        (fun fr ->
          match fr.pre with
          | Some pre_frame -> f pre_frame
          | None -> if fr.is_pre then f fr else Value.Undef),
      impure_info )
  | Ast.Coll (e, op) ->
    (match stage plan scope e with
     | Const v, _ -> (Const (Prim.coll op v), pure_info)
     | Dyn f, i -> (Dyn (fun fr -> Prim.coll op (f fr)), derived i))
  | Ast.Member (e, includes, arg) ->
    (match stage plan scope e, stage plan scope arg with
     | (Const v, _), (Const x, _) -> (Const (Prim.member ~includes v x), pure_info)
     | (ce, ie), (cx, ix) ->
       let fe = run ce and fx = run cx in
       (Dyn (fun fr -> Prim.member ~includes (fe fr) (fx fr)), join ie ix))
  | Ast.Count (e, arg) ->
    (match stage plan scope e, stage plan scope arg with
     | (Const v, _), (Const x, _) -> (Const (Prim.count v x), pure_info)
     | (ce, ie), (cx, ix) ->
       let fe = run ce and fx = run cx in
       (Dyn (fun fr -> Prim.count (fe fr) (fx fr)), join ie ix))
  | Ast.Iter (e, kind, var, body) ->
    let ce, ie = stage plan scope e in
    let slot = scratch_slot plan in
    let cbody, ib = stage plan ((var, slot) :: scope) body in
    (match ce, cbody with
     | Const cv, Const bv -> (Const (Prim.iter kind cv (fun _ -> bv)), pure_info)
     | _ ->
       let fe = run ce and fb = run cbody in
       (* The binder slot is written per item during iteration; the
          iteration result is fully determined by [e]'s value and the
          body's other dependencies, so drop the binder bit. *)
       let own = if slot <= max_masked_slot then 1 lsl slot else 0 in
       let info =
         { mask = ie.mask lor (ib.mask land lnot own);
           impure = ie.impure || ib.impure;
           node = no_node
         }
       in
       ( Dyn
           (fun fr ->
             Prim.iter kind (fe fr) (fun item ->
                 fr.slots.(slot) <- item;
                 fb fr)),
         info ))
  | Ast.Unop (Ast.Not, e) ->
    (match stage plan scope e with
     | Const v, _ -> (Const (of_tri (Value.tri_not (Value.truth v))), pure_info)
     | Dyn f, i ->
       (Dyn (fun fr -> of_tri (Value.tri_not (Value.truth (f fr)))), derived i))
  | Ast.Unop (Ast.Neg, e) ->
    (match stage plan scope e with
     | Const v, _ -> (Const (Prim.neg v), pure_info)
     | Dyn f, i -> (Dyn (fun fr -> Prim.neg (f fr)), derived i))
  | Ast.Binop (Ast.And, a, b) ->
    let st, info = stage_and plan scope a b in
    memo_wrap plan st info
  | Ast.Binop (Ast.Or, a, b) ->
    let st, info = stage_or plan scope a b in
    memo_wrap plan st info
  | Ast.Binop (Ast.Implies, a, b) ->
    let st, info = stage_implies plan scope a b in
    memo_wrap plan st info
  | Ast.Binop (Ast.Xor, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | (Const va, _), (Const vb, _) ->
       (Const (of_tri (Value.tri_xor (Value.truth va) (Value.truth vb))), pure_info)
     | (ca, ia), (cb, ib) ->
       let fa = run ca and fb = run cb in
       ( Dyn
           (fun fr ->
             of_tri (Value.tri_xor (Value.truth (fa fr)) (Value.truth (fb fr)))),
         join ia ib ))
  | Ast.Binop (Ast.Eq, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | (Const va, _), (Const vb, _) ->
       (Const (of_tri (Value.equal_value va vb)), pure_info)
     | (ca, ia), (cb, ib) ->
       let fa = run ca and fb = run cb in
       (Dyn (fun fr -> of_tri (Value.equal_value (fa fr) (fb fr))), join ia ib))
  | Ast.Binop (Ast.Neq, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | (Const va, _), (Const vb, _) ->
       (Const (of_tri (Value.tri_not (Value.equal_value va vb))), pure_info)
     | (ca, ia), (cb, ib) ->
       let fa = run ca and fb = run cb in
       ( Dyn
           (fun fr -> of_tri (Value.tri_not (Value.equal_value (fa fr) (fb fr)))),
         join ia ib ))
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | (Const va, _), (Const vb, _) -> (Const (Prim.compare op va vb), pure_info)
     | (ca, ia), (cb, ib) ->
       let fa = run ca and fb = run cb in
       (Dyn (fun fr -> Prim.compare op (fa fr) (fb fr)), join ia ib))
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op, a, b) ->
    (match stage plan scope a, stage plan scope b with
     | (Const va, _), (Const vb, _) -> (Const (Prim.arith op va vb), pure_info)
     | (ca, ia), (cb, ib) ->
       let fa = run ca and fb = run cb in
       (Dyn (fun fr -> Prim.arith op (fa fr) (fb fr)), join ia ib))

(* Kleene short-circuits: [False and _], [True or _] and [False implies _]
   decide without the second operand; all other combinations still
   evaluate it (Unknown must absorb a later False/True correctly). *)
and stage_and plan scope a b =
  match stage plan scope a, stage plan scope b with
  | (Const va, _), (cb, ib) -> (stage_and_const (Value.truth va) cb, derived ib)
  | (ca, ia), (Const vb, _) ->
    (* symmetric fold: tri_and is commutative and evaluation is pure *)
    (stage_and_const (Value.truth vb) ca, derived ia)
  | (Dyn fa, ia), (Dyn fb, ib) ->
    ( Dyn
        (fun fr ->
          match Value.truth (fa fr) with
          | Value.False -> Prim.v_false
          | ta -> of_tri (Value.tri_and ta (Value.truth (fb fr)))),
      join ia ib )

and stage_and_const ta cb =
  match ta with
  | Value.False -> Const Prim.v_false
  | Value.True ->
    (match cb with
     | Const vb -> Const (of_tri (Value.truth vb))
     | Dyn fb -> Dyn (fun fr -> of_tri (Value.truth (fb fr))))
  | Value.Unknown ->
    (match cb with
     | Const vb -> Const (of_tri (Value.tri_and Value.Unknown (Value.truth vb)))
     | Dyn fb ->
       Dyn
         (fun fr -> of_tri (Value.tri_and Value.Unknown (Value.truth (fb fr)))))

and stage_or plan scope a b =
  match stage plan scope a, stage plan scope b with
  | (Const va, _), (cb, ib) -> (stage_or_const (Value.truth va) cb, derived ib)
  | (ca, ia), (Const vb, _) -> (stage_or_const (Value.truth vb) ca, derived ia)
  | (Dyn fa, ia), (Dyn fb, ib) ->
    ( Dyn
        (fun fr ->
          match Value.truth (fa fr) with
          | Value.True -> Prim.v_true
          | ta -> of_tri (Value.tri_or ta (Value.truth (fb fr)))),
      join ia ib )

and stage_or_const ta cb =
  match ta with
  | Value.True -> Const Prim.v_true
  | Value.False ->
    (match cb with
     | Const vb -> Const (of_tri (Value.truth vb))
     | Dyn fb -> Dyn (fun fr -> of_tri (Value.truth (fb fr))))
  | Value.Unknown ->
    (match cb with
     | Const vb -> Const (of_tri (Value.tri_or Value.Unknown (Value.truth vb)))
     | Dyn fb ->
       Dyn
         (fun fr -> of_tri (Value.tri_or Value.Unknown (Value.truth (fb fr)))))

and stage_implies plan scope a b =
  match stage plan scope a, stage plan scope b with
  | (Const va, _), (cb, ib) ->
    (match Value.truth va with
     | Value.False -> (Const Prim.v_true, pure_info)
     | ta ->
       ( (match cb with
          | Const vb -> Const (of_tri (Value.tri_implies ta (Value.truth vb)))
          | Dyn fb ->
            Dyn (fun fr -> of_tri (Value.tri_implies ta (Value.truth (fb fr))))),
         derived ib ))
  | (ca, ia), (Const vb, _) ->
    (match Value.truth vb with
     | Value.True -> (Const Prim.v_true, pure_info)
     | tb ->
       let fa = run ca in
       ( Dyn (fun fr -> of_tri (Value.tri_implies (Value.truth (fa fr)) tb)),
         derived ia ))
  | (Dyn fa, ia), (Dyn fb, ib) ->
    ( Dyn
        (fun fr ->
          match Value.truth (fa fr) with
          | Value.False -> Prim.v_true
          | ta -> of_tri (Value.tri_implies ta (Value.truth (fb fr)))),
      join ia ib )

(* A compiled expression plus its dependency summary: enough to ask,
   before running it, whether a memoized verdict can be replayed. *)
type tracked = {
  run : t;
  const : bool;  (* staged to a constant — [run] ignores the frame *)
  node : int;  (* root memo node id, or [no_node] *)
  mask : int;
  impure : bool;
}

let compile_tracked plan expr =
  let expr = Simplify.simplify expr in
  let st, info = stage plan [] expr in
  let st, info = memo_wrap plan st info in
  (* Publish the wrapped root back into the CSE table: a later
     expression of the same plan containing this one as a subtree then
     shares its memo node instead of re-wrapping a fresh one. *)
  Hashtbl.replace plan.cse (expr, []) (st, info);
  match st with
  | Const v ->
    { run = (fun _ -> v); const = true; node = no_node; mask = 0; impure = false }
  | Dyn f ->
    { run = f; const = false; node = info.node; mask = info.mask;
      impure = info.impure }

(* Non-short-circuiting Kleene disjunction over already-compiled
   disjuncts.  [tri_or] is total and True-absorbing, so the strict fold
   is bit-identical to the staged short-circuiting [or] chain — but it
   evaluates {e every} disjunct, stamping each one's memo node.  A
   memoizing monitor compiles its precondition this way: one pre
   evaluation then leaves every branch guard's verdict cached, so the
   covered-requirements and functional checks of the same observation
   replay instead of re-evaluating. *)
let strict_disjunction plan (ts : tracked list) =
  match ts with
  | [] ->
    let v = of_tri Value.False in
    { run = (fun _ -> v); const = true; node = no_node; mask = 0;
      impure = false }
  | [ t ] -> t
  | _ ->
    let info =
      List.fold_left
        (fun (acc : info) (t : tracked) : info ->
          { mask = acc.mask lor t.mask;
            impure = acc.impure || t.impure;
            node = no_node
          })
        pure_info ts
    in
    let runs = Array.of_list (List.map (fun t -> t.run) ts) in
    let f fr =
      let acc = ref Value.False in
      for i = 0 to Array.length runs - 1 do
        acc := Value.tri_or !acc (Value.truth (runs.(i) fr))
      done;
      of_tri !acc
    in
    (match memo_wrap plan (Dyn f) info with
     | Dyn g, info ->
       { run = g; const = false; node = info.node; mask = info.mask;
         impure = info.impure }
     | Const v, _ ->
       { run = (fun _ -> v); const = true; node = no_node; mask = 0;
         impure = false })

let compile plan expr = (compile_tracked plan expr).run

let compile_raw plan expr =
  let st, info = stage plan [] expr in
  run (fst (memo_wrap plan st info))

(* ------------------------------------------------------------------ *)
(* Incremental-evaluation support                                      *)

(* Call after all expressions of a plan are compiled: node/slot counts
   are final from then on. *)
let make_memo plan =
  { epoch = 0;
    slot_epoch = Array.make (max 1 plan.size) 0;
    node_stamp = Array.make (max 1 plan.nodes) (-1);
    node_value = Array.make (max 1 plan.nodes) Value.Undef;
    node_hits = 0;
    node_evals = 0
  }

(* A persistent frame bound to a memo: refreshed in place between
   requests instead of being re-allocated per observation. *)
let memo_frame plan memo =
  { slots = Array.make (max 1 plan.size) Value.Undef;
    pre = None;
    is_pre = false;
    memo = Some memo
  }

let epoch memo = memo.epoch
let memo_hits memo = memo.node_hits
let memo_evals memo = memo.node_evals

(* Sync the frame's free slots from [env], diffing each value against
   what the frame already holds. Only actual changes bump the epoch and
   the slot's version — unchanged slots leave all node caches valid.
   [sync] filters which frees participate (snapshot slots are written
   separately). Returns the
   number of slots that changed. Allocation-free on the all-unchanged
   path. *)
let refresh plan memo frame env ~sync =
  let rec go frees changed =
    match frees with
    | [] -> changed
    | (name, i) :: rest ->
      let changed =
        if sync name then begin
          let v = Eval.lookup name env in
          if Value.same frame.slots.(i) v then changed
          else begin
            memo.epoch <- memo.epoch + 1;
            memo.slot_epoch.(i) <- memo.epoch;
            frame.slots.(i) <- v;
            changed + 1
          end
        end
        else changed
      in
      go rest changed
  in
  go plan.frees 0

(* Version-aware slot write for snapshot slots: bumps the epoch only
   when the stored value actually changes, so post-condition memos
   survive across requests whose snapshots are identical. *)
let write_slot_versioned frame i value =
  match frame.memo with
  | None -> frame.slots.(i) <- value
  | Some m ->
    if not (Value.same frame.slots.(i) value) then begin
      m.epoch <- m.epoch + 1;
      m.slot_epoch.(i) <- m.epoch;
      frame.slots.(i) <- value
    end

(* Root-level probe: can this tracked expression replay a cached value
   against [memo] without evaluating?  Two-step API ([cached] then
   [cached_value]) so the hit path allocates nothing. *)
let cached memo tracked =
  tracked.const
  || (tracked.node >= 0
      &&
      let stamp = memo.node_stamp.(tracked.node) in
      stamp >= 0 && deps_clean memo ~mask:tracked.mask ~stamp)

(* Constant tracked expressions ignore the frame entirely. *)
let dummy_frame =
  { slots = [| Value.Undef |]; pre = None; is_pre = false; memo = None }

let cached_value memo tracked =
  if tracked.const then tracked.run dummy_frame
  else memo.node_value.(tracked.node)

let eval c frame = c frame
let check c frame = Value.truth (c frame)

let verdict c frame =
  match Value.truth (c frame) with
  | Value.True -> Eval.Holds
  | Value.False -> Eval.Violated
  | Value.Unknown -> Eval.Undefined_verdict "undefined (compiled)"
