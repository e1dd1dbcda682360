module Ast = Cm_ocl.Ast
module Simplify = Cm_ocl.Simplify
module Eval = Cm_ocl.Eval
module Value = Cm_ocl.Value
module J = Cm_json.Json

type outcome =
  | Unsat
  | Sat of Eval.env
  | Unknown

let atom_budget = 24
let node_budget = 20000
let neq_budget = 6

(* ------------------------------------------------------------------ *)
(* Normalization: distribute [At_pre] down to variable leaves.  All
   operators of the fragment are pure, so [pre(f(x, y)) = f(pre(x),
   pre(y))]; after the pass, pre-state reads are ordinary variables
   with a reserved prefix and the formula is [At_pre]-free.  Iterator
   binders are local to the body and must not be renamed. *)

let pre_prefix = "pre$"

let push_pre expr =
  let rec go inpre bound e =
    match e with
    | Ast.Var v ->
      if inpre && not (List.mem v bound) then Ast.Var (pre_prefix ^ v) else e
    | Ast.Bool_lit _ | Ast.Int_lit _ | Ast.String_lit _ | Ast.Null_lit -> e
    | Ast.At_pre inner -> go true bound inner
    | Ast.Nav (inner, p) -> Ast.Nav (go inpre bound inner, p)
    | Ast.Coll (inner, op) -> Ast.Coll (go inpre bound inner, op)
    | Ast.Member (a, incl, b) ->
      Ast.Member (go inpre bound a, incl, go inpre bound b)
    | Ast.Count (a, b) -> Ast.Count (go inpre bound a, go inpre bound b)
    | Ast.Iter (src, kind, v, body) ->
      Ast.Iter (go inpre bound src, kind, v, go inpre (v :: bound) body)
    | Ast.Unop (op, inner) -> Ast.Unop (op, go inpre bound inner)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, go inpre bound a, go inpre bound b)
  in
  go false [] expr

(* ------------------------------------------------------------------ *)
(* Atoms.  Integer comparisons are canonicalized to difference
   constraints [a - b <= k] / [a - b = k] over term nodes ([Zero] is
   the constant origin); string/enum equalities and collection
   membership of string constants get their own theories; everything
   else is an opaque boolean atom the search may assign freely but the
   realizer cannot construct values for. *)

type node_t = Zero | T of Ast.expr

type cmp = CLe | CEq

type eqrhs = R_str of string | R_null | R_term of Ast.expr

type atom =
  | A_cmp of node_t * node_t * cmp * int  (* a - b op k *)
  | A_eq of Ast.expr * eqrhs
  | A_mem of Ast.expr * string  (* coll->includes('s') *)
  | A_truth of Ast.expr

type skel =
  | S_true
  | S_false
  | S_lit of bool * int
  | S_and of skel * skel
  | S_or of skel * skel

(* Linearize one comparison side into (term, constant, definitely-int).
   Only the single-term-plus-constant shape is supported; anything else
   stays opaque. *)
let rec lin e =
  match e with
  | Ast.Int_lit n -> Some (None, n, true)
  | Ast.Unop (Ast.Neg, inner) ->
    (match lin inner with
     | Some (None, n, _) -> Some (None, -n, true)
     | _ -> None)
  | Ast.Binop (Ast.Add, a, b) ->
    (match (lin a, lin b) with
     | Some (t, c1, i1), Some (None, c2, i2)
     | Some (None, c1, i1), Some (t, c2, i2) -> Some (t, c1 + c2, i1 || i2)
     | _ -> None)
  | Ast.Binop (Ast.Sub, a, b) ->
    (match (lin a, lin b) with
     | Some (t, c1, i1), Some (None, c2, i2) -> Some (t, c1 - c2, i1 || i2)
     | _ -> None)
  | Ast.Coll (_, (Ast.Size | Ast.Sum)) | Ast.Count _ -> Some (Some e, 0, true)
  | Ast.Var _ | Ast.Nav _ | Ast.Coll (_, (Ast.First | Ast.Last)) ->
    Some (Some e, 0, false)
  | _ -> None

let node_of = function None -> Zero | Some t -> T t
let node_eq a b = a = b

(* ------------------------------------------------------------------ *)
(* Skeleton construction with a deduplicating atom table. *)

type builder = { mutable atoms : atom list; mutable count : int }

let intern b atom =
  let rec find i = function
    | [] -> None
    | a :: _ when a = atom -> Some (b.count - 1 - i)
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 b.atoms with
  | Some idx -> idx
  | None ->
    b.atoms <- atom :: b.atoms;
    b.count <- b.count + 1;
    b.count - 1

let lit b polarity atom = S_lit (polarity, intern b atom)

(* [a - b op k] with constant folding and canonical orientation. *)
let cmp_atom b polarity na nb op k =
  if node_eq na nb then
    let holds = match op with CLe -> 0 <= k | CEq -> 0 = k in
    if holds = polarity then S_true else S_false
  else
    match op with
    | CLe -> lit b polarity (A_cmp (na, nb, CLe, k))
    | CEq ->
      if compare na nb <= 0 then lit b polarity (A_cmp (na, nb, CEq, k))
      else lit b polarity (A_cmp (nb, na, CEq, -k))

let int_cmp b polarity op (ta, ca, _) (tb, cb, _) =
  let a = node_of ta and bb = node_of tb in
  let k = cb - ca in
  match op with
  | Ast.Le -> cmp_atom b polarity a bb CLe k
  | Ast.Lt -> cmp_atom b polarity a bb CLe (k - 1)
  | Ast.Ge -> cmp_atom b polarity bb a CLe (-k)
  | Ast.Gt -> cmp_atom b polarity bb a CLe (-k - 1)
  | Ast.Eq -> cmp_atom b polarity a bb CEq k
  | Ast.Neq -> cmp_atom b (not polarity) a bb CEq k
  | _ -> assert false

let size_of e = Ast.Coll (e, Ast.Size)

(* Classify one boolean leaf (possibly negated) into a literal. *)
let rec classify b polarity e =
  match e with
  | Ast.Bool_lit bl -> if bl = polarity then S_true else S_false
  | Ast.Unop (Ast.Not, inner) -> classify b (not polarity) inner
  | Ast.Coll (c, Ast.Is_empty) ->
    cmp_atom b polarity (T (size_of c)) Zero CEq 0
  | Ast.Coll (c, Ast.Not_empty) ->
    cmp_atom b (not polarity) (T (size_of c)) Zero CEq 0
  | Ast.Member (coll, incl, Ast.String_lit s) ->
    lit b (if incl then polarity else not polarity) (A_mem (coll, s))
  | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), x, y) ->
    (match (lin x, lin y) with
     | Some la, Some lb -> int_cmp b polarity op la lb
     | _ -> lit b polarity (A_truth e))
  | Ast.Binop (((Ast.Eq | Ast.Neq) as op), x, y) ->
    let polarity = if op = Ast.Neq then not polarity else polarity in
    classify_eq b polarity e x y
  | _ -> lit b polarity (A_truth e)

and classify_eq b polarity whole x y =
  match (x, y) with
  | Ast.Bool_lit bl, other | other, Ast.Bool_lit bl ->
    classify b (if bl then polarity else not polarity) other
  | Ast.String_lit s1, Ast.String_lit s2 ->
    if String.equal s1 s2 = polarity then S_true else S_false
  | Ast.String_lit s, t | t, Ast.String_lit s ->
    (match lin t with
     | Some (Some term, 0, false) -> lit b polarity (A_eq (term, R_str s))
     | _ -> lit b polarity (A_truth whole))
  | Ast.Null_lit, Ast.Null_lit -> if polarity then S_true else S_false
  | Ast.Null_lit, t | t, Ast.Null_lit ->
    (match lin t with
     | Some (Some term, 0, false) -> lit b polarity (A_eq (term, R_null))
     | _ -> lit b polarity (A_truth whole))
  | _ ->
    (match (lin x, lin y) with
     | Some ((_, _, ia) as la), Some ((_, _, ib) as lb) when ia || ib ->
       int_cmp b polarity Ast.Eq la lb
     | Some (Some ta, 0, false), Some (Some tb, 0, false) ->
       if Ast.equal ta tb then if polarity then S_true else S_false
       else if compare ta tb <= 0 then lit b polarity (A_eq (ta, R_term tb))
       else lit b polarity (A_eq (tb, R_term ta))
     | Some la, Some lb -> int_cmp b polarity Ast.Eq la lb
     | _ -> lit b polarity (A_truth whole))

let rec build b e =
  match e with
  | Ast.Binop (Ast.And, x, y) -> S_and (build b x, build b y)
  | Ast.Binop (Ast.Or, x, y) -> S_or (build b x, build b y)
  | _ -> classify b true e

(* ------------------------------------------------------------------ *)
(* Three-valued evaluation of the skeleton under a partial
   assignment. *)

let rec eval_skel assign = function
  | S_true -> Some true
  | S_false -> Some false
  | S_lit (pol, i) ->
    (match assign.(i) with Some v -> Some (v = pol) | None -> None)
  | S_and (a, b) ->
    (match (eval_skel assign a, eval_skel assign b) with
     | Some false, _ | _, Some false -> Some false
     | Some true, Some true -> Some true
     | _ -> None)
  | S_or (a, b) ->
    (match (eval_skel assign a, eval_skel assign b) with
     | Some true, _ | _, Some true -> Some true
     | Some false, Some false -> Some false
     | _ -> None)

let rec skel_atoms acc = function
  | S_true | S_false -> acc
  | S_lit (_, i) -> if List.mem i acc then acc else i :: acc
  | S_and (a, b) | S_or (a, b) -> skel_atoms (skel_atoms acc a) b

(* ------------------------------------------------------------------ *)
(* Theory: difference bounds over the assigned integer atoms
   (Bellman-Ford negative-cycle detection, with the [size() >= 0] and
   membership-count axioms) plus union-find equality over enum
   atoms. *)

type theory_result =
  | Refuted
  | Model of (string * J.t) list * (string * J.t) list  (* main, pre *)
  | Gaveup

(* Union-find over a flat element list. *)
type uf_elem = E_term of Ast.expr | E_str of string | E_null

let theory_and_model atoms assign =
  (* Partition the assigned atoms. *)
  let assigned = ref [] in
  Array.iteri
    (fun i a ->
      match a with
      | Some v -> assigned := (atoms.(i), v) :: !assigned
      | None -> ())
    assign;
  let assigned = !assigned in
  let cmps =
    List.filter_map
      (function A_cmp (a, b, op, k), v -> Some (a, b, op, k, v) | _ -> None)
      assigned
  and eqs =
    List.filter_map
      (function A_eq (t, r), v -> Some (t, r, v) | _ -> None)
      assigned
  and mems =
    List.filter_map
      (function A_mem (c, s), v -> Some (c, s, v) | _ -> None)
      assigned
  and truths =
    List.filter_map
      (function A_truth t, v -> Some (t, v) | _ -> None)
      assigned
  in
  (* --- equality / enum theory --- *)
  let uf_elems = ref [] in
  let uf_add e = if not (List.mem e !uf_elems) then uf_elems := e :: !uf_elems in
  List.iter
    (fun (t, r, _) ->
      uf_add (E_term t);
      uf_add
        (match r with
         | R_str s -> E_str s
         | R_null -> E_null
         | R_term t' -> E_term t'))
    eqs;
  let elems = Array.of_list !uf_elems in
  let n_elems = Array.length elems in
  let parent = Array.init n_elems (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let index_of e =
    let rec go i = if elems.(i) = e then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun (t, r, v) ->
      if v then
        union (index_of (E_term t))
          (index_of
             (match r with
              | R_str s -> E_str s
              | R_null -> E_null
              | R_term t' -> E_term t')))
    eqs;
  let eq_conflict =
    (* two distinct constants in one class, or an assigned disequality
       within one class *)
    let const_clash =
      let seen = Hashtbl.create 8 in
      Array.to_list (Array.mapi (fun i e -> (i, e)) elems)
      |> List.exists (fun (i, e) ->
             match e with
             | E_str _ | E_null ->
               let r = find i in
               (match Hashtbl.find_opt seen r with
                | Some e' when e' <> e -> true
                | Some _ -> false
                | None ->
                  Hashtbl.add seen r e;
                  false)
             | E_term _ -> false)
    in
    const_clash
    || List.exists
         (fun (t, r, v) ->
           (not v)
           && find (index_of (E_term t))
              = find
                  (index_of
                     (match r with
                      | R_str s -> E_str s
                      | R_null -> E_null
                      | R_term t' -> E_term t')))
         eqs
  in
  if eq_conflict then Refuted
  else begin
    (* --- difference-bound theory --- *)
    (* Nodes mentioned in comparison atoms, plus the origin. *)
    let nodes = ref [ Zero ] in
    let node_add n = if not (List.mem n !nodes) then nodes := n :: !nodes in
    List.iter
      (fun (a, b, _, _, _) ->
        node_add a;
        node_add b)
      cmps;
    (* membership-count axiom needs the size node of each collection
       that already participates in integer reasoning *)
    let nodes_arr = Array.of_list !nodes in
    let n_nodes = Array.length nodes_arr in
    let node_index n =
      let rec go i = if nodes_arr.(i) = n then i else go (i + 1) in
      go 0
    in
    let zero = node_index Zero in
    (* Constraint [a - b <= k] becomes edge b -> a of weight k. *)
    let base_edges = ref [] in
    let constr a b k = base_edges := (node_index b, node_index a, k) :: !base_edges in
    (* axioms: sizes and counts are non-negative *)
    Array.iter
      (function
        | T (Ast.Coll (_, Ast.Size) | Ast.Count _) as n -> constr Zero n 0
        | _ -> ())
      nodes_arr;
    (* membership-count axiom: a collection observed to include m
       distinct constants has size at least m *)
    let mem_colls =
      List.sort_uniq compare (List.filter_map
        (fun (c, _, v) -> if v then Some c else None) mems)
    in
    List.iter
      (fun c ->
        let m =
          List.length
            (List.sort_uniq compare
               (List.filter_map
                  (fun (c', s, v) -> if v && c' = c then Some s else None)
                  mems))
        in
        let size_node = T (size_of c) in
        if List.mem size_node !nodes then constr Zero size_node (-m))
      mem_colls;
    (* assigned comparison atoms; false equalities are non-convex and
       enumerated by sign choice *)
    let false_eqs = ref [] in
    List.iter
      (fun (a, b, op, k, v) ->
        match (op, v) with
        | CLe, true -> constr a b k
        | CLe, false -> constr b a (-k - 1)
        | CEq, true ->
          constr a b k;
          constr b a (-k)
        | CEq, false -> false_eqs := (a, b, k) :: !false_eqs)
      cmps;
    let false_eqs = !false_eqs in
    if List.length false_eqs > neq_budget then Gaveup
    else begin
      (* Bellman-Ford from a virtual source (all distances 0). *)
      let solve edges =
        let dist = Array.make n_nodes 0 in
        let changed = ref true in
        let rounds = ref 0 in
        while !changed && !rounds <= n_nodes do
          changed := false;
          incr rounds;
          List.iter
            (fun (u, v, w) ->
              if dist.(u) + w < dist.(v) then begin
                dist.(v) <- dist.(u) + w;
                changed := true
              end)
            edges
        done;
        if !changed then None else Some dist
      in
      let rec enumerate pending extra =
        match pending with
        | [] -> solve (extra @ !base_edges)
        | (a, b, k) :: rest ->
          (* a - b <> k:  a - b <= k-1  or  b - a <= -k-1 *)
          (match
             enumerate rest ((node_index b, node_index a, k - 1) :: extra)
           with
           | Some dist -> Some dist
           | None ->
             enumerate rest ((node_index a, node_index b, -k - 1) :: extra))
      in
      match enumerate false_eqs [] with
      | None -> Refuted
      | Some dist ->
        (* ---- model construction ---- *)
        let int_value n = dist.(node_index n) - dist.(zero) in
        (* constants already mentioned anywhere; fresh strings avoid
           them *)
        let const_pool = ref [] in
        let pool_add s =
          if not (List.mem s !const_pool) then const_pool := s :: !const_pool
        in
        List.iter (fun (_, r, _) ->
            match r with R_str s -> pool_add s | _ -> ()) eqs;
        List.iter (fun (_, s, _) -> pool_add s) mems;
        let fresh_counter = ref 0 in
        let fresh prefix =
          let rec go () =
            let s = Printf.sprintf "%s%d" prefix !fresh_counter in
            incr fresh_counter;
            if List.mem s !const_pool then go () else s
          in
          go ()
        in
        (* value of each equality class *)
        let class_val = Hashtbl.create 8 in
        Array.iteri
          (fun i e ->
            let r = find i in
            match e with
            | E_str s -> Hashtbl.replace class_val r (J.String s)
            | E_null -> Hashtbl.replace class_val r J.Null
            | E_term _ ->
              if not (Hashtbl.mem class_val r) then
                Hashtbl.add class_val r (J.String (fresh "w")))
          elems;
        (* path trees *)
        let module Tree = struct
          type tnode = {
            mutable tval : J.t option;
            mutable tfields : (string * tnode) list;
            mutable tsize : int option;
            mutable tincl : string list;
            mutable texcl : string list;
          }

          let mk () =
            { tval = None; tfields = []; tsize = None; tincl = []; texcl = [] }
        end in
        let open Tree in
        let roots : (string, tnode) Hashtbl.t = Hashtbl.create 8 in
        let root name =
          match Hashtbl.find_opt roots name with
          | Some n -> n
          | None ->
            let n = mk () in
            Hashtbl.add roots name n;
            n
        in
        let rec descend node = function
          | [] -> node
          | f :: rest ->
            let child =
              match List.assoc_opt f node.tfields with
              | Some c -> c
              | None ->
                let c = mk () in
                node.tfields <- node.tfields @ [ (f, c) ];
                c
            in
            descend child rest
        in
        let path_of e =
          let rec go acc = function
            | Ast.Var v -> Some (v, acc)
            | Ast.Nav (inner, p) -> go (p :: acc) inner
            | _ -> None
          in
          go [] e
        in
        let at e =
          match path_of e with
          | Some (r, fields) -> Some (descend (root r) fields)
          | None -> None
        in
        (* integer witnesses *)
        Array.iter
          (fun n ->
            match n with
            | Zero -> ()
            | T (Ast.Coll (c, Ast.Size)) ->
              (match at c with
               | Some node -> node.tsize <- Some (int_value n)
               | None -> ())
            | T e ->
              (match at e with
               | Some node -> node.tval <- Some (J.Int (int_value n))
               | None -> ()))
          nodes_arr;
        (* enum witnesses: both sides of every assigned equality get
           their class value *)
        let set_class_val t =
          match at t with
          | Some node ->
            (match Hashtbl.find_opt class_val (find (index_of (E_term t))) with
             | Some v -> node.tval <- Some v
             | None -> ())
          | None -> ()
        in
        List.iter
          (fun (t, r, _) ->
            set_class_val t;
            match r with R_term t' -> set_class_val t' | _ -> ())
          eqs;
        (* membership witnesses *)
        List.iter
          (fun (c, s, v) ->
            match at c with
            | Some node ->
              if v then node.tincl <- List.sort_uniq compare (s :: node.tincl)
              else node.texcl <- s :: node.texcl
            | None -> ())
          mems;
        (* opaque boolean atoms that are plain navigation paths can
           still be realized as boolean leaves *)
        List.iter
          (fun (t, v) ->
            match at t with
            | Some node -> node.tval <- Some (J.Bool v)
            | None -> ())
          truths;
        (* realize the trees *)
        let rec realize node =
          if node.tfields <> [] then
            J.Obj (List.map (fun (f, c) -> (f, realize c)) node.tfields)
          else if node.tsize <> None || node.tincl <> [] || node.texcl <> []
          then begin
            let members = node.tincl in
            let target =
              match node.tsize with
              | Some n -> max n (List.length members)
              | None -> List.length members
            in
            let rec pad acc k =
              if k <= 0 then List.rev acc
              else
                let rec pick () =
                  let s = fresh "e" in
                  if List.mem s node.texcl || List.mem s members then pick ()
                  else s
                in
                pad (pick () :: acc) (k - 1)
            in
            J.List
              (List.map (fun s -> J.String s) members
              @ List.map (fun s -> J.String s)
                  (pad [] (target - List.length members)))
          end
          else match node.tval with Some v -> v | None -> J.Obj []
        in
        let main = ref [] and pre = ref [] in
        Hashtbl.iter
          (fun name node ->
            let value = realize node in
            let plen = String.length pre_prefix in
            if
              String.length name > plen
              && String.sub name 0 plen = pre_prefix
            then
              pre :=
                (String.sub name plen (String.length name - plen), value)
                :: !pre
            else main := (name, value) :: !main)
          roots;
        let main = List.sort compare !main and pre = List.sort compare !pre in
        Model (main, pre)
    end
  end

(* ------------------------------------------------------------------ *)
(* The search. *)

let env_of ~original (main, pre) =
  let env = Eval.env_of_bindings main in
  if pre <> [] || Ast.has_pre original then
    Eval.with_pre ~pre:(Eval.env_of_bindings pre) env
  else env

let satisfiable expr =
  let original = expr in
  let normalized = Simplify.nnf (Simplify.simplify (push_pre expr)) in
  let b = { atoms = []; count = 0 } in
  let skel = build b normalized in
  let atoms = Array.of_list (List.rev b.atoms) in
  let n = Array.length atoms in
  if n > atom_budget then Unknown
  else begin
    let order = List.rev (skel_atoms [] skel) in
    let assign = Array.make (max n 1) None in
    let budget = ref node_budget in
    let leaky = ref false in
    let found = ref None in
    let verify env = Eval.check env original = Value.True in
    let handle_leaf () =
      match theory_and_model atoms assign with
      | Refuted -> ()
      | Gaveup -> leaky := true
      | Model (main, pre) ->
        let env = env_of ~original (main, pre) in
        if verify env then found := Some env else leaky := true
    in
    let rec go remaining =
      if !found <> None then ()
      else begin
        decr budget;
        if !budget <= 0 then leaky := true
        else
          match eval_skel assign skel with
          | Some false -> ()
          | Some true -> handle_leaf ()
          | None ->
            (match remaining with
             | [] -> assert false
             | i :: rest ->
               (match assign.(i) with
                | Some _ -> go rest
                | None ->
                  assign.(i) <- Some true;
                  go rest;
                  assign.(i) <- Some false;
                  go rest;
                  assign.(i) <- None))
      end
    in
    go order;
    match !found with
    | Some env -> Sat env
    | None -> if !leaky then Unknown else Unsat
  end

let never_false expr = satisfiable (Ast.Unop (Ast.Not, expr))

let witness_summary env =
  let bindings = Eval.bindings env in
  let s =
    String.concat "; "
      (List.map
         (fun (name, json) ->
           Printf.sprintf "%s=%s" name (Cm_json.Printer.to_string json))
         bindings)
  in
  if String.length s > 240 then String.sub s 0 237 ^ "..." else s
