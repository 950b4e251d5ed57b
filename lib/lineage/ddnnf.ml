(* d-DNNF circuits by decomposition and Shannon expansion, and exact
   weighted model counting over them.

   The compiler turns a monotone formula into a DAG of three node
   kinds:

   - a decision ⟨v, hi, lo⟩ denotes (v ∧ hi) ∨ (¬v ∧ lo). Read as a
     d-DNNF, the OR is deterministic (the two disjuncts disagree on v)
     and the ANDs are decomposable (v occurs in neither child —
     asserted at construction);
   - an AND of parts whose variable sets are pairwise disjoint
     (decomposable);
   - an OR of parts whose variable sets are pairwise disjoint. It is
     not deterministic, but independence gives its non-models as the
     product of the parts' non-models, so it counts as cheaply.

   The AND and OR nodes are the ⊗ and ⊕ of the d-trees of Remark 4.5:
   the read-once lineage of a hierarchical query compiles to them
   alone, with decisions only at its leaves. [expand] builds one
   whenever a formula's children fall into two or more variable-
   disjoint groups, and Shannon-branches otherwise. Nodes of every kind
   are hash-consed in a per-manager unique table and count against the
   same node budget; compilation results are memoized per formula id
   (the formula-keyed cache — sound because {!Formula} interns
   structurally equal terms to one id).

   Counting works in the "size polynomial" view: a circuit over
   variable set V is mapped to P = Σ_k c_k x^k with c_k = number of
   models of size k over V. The recurrences are

     decision   P = x · P(hi) · (1+x)^gap_hi + P(lo) · (1+x)^gap_lo
     AND        P = Π_i P_i
     OR         P = (1+x)^|V| − Π_i Q_i,   Q_i = (1+x)^|V_i| − P_i

   where gap_child = |V| − 1 − |vars(child)| smooths the variables a
   decision's child never mentions (each is free: a factor (1+x)), and
   Q_i counts part i's non-models over its own variables V_i. A size
   polynomial is a table of the DPs' counting kernel
   ({!Aggshap_arith.Tables}): products are its convolutions (an AND/OR
   node's a balanced [convolve_many]), smoothing is its binomial [pad],
   Q_i its [complement]. The circuit counts on the same int tier as the
   frontier DPs, exactly, and the kernel's faults reach it too.

   Every variable's Shapley slice then comes from one more, top-down
   pass (the differential approach: Darwiche, JACM 2003). The adjoint
   A(node) is the size polynomial of the paths from the root to the
   node: it counts the variables beside them, so A(root) = 1 and each
   parent adds its own edge factor,

     decision   A(hi) += A(node) · x · (1+x)^gap_hi
                A(lo) += A(node) · (1+x)^gap_lo
     AND        A(part_j) += A(node) · Π_{i≠j} P_i
     OR         A(part_j) += A(node) · Π_{i≠j} Q_i

   (conditioning a variable of part j changes only P_j, and P of an OR
   moves by the change in P_j times the other parts' Q_i). A variable
   p is decided on every root-to-leaf path that mentions it and
   smoothed (free: it contributes the same to both cofactors) on every
   other, so the slice of p is the sum over the decisions on p of
   A(node) · ((1+x)^gap_hi · P(hi) − (1+x)^gap_lo · P(lo)): its
   cofactors' per-size counts over the other variables, differenced.
   An AND/OR node's products of all parts but one come from one
   prefix and one suffix sweep ({!Aggshap_arith.Tables.leave_one_out},
   the variant pass's sweep over sibling blocks). *)

module B = Aggshap_arith.Bigint
module Fault = Aggshap_arith.Fault
module Tables = Aggshap_arith.Tables
module ISet = Formula.ISet

type node =
  | True
  | False
  | Decision of { id : int; var : int; hi : node; lo : node; vars : ISet.t }
  | And of { id : int; parts : node list; vars : ISet.t }
  | Or of { id : int; parts : node list; vars : ISet.t }

exception Budget_exceeded

(* {1 Instrumentation} *)

let c_nodes = Atomic.make 0
let c_cache_hits = Atomic.make 0
let c_cache_misses = Atomic.make 0
let c_compiles = Atomic.make 0
let c_wmc_passes = Atomic.make 0
let c_budget_aborts = Atomic.make 0

(* Wall-time split between compilation and counting; plain refs (the
   knowledge-compilation tier runs in the calling domain). *)
let t_compile = ref 0.0
let t_wmc = ref 0.0

type stats = {
  nodes : int;  (* nodes created, every kind (after hash-consing) *)
  cache_hits : int;  (* formula-keyed cache hits *)
  cache_misses : int;  (* sub-formulas actually expanded *)
  compiles : int;  (* circuits compiled *)
  wmc_passes : int;  (* slice passes, one per circuit *)
  budget_aborts : int;  (* compilations aborted at the node budget *)
  compile_s : float;  (* time spent compiling *)
  wmc_s : float;  (* time spent counting *)
}

let stats () =
  { nodes = Atomic.get c_nodes;
    cache_hits = Atomic.get c_cache_hits;
    cache_misses = Atomic.get c_cache_misses;
    compiles = Atomic.get c_compiles;
    wmc_passes = Atomic.get c_wmc_passes;
    budget_aborts = Atomic.get c_budget_aborts;
    compile_s = !t_compile;
    wmc_s = !t_wmc }

let reset_stats () =
  Atomic.set c_nodes 0;
  Atomic.set c_cache_hits 0;
  Atomic.set c_cache_misses 0;
  Atomic.set c_compiles 0;
  Atomic.set c_wmc_passes 0;
  Atomic.set c_budget_aborts 0;
  t_compile := 0.0;
  t_wmc := 0.0

let timed cell f =
  let t0 = Sys.time () in
  Fun.protect ~finally:(fun () -> cell := !cell +. (Sys.time () -. t0)) f

(* Structural keys for hash-consing; children by id only. *)
type key =
  | KDecision of int * int * int  (* var, hi, lo *)
  | KAnd of int list
  | KOr of int list

type manager = {
  store : Formula.store;
  use_cache : bool;
  budget : int option;  (* max nodes before Budget_exceeded *)
  unique : (key, node) Hashtbl.t;
  compile_cache : (int, node) Hashtbl.t;  (* formula id -> circuit *)
  count_memo : (int, B.t array) Hashtbl.t;  (* node id -> size polynomial *)
  mutable rank : int array;  (* variable -> branch rank, set per compile *)
  mutable next_id : int;
}

let create ?(cache = true) ?budget store =
  { store; use_cache = cache; budget; unique = Hashtbl.create 256;
    compile_cache = Hashtbl.create 256; count_memo = Hashtbl.create 256;
    rank = [||]; next_id = 0 }

let node_id = function
  | True -> -1
  | False -> -2
  | Decision { id; _ } | And { id; _ } | Or { id; _ } -> id

let node_vars = function
  | True | False -> ISet.empty
  | Decision { vars; _ } | And { vars; _ } | Or { vars; _ } -> vars

let size node = ISet.cardinal (node_vars node)

(* The one allocation path of every node kind: the unique table first,
   then the node budget, which caps the circuit before the next
   allocation, mirroring the int tier's abort-and-retry in
   Tables.convolve: the caller catches Budget_exceeded and falls back
   to the planner's next tier. Under [`Kc_budget_leak] the guard is
   silently skipped (see {!expand}). *)
let intern mgr key build =
  match Hashtbl.find_opt mgr.unique key with
  | Some n -> n
  | None ->
    (match mgr.budget with
    | Some b when mgr.next_id >= b && !Fault.current <> `Kc_budget_leak ->
      Atomic.incr c_budget_aborts;
      raise_notrace Budget_exceeded
    | _ -> ());
    let n = build mgr.next_id in
    mgr.next_id <- mgr.next_id + 1;
    Atomic.incr c_nodes;
    Hashtbl.add mgr.unique key n;
    n

(* Decision-node constructor: collapses trivial decisions and enforces
   decomposability (the branch variable below its own decision would
   make the implicit ANDs overlap). Determinism needs no check — the
   v / ¬v guards are disjoint by construction. *)
let mk mgr var hi lo =
  if node_id hi = node_id lo then hi
  else begin
    if ISet.mem var (node_vars hi) || ISet.mem var (node_vars lo) then
      invalid_arg "Ddnnf.mk: decision variable reappears below its node";
    intern mgr (KDecision (var, node_id hi, node_id lo)) (fun id ->
        Decision { id; var; hi; lo; vars = ISet.add var (ISet.union (node_vars hi) (node_vars lo)) })
  end

(* Decomposition-node constructor: an AND ([conj]) or OR of parts
   whose variable sets must be pairwise disjoint (checked: their sizes
   add up to their union's). The parts are kept in id order, so equal
   nodes hash-cons to one. *)
let mk_parts mgr ~conj parts =
  let parts = List.sort (fun a b -> Int.compare (node_id a) (node_id b)) parts in
  let vars = List.fold_left (fun s p -> ISet.union s (node_vars p)) ISet.empty parts in
  if List.fold_left (fun n p -> n + size p) 0 parts <> ISet.cardinal vars then
    invalid_arg "Ddnnf.mk_parts: two parts share a variable";
  let ids = List.map node_id parts in
  if conj then intern mgr (KAnd ids) (fun id -> And { id; parts; vars })
  else intern mgr (KOr ids) (fun id -> Or { id; parts; vars })

(* The children of an AND/OR formula in variable-disjoint groups: two
   children share a group when a chain of shared variables links them
   (union-find over the children, each variable owned by the first
   child that mentions it). Groups come in the order of their first
   child. One pass over the children's variables. *)
let groups children =
  let xs = Array.of_list children in
  let root = Array.init (Array.length xs) Fun.id in
  let rec find i =
    if root.(i) = i then i
    else begin
      let r = find root.(i) in
      root.(i) <- r;
      r
    end
  in
  let owner = Hashtbl.create 16 in
  Array.iteri
    (fun i x ->
      ISet.iter
        (fun v ->
          match Hashtbl.find_opt owner v with
          | None -> Hashtbl.add owner v i
          | Some j ->
            let ri = find i and rj = find j in
            if ri <> rj then root.(max ri rj) <- min ri rj)
        (Formula.var_set x))
    xs;
  let members = Array.make (Array.length xs) [] in
  for i = Array.length xs - 1 downto 0 do
    let r = find i in
    members.(r) <- xs.(i) :: members.(r)
  done;
  List.filter (function [] -> false | _ :: _ -> true) (Array.to_list members)

(* Decomposition first, with the formula-keyed cache. A formula whose
   children fall into two or more variable-disjoint groups becomes an
   AND/OR node over its groups' circuits; any other formula is
   Shannon-expanded on its lowest-ranked variable.

   Under the [`Ddnnf_cache_poison] fault the entry stored (and
   returned) for a non-trivial decision swaps its children — the cache
   now answers with a semantically wrong circuit, exactly the
   corruption the differential oracle must catch. With the cache
   disabled the fault has nothing to poison and compilation stays
   correct.

   Under [`Kc_budget_leak] the node-budget abort path is broken the
   quietest way possible: instead of raising {!Budget_exceeded} the
   compiler hands back the partial circuit it had built, truncating
   every sub-formula reached after a small node count to [False]. The
   result under-counts models, so the values drift low — wrong answers
   the kc-vs-naive differential check must catch and shrink. *)
let rec expand mgr f =
  if Formula.is_true f then True
  else if Formula.is_false f then False
  else if !Fault.current = `Kc_budget_leak && mgr.next_id > 4 then False
  else begin
    let fid = Formula.id f in
    match
      if mgr.use_cache then Hashtbl.find_opt mgr.compile_cache fid else None
    with
    | Some n ->
      Atomic.incr c_cache_hits;
      n
    | None ->
      Atomic.incr c_cache_misses;
      let conj, split =
        match Formula.view f with
        | Formula.And xs -> (true, groups xs)
        | Formula.Or xs -> (false, groups xs)
        | Formula.Var _ | Formula.True | Formula.False -> (true, [])
      in
      let n =
        match split with
        | _ :: _ :: _ ->
          let join = if conj then Formula.and_ else Formula.or_ in
          mk_parts mgr ~conj (List.map (fun g -> expand mgr (join mgr.store g)) split)
        | _ ->
          let v =
            match Formula.pick_var ~rank:mgr.rank f with
            | Some v -> v
            | None -> invalid_arg "Ddnnf.compile: non-constant formula without variables"
          in
          let hi = expand mgr (Formula.cond mgr.store f v true) in
          let lo = expand mgr (Formula.cond mgr.store f v false) in
          mk mgr v hi lo
      in
      if mgr.use_cache then begin
        let stored =
          match (!Fault.current, n) with
          | `Ddnnf_cache_poison, Decision d -> mk mgr d.var d.lo d.hi
          | _ -> n
        in
        Hashtbl.add mgr.compile_cache fid stored;
        stored
      end
      else n
  end

(* The branch order of one compilation: each variable of [f] ranked by
   its first appearance in a depth-first walk of [f], children in their
   interned order. Lineage lists a minterm's facts together, so this
   decides one minterm (one homomorphism) after another; the residual
   formulas stay few where id order, which lists every fact of one
   relation first, leaves exponentially many. Only [f]'s variables are
   ranked, and every formula [expand] meets below [f] is a cofactor of
   it or a group of one. Circuits cached by earlier compilations were
   built in their own order; each is still equivalent to its formula,
   so reusing them is sound. *)
let rank_vars mgr f =
  match ISet.max_elt_opt (Formula.var_set f) with
  | None -> ()
  | Some top ->
    if Array.length mgr.rank <= top then mgr.rank <- Array.make (top + 1) 0;
    let seen = Hashtbl.create 64 and next = ref 0 in
    let rec walk g =
      if not (Hashtbl.mem seen (Formula.id g)) then begin
        Hashtbl.add seen (Formula.id g) ();
        match Formula.view g with
        | Formula.Var v ->
          mgr.rank.(v) <- !next;
          incr next
        | Formula.And xs | Formula.Or xs -> List.iter walk xs
        | Formula.True | Formula.False -> ()
      end
    in
    walk f

let compile mgr f =
  Atomic.incr c_compiles;
  timed t_compile (fun () ->
      rank_vars mgr f;
      expand mgr f)

(* {1 Weighted model counting} *)

(* Smoothing: each variable of the ground set the sub-circuit never
   mentions is free — a factor (1+x), i.e. binomial padding. *)
let lift p gap =
  if gap < 0 then invalid_arg "Ddnnf.lift: negative smoothing gap" else Tables.pad gap p

let rec polynomial mgr node =
  match node with
  | True -> [| B.one |]
  | False -> [| B.zero |]
  | Decision _ | And _ | Or _ -> (
    match Hashtbl.find_opt mgr.count_memo (node_id node) with
    | Some p -> p
    | None ->
      let res =
        match node with
        | Decision d ->
          let sv = ISet.cardinal d.vars in
          let p_hi = lift (polynomial mgr d.hi) (sv - 1 - size d.hi) in
          let p_lo = lift (polynomial mgr d.lo) (sv - 1 - size d.lo) in
          let res = Array.make (sv + 1) B.zero in
          Array.iteri (fun i c -> res.(i + 1) <- c) p_hi;
          Array.iteri (fun i c -> res.(i) <- B.add res.(i) c) p_lo;
          res
        | And d -> Tables.convolve_many (List.map (polynomial mgr) d.parts)
        | Or d ->
          Tables.complement (size node) (Tables.convolve_many (non_models mgr d.parts))
        | True | False -> assert false
      in
      Hashtbl.add mgr.count_memo (node_id node) res;
      res)

(* Each part's Q_i = (1+x)^|V_i| − P_i. *)
and non_models mgr parts =
  List.map (fun p -> Tables.complement (size p) (polynomial mgr p)) parts

(* [model_counts mgr ~n node] is [|c_0; ...; c_n|]: c_k = number of
   size-k subsets of the n-variable ground set satisfying the circuit
   (variables outside vars(node) free). *)
let model_counts mgr ~n node =
  let gap = n - ISet.cardinal (node_vars node) in
  match node with
  | False -> Tables.zeros n
  | _ -> lift (polynomial mgr node) gap

(* Every variable's slice in one top-down pass (see the header): the
   nodes reachable from the root, parents first (the reverse of a
   depth-first post-order), each pushing its adjoint down its edges;
   a decision adds its share to its own variable's slice. *)
let slices mgr root =
  match root with
  | True | False -> []
  | Decision _ | And _ | Or _ ->
    timed t_wmc (fun () ->
        Atomic.incr c_wmc_passes;
        let s = size root in
        let seen = Hashtbl.create 64 and order = ref [] in
        let rec visit node =
          match node with
          | True | False -> ()
          | Decision _ | And _ | Or _ when Hashtbl.mem seen (node_id node) -> ()
          | Decision d ->
            Hashtbl.add seen d.id ();
            visit d.hi;
            visit d.lo;
            order := node :: !order
          | And { id; parts; _ } | Or { id; parts; _ } ->
            Hashtbl.add seen id ();
            List.iter visit parts;
            order := node :: !order
        in
        visit root;
        let adjoint = Hashtbl.create 64 and slice = Hashtbl.create 64 in
        let accumulate tbl key len p =
          let acc =
            match Hashtbl.find_opt tbl key with
            | Some acc -> acc
            | None ->
              let acc = Array.make len B.zero in
              Hashtbl.add tbl key acc;
              acc
          in
          Array.iteri (fun i c -> acc.(i) <- B.add acc.(i) c) p
        in
        let push child p =
          match child with
          | True | False -> ()
          | Decision _ | And _ | Or _ ->
            accumulate adjoint (node_id child) (s - size child + 1) p
        in
        let push_parts a parts factors =
          let others, _ =
            Tables.leave_one_out ~unit:[| B.one |] ~op:Tables.convolve
              (Array.of_list factors)
          in
          List.iteri (fun j part -> push part (Tables.convolve a others.(j))) parts
        in
        Hashtbl.add adjoint (node_id root) [| B.one |];
        List.iter
          (fun node ->
            let a = Hashtbl.find adjoint (node_id node) in
            match node with
            | True | False -> ()
            | Decision d ->
              let sv = ISet.cardinal d.vars in
              let gap_hi = sv - 1 - size d.hi and gap_lo = sv - 1 - size d.lo in
              push d.hi (Array.append [| B.zero |] (lift a gap_hi));
              push d.lo (lift a gap_lo);
              let p_hi = lift (polynomial mgr d.hi) gap_hi in
              let p_lo = lift (polynomial mgr d.lo) gap_lo in
              accumulate slice d.var s (Tables.convolve a (Tables.sub p_hi p_lo))
            | And d -> push_parts a d.parts (List.map (polynomial mgr) d.parts)
            | Or d -> push_parts a d.parts (non_models mgr d.parts))
          !order;
        List.map (fun v -> (v, Hashtbl.find slice v)) (ISet.elements (node_vars root)))

let node_count mgr = mgr.next_id
