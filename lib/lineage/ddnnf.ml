(* d-DNNF circuits by Shannon expansion, and exact weighted model
   counting over them.

   The compiler turns a monotone formula into a decision DAG: node
   ⟨v, hi, lo⟩ denotes (v ∧ hi) ∨ (¬v ∧ lo). Read as a d-DNNF, the OR
   is deterministic (the two disjuncts disagree on v) and the ANDs are
   decomposable (v occurs in neither child — asserted at construction),
   so per-size model counts follow by one bottom-up pass. Nodes are
   hash-consed in a per-manager unique table; compilation results are
   memoized per formula id (the formula-keyed cache — sound because
   {!Formula} interns structurally equal terms to one id).

   Counting works in the "size polynomial" view: a circuit over
   variable set V is mapped to Σ_k c_k x^k with c_k = number of models
   of size k over V. At a decision node the recurrence is

     P(node) = x · P(hi) · (1+x)^gap_hi + P(lo) · (1+x)^gap_lo

   where gap_child = |V| − 1 − |vars(child)| smooths the variables the
   child never mentions (each is free: a factor (1+x)). All arithmetic
   is exact over {!Aggshap_arith.Bigint}.

   Every variable's Shapley slice then comes from one more, top-down
   pass (the differential approach: Darwiche, JACM 2003). The adjoint
   A(node) is the size polynomial of the paths from the root to the
   node: it counts the variables above it, so A(root) = 1 and each
   parent adds its own edge factor,

     A(hi) += A(node) · x · (1+x)^gap_hi     A(lo) += A(node) · (1+x)^gap_lo

   A variable p is decided on every root-to-leaf path that mentions it
   and smoothed (free: it contributes the same to both cofactors) on
   every other, so the slice of p is the sum over the nodes deciding p
   of A(node) · ((1+x)^gap_hi · P(hi) − (1+x)^gap_lo · P(lo)): its
   cofactors' per-size counts over the other variables, differenced. *)

module B = Aggshap_arith.Bigint
module Fault = Aggshap_arith.Fault
module Combinat = Aggshap_arith.Combinat
module ISet = Formula.ISet

type node =
  | True
  | False
  | Decision of { id : int; var : int; hi : node; lo : node; vars : ISet.t }

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
  nodes : int;  (* decision nodes created (after hash-consing) *)
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

type manager = {
  store : Formula.store;
  use_cache : bool;
  budget : int option;  (* max decision nodes before Budget_exceeded *)
  unique : (int * int * int, node) Hashtbl.t;  (* (var, hi, lo) -> node *)
  compile_cache : (int, node) Hashtbl.t;  (* formula id -> circuit *)
  count_memo : (int, B.t array) Hashtbl.t;  (* node id -> size polynomial *)
  mutable rank : int array;  (* variable -> branch rank, set per compile *)
  mutable next_id : int;
}

let create ?(cache = true) ?budget store =
  { store; use_cache = cache; budget; unique = Hashtbl.create 256;
    compile_cache = Hashtbl.create 256; count_memo = Hashtbl.create 256;
    rank = [||]; next_id = 0 }

let node_id = function True -> -1 | False -> -2 | Decision d -> d.id
let node_vars = function True | False -> ISet.empty | Decision d -> d.vars
let size = function True | False -> 0 | Decision d -> ISet.cardinal d.vars

(* Decision-node constructor: collapses trivial decisions and enforces
   decomposability (the branch variable below its own decision would
   make the implicit ANDs overlap). Determinism needs no check — the
   v / ¬v guards are disjoint by construction. *)
let mk mgr var hi lo =
  if node_id hi = node_id lo then hi
  else begin
    if ISet.mem var (node_vars hi) || ISet.mem var (node_vars lo) then
      invalid_arg "Ddnnf.mk: decision variable reappears below its node";
    let key = (var, node_id hi, node_id lo) in
    match Hashtbl.find_opt mgr.unique key with
    | Some n -> n
    | None ->
      (* The node budget caps the circuit before the next allocation,
         mirroring the Int_overflow abort-and-retry in Tables.convolve:
         the caller catches Budget_exceeded and falls back to the
         planner's next tier. Under [`Kc_budget_leak] the guard is
         silently skipped (see {!expand}). *)
      (match mgr.budget with
      | Some b when mgr.next_id >= b && !Fault.current <> `Kc_budget_leak ->
        Atomic.incr c_budget_aborts;
        raise_notrace Budget_exceeded
      | _ -> ());
      let vars = ISet.add var (ISet.union (node_vars hi) (node_vars lo)) in
      let n = Decision { id = mgr.next_id; var; hi; lo; vars } in
      mgr.next_id <- mgr.next_id + 1;
      Atomic.incr c_nodes;
      Hashtbl.add mgr.unique key n;
      n
  end

(* Shannon expansion with the formula-keyed cache. Under the
   [`Ddnnf_cache_poison] fault the entry stored (and returned) for a
   non-trivial decision swaps its children — the cache now answers with
   a semantically wrong circuit, exactly the corruption the
   differential oracle must catch. With the cache disabled the fault
   has nothing to poison and compilation stays correct.

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
      let v =
        match Formula.pick_var ~rank:mgr.rank f with
        | Some v -> v
        | None -> invalid_arg "Ddnnf.compile: non-constant formula without variables"
      in
      let hi = expand mgr (Formula.cond mgr.store f v true) in
      let lo = expand mgr (Formula.cond mgr.store f v false) in
      let n = mk mgr v hi lo in
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
   it. Circuits cached by earlier compilations were built in their own
   order; each is still equivalent to its formula, so reusing them is
   sound. *)
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

(* Exact polynomial product (each entry is a model count, its degree a
   subset size; lengths stay ≤ n+1). *)
let poly_mul a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make (la + lb - 1) B.zero in
  for i = 0 to la - 1 do
    if not (B.is_zero a.(i)) then
      for j = 0 to lb - 1 do
        res.(i + j) <- B.add res.(i + j) (B.mul a.(i) b.(j))
      done
  done;
  res

(* Smoothing: each variable of the ground set the sub-circuit never
   mentions is free — a factor (1+x), i.e. one binomial row. *)
let lift p gap =
  if gap = 0 then p
  else if gap < 0 then invalid_arg "Ddnnf.lift: negative smoothing gap"
  else poly_mul p (Combinat.binomial_row gap)

let rec polynomial mgr node =
  match node with
  | True -> [| B.one |]
  | False -> [| B.zero |]
  | Decision d -> (
    match Hashtbl.find_opt mgr.count_memo d.id with
    | Some p -> p
    | None ->
      let sv = ISet.cardinal d.vars in
      let p_hi = lift (polynomial mgr d.hi) (sv - 1 - size d.hi) in
      let p_lo = lift (polynomial mgr d.lo) (sv - 1 - size d.lo) in
      let res = Array.make (sv + 1) B.zero in
      Array.iteri (fun i c -> res.(i + 1) <- c) p_hi;
      Array.iteri (fun i c -> res.(i) <- B.add res.(i) c) p_lo;
      Hashtbl.add mgr.count_memo d.id res;
      res)

(* [model_counts mgr ~n node] is [|c_0; ...; c_n|]: c_k = number of
   size-k subsets of the n-variable ground set satisfying the circuit
   (variables outside vars(node) free). *)
let model_counts mgr ~n node =
  let gap = n - ISet.cardinal (node_vars node) in
  match node with
  | False -> Array.make (n + 1) B.zero
  | _ -> lift (polynomial mgr node) gap

(* Every variable's slice in one top-down pass (see the header): the
   decision nodes reachable from the root, parents first (the reverse
   of a depth-first post-order), each pushing its adjoint down its two
   edges and adding its share to its own variable's slice. *)
let slices mgr root =
  match root with
  | True | False -> []
  | Decision r ->
    timed t_wmc (fun () ->
        Atomic.incr c_wmc_passes;
        let s = ISet.cardinal r.vars in
        let seen = Hashtbl.create 64 and order = ref [] in
        let rec visit = function
          | Decision d as node when not (Hashtbl.mem seen d.id) ->
            Hashtbl.add seen d.id ();
            visit d.hi;
            visit d.lo;
            order := node :: !order
          | _ -> ()
        in
        visit root;
        let adjoint = Hashtbl.create 64 and slice = Hashtbl.create 64 in
        let add_into tbl key len p =
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
          | Decision c -> add_into adjoint c.id (s - size child + 1) p
        in
        Hashtbl.add adjoint r.id [| B.one |];
        List.iter
          (function
            | True | False -> ()
            | Decision d ->
              let a = Hashtbl.find adjoint d.id in
              let sv = ISet.cardinal d.vars in
              let gap_hi = sv - 1 - size d.hi and gap_lo = sv - 1 - size d.lo in
              push d.hi (Array.append [| B.zero |] (lift a gap_hi));
              push d.lo (lift a gap_lo);
              let p_hi = lift (polynomial mgr d.hi) gap_hi in
              let p_lo = lift (polynomial mgr d.lo) gap_lo in
              add_into slice d.var s (poly_mul a (Array.map2 B.sub p_hi p_lo)))
          !order;
        List.map (fun v -> (v, Hashtbl.find slice v)) (ISet.elements r.vars))

let node_count mgr = mgr.next_id
