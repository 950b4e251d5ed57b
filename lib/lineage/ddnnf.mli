(** d-DNNF circuits by decomposition and Shannon expansion, and exact
    weighted model counting over them.

    A circuit is a DAG of three node kinds: decisions ⟨v, hi, lo⟩ ≡
    (v ∧ hi) ∨ (¬v ∧ lo), deterministic (the disjuncts disagree on v)
    and decomposable (v occurs in neither child — enforced at
    construction); ANDs of parts with pairwise disjoint variables; and
    ORs of parts with pairwise disjoint variables, the d-trees' ⊗ and ⊕
    of Remark 4.5. Per-size model counts are one bottom-up pass over
    any of them, counted with the frontier DPs' kernel
    ({!Aggshap_arith.Tables}: its convolutions, binomial padding and
    complements, int tier included). Nodes are hash-consed per {!manager}; compilation is
    memoized per formula id — the formula-keyed cache made sound by
    {!Formula}'s interning. See DESIGN.md §10. *)

type node =
  | True
  | False
  | Decision of {
      id : int;
      var : int;
      hi : node;
      lo : node;
      vars : Formula.ISet.t;
    }
  | And of { id : int; parts : node list; vars : Formula.ISet.t }
      (** conjunction of two or more parts, pairwise variable-disjoint;
          [vars] is their union *)
  | Or of { id : int; parts : node list; vars : Formula.ISet.t }
      (** disjunction of two or more parts, pairwise variable-disjoint;
          [vars] is their union *)

exception Budget_exceeded
(** Raised (without a backtrace) by {!compile} when the manager's node
    budget would be exceeded by the next allocation. The caller is
    expected to abandon the manager and fall back to the solve
    planner's next tier — the knowledge-compilation analogue of the
    int tier's abort-and-retry in {!Aggshap_arith.Tables.convolve}. *)

type manager
(** Unique node table + formula-keyed compile cache + counting memo.
    Not domain-safe; formulas must come from the store it was created
    over. *)

val create : ?cache:bool -> ?budget:int -> Formula.store -> manager
(** [cache] (default [true]) enables the formula-keyed compile cache;
    disabling it re-expands shared sub-formulas (exponentially slower,
    semantically identical — a qcheck invariant). [budget] caps the
    number of nodes, of every kind, the manager may ever compile
    (counting allocates none); exceeding it raises {!Budget_exceeded} and bumps
    the [budget_aborts] counter. *)

val compile : manager -> Formula.t -> node
(** Decomposition first: a formula whose children fall into two or
    more variable-disjoint groups compiles to an [And]/[Or] node over
    its groups' circuits. Any other formula is Shannon-expanded on the
    variable that appears first in a depth-first walk of the formula
    being compiled ({!Formula.pick_var}); the rank table lives in the
    manager and is rebuilt per call. *)

val model_counts :
  manager -> n:int -> node -> Aggshap_arith.Bigint.t array
(** [model_counts mgr ~n c] is [|c_0; …; c_n|] with [c_k] = number of
    size-[k] subsets of an [n]-variable ground set satisfying [c]
    (variables outside the circuit are free — smoothing by binomial
    lift). *)

val slices :
  manager -> node -> (int * Aggshap_arith.Bigint.t array) list
(** [slices mgr c] pairs every variable [p] of [c], ascending, with its
    slice [|Δ_p(0); …; Δ_p(s−1)|] in the Boolean game 1\[c\] over
    [c]'s own [s = size c] variables:
    Δ_p(k) = C1_k − C0_k, the size-[k] model counts of [c]
    conditioned on [p] and on [¬p] over the other [s − 1] variables.
    One bottom-up pass (the memoized polynomials of {!model_counts})
    and one top-down pass of adjoint polynomials give every slice at
    once; an [And]/[Or] node hands each part the product of its
    siblings' factors, found by one prefix and one suffix sweep
    ({!Aggshap_arith.Tables.leave_one_out}). Empty
    for a constant circuit.

    The ground set is the circuit's variables, not the database's
    facts: a fact outside them is a null player of the event, and both
    Shapley and Banzhaf give every other player the same value with or
    without null players. So [Aggshap_arith.Score.finish score ~n:s]
    on a slice is the player's exact score in the event's game over
    any ground set containing [c]'s variables, and a fact outside them
    scores zero. *)

val node_id : node -> int
(** Unique within the manager; [-1]/[-2] for the constants. *)

val node_vars : node -> Formula.ISet.t
val size : node -> int
val node_count : manager -> int

(** {1 Instrumentation} *)

type stats = {
  nodes : int;  (** nodes compiled, every kind (after hash-consing) *)
  cache_hits : int;  (** formula-keyed cache hits *)
  cache_misses : int;  (** sub-formulas actually expanded *)
  compiles : int;  (** circuits compiled *)
  wmc_passes : int;  (** {!slices} passes: one per circuit counted *)
  budget_aborts : int;  (** compilations aborted at the node budget *)
  compile_s : float;  (** time spent compiling *)
  wmc_s : float;  (** time spent in {!slices} *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
