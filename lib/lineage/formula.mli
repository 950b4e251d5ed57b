(** Hash-consed monotone Boolean formulas over integer variables.

    The lineage of an aggregate-query answer is a positive DNF over the
    endogenous facts — one minterm per homomorphism — and every event
    produced by the aggregate decomposition ({!Lineage}) is an OR/AND
    combination of such lineages, so negation never appears. A {!store}
    interns every formula: structurally equal terms are physically
    equal and share one {!id}, which is what makes the d-DNNF
    compiler's formula-keyed cache sound ({!Ddnnf}). *)

module ISet : Set.S with type elt = int

type t

type node =
  | True
  | False
  | Var of int
  | And of t list
  | Or of t list

type store
(** The hash-consing arena plus the conditioning memo. Not domain-safe;
    every formula must be used with the store that created it. *)

val create_store : unit -> store

val tru : store -> t
val fls : store -> t

val var : store -> int -> t
(** @raise Invalid_argument on a negative variable index. *)

val and_ : store -> t list -> t
(** Conjunction: flattens, drops [true], annihilates on [false], sorts
    and deduplicates children. [and_ s [] = tru s]. *)

val or_ : store -> t list -> t
(** Disjunction: flattens, drops [false], annihilates on [true], sorts,
    deduplicates, and drops subsumed minterms. [or_ s [] = fls s]. *)

val cond : store -> t -> int -> bool -> t
(** [cond s f v b] is the cofactor φ|v=b, memoized in the store. *)

val id : t -> int
(** Unique within the formula's store; equal terms share it. *)

val vars : t -> int list
(** Ascending. *)

val var_set : t -> ISet.t
val is_true : t -> bool
val is_false : t -> bool
val view : t -> node

val pick_var : rank:int array -> t -> int option
(** The Shannon branch variable: the variable [v] of the formula with
    the lowest [rank.(v)] ([rank] must cover every variable of the
    formula; ties go to the smaller index). {!Ddnnf.compile} ranks an
    event's variables by their first appearance in a depth-first walk
    of its formula, so the branch order follows the lineage's own
    structure (one minterm after another) rather than fact ids.
    [None] iff the formula is constant. *)

val eval : t -> (int -> bool) -> bool
(** Evaluate under an assignment (memoized over the DAG). *)

val to_string : t -> string

val store_size : store -> int
(** Number of distinct formulas interned so far. *)
