(** Generic cooperative games with exact Shapley and Banzhaf values.

    Players are integers [0 .. n-1]; coalitions are bitmasks. This module
    is the ground truth for everything else: the naive solver evaluates
    an AggCQ on every coalition and hands the resulting game here, and the
    property tests check the dynamic programs against it. *)

type t = {
  n : int;  (** number of players; at most 24 (the cost is [O(2ⁿ)]) *)
  utility : int -> Aggshap_arith.Rational.t;
      (** utility of a coalition given as a bitmask; [utility 0] need not
          be zero — values are used only through differences, as in the
          paper's game where [v(C) = A(C ∪ Dˣ) − A(Dˣ)] *)
}

val max_players : int
(** Hard cap on [n] (24). *)

val make : n:int -> (int -> Aggshap_arith.Rational.t) -> t
(** Memoizes the utility. @raise Invalid_argument if [n > max_players]. *)

val shapley : t -> int -> Aggshap_arith.Rational.t
(** Exact Shapley value of one player, by subset enumeration: the
    textbook loop, one rational marginal contribution per coalition.
    Together with {!shapley_all} it is the reference the differential
    oracle ([Aggshap_check.Oracle]) judges every solver against. *)

val shapley_all : t -> Aggshap_arith.Rational.t array
(** {!shapley} for every player, one textbook loop each. *)

val shapley_all_int :
  score:Aggshap_arith.Score.t -> t -> Aggshap_arith.Rational.t array
(** Every player's [score] from one pass over the [2ⁿ] coalitions,
    each utility evaluated once: the utilities are lifted over their
    common denominator [L], summed as integers per coalition size (all
    coalitions, and those holding each player), and each player's slice
    goes to {!Aggshap_arith.Score.finish}. Equal to {!shapley_all} (to
    {!banzhaf} for Banzhaf); [n·2ⁿ⁻¹] integer additions instead of as
    many rational subtract-multiply-adds. The naive route of
    [Solver.shapley_all] reads its values here. [[||]] for [n = 0]. *)

val banzhaf : t -> int -> Aggshap_arith.Rational.t
(** The Banzhaf score [2^{-(n-1)} Σ_C (v(C∪p) − v(C))] — a Shapley-like
    score (Section 3.2 of the paper notes that all [sum_k]-based
    algorithms extend to such scores) — by the textbook loop, one
    rational marginal contribution per coalition: the oracle's Banzhaf
    reference, as {!shapley} is its Shapley one. *)

val efficiency_gap : t -> Aggshap_arith.Rational.t
(** [v(P) - v(∅) - Σ_p Shapley(p)]; zero for every game (used by tests). *)
