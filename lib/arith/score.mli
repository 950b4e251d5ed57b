(** Shapley-like scores (Section 3.2 of the paper) and their one
    finisher.

    Every exact route — the frontier DPs, knowledge compilation, naive
    enumeration and the closed forms — reduces a
    player [p] of an [n]-player game with utility [u] to its {e slice}

    {v Δ_p(k) = Σ_(|S| = k, p ∉ S) (u(S ∪ {p}) − u(S)),   k = 0 … n−1 v}

    held as integers over a common denominator, and {!finish} turns it
    into a score. *)

type t =
  | Shapley  (** weights [k!(n−k−1)!] over [n!] *)
  | Banzhaf  (** weight [1] over [2ⁿ⁻¹] *)

val finish : t -> den:Bigint.t -> n:int -> (int -> Bigint.t) -> Rational.t
(** [finish score ~den ~n slice] is the score of a player of an
    [n]-player game whose slice, multiplied by [den > 0], has entry
    [slice k] at size [k]. [slice] is called once per size, in
    increasing order, and nothing is materialised: one
    multiply-accumulate pass over the non-zero entries and one
    normalisation.
    @raise Invalid_argument if [n < 1]. *)
