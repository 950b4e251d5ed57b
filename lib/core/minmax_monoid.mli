(** Max aggregation with a {e non-localized} value function given by a
    monotonic commutative monoid over head variables (Section 7.3).

    The paper's classification assumes τ localized on one atom, but
    Section 7.3 observes that the all-hierarchical Min/Max algorithm
    extends to τ of the form [x₁ ⊗ ⋯ ⊗ x_ℓ] where ⊗ is a commutative,
    {e non-decreasing} monoid applied to numeric head variables (e.g.
    [Max (x₁ + x₂)], [Max (max(x₁, x₂))]): the dynamic program tracks,
    per sub-query, the attainable maxima of ⊗ restricted to the
    sub-query's tracked variables, and monotonicity lets maxima compose
    across blocks and components.

    It also shows restriction is {e necessary}: for arbitrary poly-time
    non-localized τ, even [Max] over a Cartesian product is #P-hard.

    The dynamic program is Min/Max's, on its (a,k)-table ({!Minmax}):
    its bag-union, padding, ground leaf (keyed on the monoid unit) and
    [sum_k] read-out. This module adds only the monoid, the lift of a
    tracked root value ({!Minmax.rekey} by [⊗ a]) and the conjunction
    of valued components ({!Minmax.cross} by [⊗]). *)

type monoid = {
  op : Aggshap_arith.Rational.t -> Aggshap_arith.Rational.t -> Aggshap_arith.Rational.t;
      (** must be commutative, associative and non-decreasing in each
          argument on the values that occur *)
  unit_ : Aggshap_arith.Rational.t;
  descr : string;
}

val plus : monoid
(** Addition (unit 0) — [Max(x₁ + x₂ + …)]. *)

val max_monoid : monoid
(** Maximum, with unit −∞ approximated by a very negative rational —
    [Max(max(x₁, x₂, …))]. *)

val tau : monoid -> vars:string list -> Aggshap_relational.Value.t array -> string list -> Aggshap_arith.Rational.t
(** [tau m ~vars answer head]: ⊗ over the (integer) values of the tracked
    [vars] inside the [answer] tuple with head layout [head]. Used by
    tests to evaluate the non-localized τ directly. *)

val sum_k :
  monoid ->
  vars:string list ->
  Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  Aggshap_arith.Rational.t array
(** [sum_k] of [Max ∘ (⊗ vars) ∘ q] for an all-hierarchical [q]; the
    tracked [vars] must be free variables of [q].
    @raise Invalid_argument otherwise. *)

val shapley :
  monoid ->
  vars:string list ->
  Aggshap_cq.Cq.t ->
  Aggshap_relational.Database.t ->
  Aggshap_relational.Fact.t ->
  Aggshap_arith.Rational.t
