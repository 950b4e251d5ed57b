(** Localized value functions τ (Section 2).

    A value function assigns a number to each query answer. A {e localized}
    τ is determined by the atom [R(z̄)] of one relation: whenever two
    homomorphisms agree on [z̄], they get the same value. We therefore
    represent τ as a function of the {e R-fact argument tuple} — the form
    in which every algorithm of the paper consumes it — together with the
    name of the relation it is localized on. *)

type t = {
  rel : string;  (** the relation the function is localized on *)
  apply : Aggshap_relational.Value.t array -> Aggshap_arith.Rational.t;
      (** value of an answer, as a function of the R-fact arguments *)
  descr : string;
}

val apply : t -> Aggshap_relational.Value.t array -> Aggshap_arith.Rational.t

(** {1 The paper's standard value functions (Equations 2–4)} *)

val id : rel:string -> pos:int -> t
(** [τ_id^pos]: the [pos]-th argument (0-based), which must be an integer
    constant. *)

val gt : rel:string -> pos:int -> Aggshap_arith.Rational.t -> t
(** [τ_{>b}^pos]: 1 if the argument exceeds [b], else 0. *)

val relu : rel:string -> pos:int -> t
(** [τ_ReLU^pos]: the argument if positive, else 0. *)

val const : rel:string -> Aggshap_arith.Rational.t -> t
(** The constant function [τ ≡ c] (localized on every atom; [rel] fixes
    the bookkeeping choice). *)

val custom :
  rel:string ->
  descr:string ->
  (Aggshap_relational.Value.t array -> Aggshap_arith.Rational.t) ->
  t

val of_spec : string -> (t, string) result
(** Parses a value-function spec: [id:REL:POS], [relu:REL:POS],
    [gt:REL:POS:BOUND] or [const:REL:VALUE], with [POS] a non-negative
    integer and [BOUND], [VALUE] an integer or P/Q rational. Whether
    [REL] is an atom of a query is the caller's check. Errors quote the
    offending part and the spec through {!Aggshap_cq.Parser.quote}. *)

val numeric : Aggshap_relational.Value.t -> Aggshap_arith.Rational.t
(** Interprets a constant as a rational.
    @raise Invalid_argument on non-numeric constants. *)

val pp : Format.formatter -> t -> unit
