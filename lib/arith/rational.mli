(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is positive and
    coprime with the numerator; zero is [0/1]. Exactness is essential:
    Shapley values are alternating sums of ratios of factorials, and the
    hardness-reduction linear systems (Hilbert and Hankel matrices) are
    catastrophically ill-conditioned in floating point. *)

type t

val zero : t
val one : t
val two : t
val half : t
val minus_one : t

(** {1 Construction} *)

val of_int : int -> t
val of_bigint : Bigint.t -> t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalizes the fraction. @raise Division_by_zero. *)

val of_ints : int -> int -> t
(** [of_ints num den]. @raise Division_by_zero. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val den_lcm : Bigint.t -> t -> Bigint.t
(** [den_lcm acc q] is the least common multiple of [acc] and the
    denominator of [q], skipping the gcd when that denominator is [1] or
    [acc] itself. Folded from [Bigint.one], it gives the common
    denominator over which a vector of rationals lifts to integers. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mul_int : t -> int -> t
val div_int : t -> int -> t
val pow : t -> int -> t
(** [pow x e] for any [e]; negative exponents invert. *)

val sum : t list -> t

(** {1 Comparison} *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Rounding and conversion} *)

val floor : t -> Bigint.t
val ceil : t -> Bigint.t
val to_float : t -> float
val to_string : t -> string
(** ["p/q"], or ["p"] when the value is an integer. *)

val of_string : string -> t
(** Accepts ["p"], ["p/q"], each component an optionally-signed decimal
    numeral of at most 4,096 digits. Longer components are refused
    before any arithmetic, so a numeral from outside the program costs
    bounded work.
    @raise Invalid_argument on malformed or over-long input. *)

val pp : Format.formatter -> t -> unit

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
