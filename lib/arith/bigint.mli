(** Arbitrary-precision signed integers.

    Every value that fits a native 63-bit [int] (except [min_int],
    whose negation overflows) is an immediate OCaml int, with no heap
    block of its own; everything else is a pointer to a sign-magnitude
    record with little-endian limbs in base [2^30]. Small/small
    operations run in native arithmetic behind exact overflow checks
    and promote to limb arrays only on demand; limb results demote back
    the moment they fit, so the representation is canonical and the
    many tiny DP-table entries early in the recursions never touch the
    heap. Equal values are structurally equal, so polymorphic [=] and
    [Hashtbl.hash] agree with {!equal}.
    All operations are purely functional. This module exists because
    the Shapley weights [k!(n-k-1)!/n!] and the subset counts
    manipulated by the dynamic programs exceed 63-bit integers for any
    interesting database size, and no bignum package is available in
    this environment. *)

type t

(** {1 Instrumentation}

    Per-process call counters for the arithmetic kernels, read by
    [shapctl solve --stats] and the bench JSON reports. The counters
    are [Atomic.t]s: increments from concurrent domains are never
    lost, so the numbers are exact under [--jobs > 1]. *)

type stats = {
  mul_schoolbook : int;  (** schoolbook magnitude multiplications *)
  mul_karatsuba : int;
      (** always [0]: there is no Karatsuba kernel any more. Kept only
          because the repository benchmark's tracer reads the field;
          nothing prints it. *)
  mul_small : int;  (** native small products and small-scalar [mul_int] loops *)
  divmod : int;  (** non-trivial divisions *)
  gcd : int;  (** multi-limb gcd runs *)
  acc_mul : int;  (** {!Acc.add_mul} multiply-accumulate calls *)
  promotions : int;  (** small values promoted to limb arrays *)
  demotions : int;  (** limb results demoted back to small ints *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int_opt : t -> int option
(** [None] if the value does not fit in a native [int]. *)

val is_small : t -> bool
(** [true] iff the value is an immediate int — every native [int]
    except [min_int]; a test of the word's tag bit. Exposed for the
    canonical-form property tests. *)

val to_int_exn : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_float : t -> float
(** Approximate conversion; may overflow to [infinity]. *)

val of_string : string -> t
(** Parses an optionally-signed decimal numeral, one 9-digit chunk per
    step, so the cost grows with the square of the length; callers
    that take numerals from outside the program bound their length
    first ({!Rational.of_string}).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t

val mul : t -> t -> t
(** Native product for two small operands when it fits, schoolbook
    limb multiplication at every other size. Corrupted while
    {!Fault.current} is [`Karatsuba_split]. *)

val mul_schoolbook : t -> t -> t
(** The fault-free reference product: the same schoolbook kernel as
    {!mul}, but it ignores {!Fault.current}, so property and fault
    tests can check {!mul} against it. *)

val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated towards zero
    (so [r] has the sign of [a] and [|r| < |b|]).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val mul_int : t -> int -> t
(** Dedicated single-pass limb loop when [|n| < 2^32]; falls back to a
    full multiplication otherwise. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0], by repeated squaring with {!mul}.
    @raise Invalid_argument on negative exponent. *)

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative; [gcd 0 0 = 0].
    Hybrid kernel: Euclid division steps while multi-limb, then an
    allocation-free word-sized binary (Stein) gcd — which is also the
    direct path for the small operands [Rational.make] normalizes. *)

val gcd_euclid : t -> t -> t
(** Reference Euclid/division gcd, exposed so property tests can check
    the binary gcd differentially. *)

val lcm : t -> t -> t
(** Least common multiple; always non-negative; zero if either argument
    is zero. *)

(** {1 Multiply-accumulate}

    Mutable accumulator for convolution inner loops: [acc += a*b]
    without allocating an intermediate product or a fresh sum per term.
    Not thread-safe; use one accumulator per domain. *)
module Acc : sig
  type acc

  val create : ?hint:int -> unit -> acc
  (** [hint] is the expected result size in limbs. *)

  val add_mul : acc -> t -> t -> unit
  (** [add_mul acc a b]: [acc += a*b]. *)

  val add : acc -> t -> unit
  (** [add acc a]: [acc += a]. *)

  val value : acc -> t
  (** Current accumulated value (the accumulator stays usable). *)

  val clear : acc -> unit
  (** Reset to zero, keeping the buffers for reuse. *)
end

(** {1 All-small convolution} *)

val convolve_small : t array -> t array -> t array option
(** [convolve_small a b] is the convolution of [a] and [b] (length
    [|a| + |b| - 1], entry [k] = [Σ_{i+j=k} a.(i) * b.(j)]) computed in
    native ints, or [None] when it cannot be: some entry of [a] or [b]
    is not {!is_small}, some product or partial sum overflows, or some
    output entry is [min_int]. The tables are read in place and the
    native output array is returned as the result, so no entry is
    converted or boxed. The first tier of
    {!Aggshap_core.Tables.convolve}, which counts the calls that return
    [Some]; it lives here because it relies on how a small value is
    represented (DESIGN.md §8). *)

(** {1 Infix operators}

    Grouped in a submodule so callers can [open Bigint.Infix] locally. *)
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
