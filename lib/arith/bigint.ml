(* Sign-magnitude bignums whose small values are immediate ints.

   A value is either an immediate native OCaml integer — the small
   representation — or a pointer to a [big] record, a sign-magnitude
   little-endian limb array in base 2^30. The representation is
   canonical: every integer that fits a native [int] (except [min_int],
   whose negation overflows, so it always lives on the limb side) is
   immediate, and every operation demotes a limb-array result back to
   an immediate the moment it fits. Canonical forms make structural
   equality coincide with numeric equality and keep the many tiny
   DP-table entries produced early in the recursions off the heap
   entirely: adding or multiplying two small values allocates nothing.

   The two cases are told apart by the word's tag bit ([is_small]),
   not by a constructor: a [Small of int] constructor would put every
   small value in its own heap block, and without flambda a view
   function returning such a constructor would allocate on every call.
   So each operation below tests [is_small] inline and casts with the
   [%identity] externals [small]/[small_val]/[of_big]/[big_val]; [Obj]
   is used here and nowhere else in the project.

   Small/small operations run in native arithmetic guarded by exact
   overflow checks (promote only on demand); everything else promotes to
   limbs. Base 2^30 keeps every intermediate product of two limbs below
   2^60 and every product-plus-carry below 2^62, which fits comfortably
   in OCaml's 63-bit native integers. Division is Knuth's Algorithm D
   (TAOCP vol. 2, 4.3.1); the classic qhat estimation and add-back
   correction are kept exactly as in the reference formulation.
   Each operation has one limb kernel: multiplication is schoolbook at
   every size (in [mul] and in the [Acc] accumulator), [pow] squares
   with [mul], decimal conversion peels or adds one 9-digit chunk per
   step at every length, and gcd is a hybrid of Euclid division steps
   and a word-sized binary (Stein) finish. Kernels for large operands
   (Karatsuba, a symmetric-term squaring, divide-and-conquer
   conversion) were retired once call counters found no workload that
   reaches them (DESIGN.md §4); numerals from outside the program are
   capped in [Rational.of_string]. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type big = { sign : int; mag : int array }
(* Invariants: [sign] is -1, 0 or 1; [mag] has no trailing (most
   significant) zero limb; [sign = 0] iff [mag] is empty. *)

type t
(* An immediate [int] or a pointer to a [big]. Canonical forms: an
   immediate for every native [n] except [min_int]; a [big] only for
   values outside [[-max_int, max_int]] (which includes [min_int]
   itself). Internal kernels work on [big] records and may produce
   small magnitudes; [demote] restores canonicity at the public
   boundary.

   Polymorphic comparison orders immediates before blocks. Equal values
   are structurally equal, so polymorphic [=] and [Hashtbl.hash] stay
   consistent with [equal]. Two immediates are equal iff they are
   physically equal ([==]), which the [is_zero]/[is_one] tests use. *)

let is_small (x : t) = Obj.is_int (Obj.repr x)

(* Casts between the two cases; each is only valid on the side of
   [is_small] its name says. [small n] requires [n <> min_int]. *)
external small : int -> t = "%identity"
external small_val : t -> int = "%identity"
external of_big : big -> t = "%identity"
external big_val : t -> big = "%identity"

type stats = {
  mul_schoolbook : int;
  mul_karatsuba : int;
  mul_small : int;
  divmod : int;
  gcd : int;
  acc_mul : int;
  promotions : int;
  demotions : int;
}

(* Atomic counters: increments from concurrent domains are never lost,
   so [--stats] and BENCH_v1 kernel counts are exact under --jobs N. *)
let c_mul_schoolbook = Atomic.make 0
let c_mul_small = Atomic.make 0
let c_divmod = Atomic.make 0
let c_gcd = Atomic.make 0
let c_acc_mul = Atomic.make 0
let c_promotions = Atomic.make 0
let c_demotions = Atomic.make 0

let stats () =
  { mul_schoolbook = Atomic.get c_mul_schoolbook;
    mul_karatsuba = 0;
    mul_small = Atomic.get c_mul_small;
    divmod = Atomic.get c_divmod;
    gcd = Atomic.get c_gcd;
    acc_mul = Atomic.get c_acc_mul;
    promotions = Atomic.get c_promotions;
    demotions = Atomic.get c_demotions }

let reset_stats () =
  Atomic.set c_mul_schoolbook 0;
  Atomic.set c_mul_small 0;
  Atomic.set c_divmod 0;
  Atomic.set c_gcd 0;
  Atomic.set c_acc_mul 0;
  Atomic.set c_promotions 0;
  Atomic.set c_demotions 0

let big_zero = { sign = 0; mag = [||] }

(* The loops below over limb arrays are top-level functions of their
   arguments, not local closures over the array: without flambda such
   a closure is allocated on every call. *)
let rec top_limb mag i = if i > 0 && mag.(i - 1) = 0 then top_limb mag (i - 1) else i

(* Effective length of a working magnitude: index past the most
   significant non-zero limb. Internal kernels tolerate (and produce)
   leading zero limbs; [trim_len] is how they agree on the real size. *)
let trim_len mag = top_limb mag (Array.length mag)

let normalize sign mag =
  let n = Array.length mag in
  let len = trim_len mag in
  if len = 0 then big_zero
  else if len = n then { sign; mag }
  else { sign; mag = Array.sub mag 0 len }

let trim mag =
  let len = trim_len mag in
  if len = Array.length mag then mag else Array.sub mag 0 len

let big_of_small n =
  (* [n] must satisfy [0 <= n]. *)
  if n = 0 then big_zero
  else if n < base then { sign = 1; mag = [| n |] }
  else if n < base * base then { sign = 1; mag = [| n land limb_mask; n lsr limb_bits |] }
  else
    { sign = 1;
      mag =
        [| n land limb_mask;
           (n lsr limb_bits) land limb_mask;
           n lsr (2 * limb_bits) |] }

let big_of_int n =
  if n = 0 then big_zero
  else if n > 0 then big_of_small n
  else if n = min_int then
    (* [-n] overflows; build from [max_int] instead. *)
    let m = big_of_small max_int in
    let m1 = { m with mag = Array.copy m.mag } in
    let mag = m1.mag in
    (* max_int + 1: increment with carry. *)
    let rec inc i carry mag =
      if carry = 0 then mag
      else if i < Array.length mag then begin
        let s = mag.(i) + carry in
        mag.(i) <- s land limb_mask;
        inc (i + 1) (s lsr limb_bits) mag
      end
      else begin
        let mag' = Array.make (Array.length mag + 1) 0 in
        Array.blit mag 0 mag' 0 (Array.length mag);
        mag'.(Array.length mag) <- carry;
        mag'
      end
    in
    { sign = -1; mag = inc 0 1 mag }
  else { (big_of_small (-n)) with sign = -1 }

(* Demote a limb-array result to an immediate when the value fits a
   native int other than [min_int]; restores the canonical-form
   invariant. Three limbs fit when the top one is below 2^2 (the value
   is then below 2^62 = max_int + 1). *)
let demote b =
  let mag = b.mag in
  match Array.length mag with
  | 0 ->
    Atomic.incr c_demotions;
    small 0
  | 1 ->
    Atomic.incr c_demotions;
    small (b.sign * mag.(0))
  | 2 ->
    Atomic.incr c_demotions;
    small (b.sign * ((mag.(1) lsl limb_bits) lor mag.(0)))
  | 3 when mag.(2) < 1 lsl (62 - (2 * limb_bits)) ->
    Atomic.incr c_demotions;
    small (b.sign * ((mag.(2) lsl (2 * limb_bits)) lor (mag.(1) lsl limb_bits) lor mag.(0)))
  | _ -> of_big b

(* Promote to the limb representation on demand. *)
let big_of t =
  if is_small t then begin
    Atomic.incr c_promotions;
    big_of_int (small_val t)
  end
  else big_val t

let zero = small 0
let one = small 1
let two = small 2
let minus_one = small (-1)

let of_int n = if n = min_int then of_big (big_of_int min_int) else small n

let sign t = if is_small t then Int.compare (small_val t) 0 else (big_val t).sign

let is_zero t = t == zero
let is_one t = t == one
let is_negative t = if is_small t then small_val t < 0 else (big_val t).sign < 0
let is_even t = if is_small t then small_val t land 1 = 0 else (big_val t).mag.(0) land 1 = 0

(* Equal-length magnitudes, compared from limb [i] down. *)
let rec compare_limbs a b i =
  if i < 0 then 0
  else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
  else compare_limbs a b (i - 1)

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_limbs a b (la - 1)

let big_compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

(* A canonical [big] is larger in magnitude than any immediate, so a
   mixed comparison is decided by the [big]'s sign. *)
let compare a b =
  if is_small a then
    if is_small b then Int.compare (small_val a) (small_val b)
    else if (big_val b).sign > 0 then -1
    else 1
  else if is_small b then if (big_val a).sign > 0 then 1 else -1
  else big_compare (big_val a) (big_val b)

(* Canonical forms: an immediate never equals a [big]. *)
let equal a b =
  a == b
  || ((not (is_small a)) && (not (is_small b)) && big_compare (big_val a) (big_val b) = 0)

let hash t =
  if is_small t then small_val t land max_int
  else
    let b = big_val t in
    Array.fold_left (fun acc limb -> ((acc * 31) + limb) land max_int) b.sign b.mag

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg t =
  if is_small t then small (- small_val t) (* [<> min_int] by the canonical-form invariant *)
  else
    let b = big_val t in
    of_big { b with sign = -b.sign }

let abs t =
  if is_small t then (if small_val t < 0 then small (- small_val t) else t)
  else
    let b = big_val t in
    if b.sign < 0 then of_big { b with sign = 1 } else t

(* Magnitude addition: no sign involved. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = Stdlib.max la lb in
  let out = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(lmax) <- !carry;
  out

(* Magnitude subtraction: requires [a >= b] as values (leading zero
   limbs on either side are fine). *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lb = Stdlib.min lb la in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      out.(i) <- s + base;
      borrow := 1
    end
    else begin
      out.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  out

let big_add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    match compare_mag a.mag b.mag with
    | 0 -> big_zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)

let add a b =
  if is_small a && is_small b then begin
    let x = small_val a and y = small_val b in
    let s = x + y in
    if (x lxor s) land (y lxor s) < 0 then
      (* Native overflow (the sum's sign differs from both operands'):
         the true sum exceeds [max_int] in magnitude, so the limb-path
         result stays a [big] with no demotion check. *)
      of_big (big_add (big_of_int x) (big_of_int y))
    else if s = min_int then of_big (big_of_int min_int)
    else small s
  end
  else if is_zero a then b
  else if is_zero b then a
  else demote (big_add (big_of a) (big_of b))

let sub a b = add a (neg b)

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    Atomic.incr c_mul_schoolbook;
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    out
  end

(* Left-shift a magnitude by [s] bits, 0 <= s < limb_bits. *)
let shift_left_bits u s =
  if s = 0 then Array.copy u
  else begin
    let n = Array.length u in
    let out = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let v = (u.(i) lsl s) lor !carry in
      out.(i) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    out.(n) <- !carry;
    out
  end

(* Right-shift a magnitude by [s] bits, 0 <= s < limb_bits. *)
let shift_right_bits u s =
  if s = 0 then Array.copy u
  else begin
    let n = Array.length u in
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      let low = u.(i) lsr s in
      let high = if i + 1 < n then (u.(i + 1) lsl (limb_bits - s)) land limb_mask else 0 in
      out.(i) <- low lor high
    done;
    out
  end

(* The injected [`Karatsuba_split] fault: pretend a Karatsuba
   implementation forgot the [- z2] term in [z1] for a 2-bit split,
   i.e. return [a*b + (|a|/4)*(|b|/4)*4]. The 2-bit split makes the
   bug observable on the small operands fuzz trials produce, while
   still requiring both operands >= 4 -- the shape of a split-point bug
   that only fires on "large enough" inputs. *)
let karatsuba_split_corrupt a b r =
  let a1 = trim (shift_right_bits a.mag 2) in
  let b1 = trim (shift_right_bits b.mag 2) in
  if Array.length a1 = 0 || Array.length b1 = 0 then r
  else
    let bump = shift_left_bits (mul_mag_school a1 b1) 2 in
    normalize r.sign (add_mag r.mag bump)

let big_mul a b =
  if a.sign = 0 || b.sign = 0 then big_zero
  else normalize (a.sign * b.sign) (mul_mag_school a.mag b.mag)

(* The fault applies to every multiplication — including the native
   small/small fast path — so randomized trials on tiny operands can
   still observe it. *)
let apply_mul_fault a b r =
  demote (karatsuba_split_corrupt (big_of a) (big_of b) (big_of r))

(* Both factors strictly below 2^31 in magnitude multiply without
   overflow (product < 2^62 <= max_int); the quick-accept test keeps
   the dominant tiny-operand case free of the division-based check. *)
let small_prod_bound = 1 lsl 31

let with_mul_fault a b r =
  match !Fault.current with
  | `Karatsuba_split -> apply_mul_fault a b r
  | _ -> r

let mul a b =
  if is_zero a || is_zero b then zero
  else if is_small a && is_small b then begin
    let x = small_val a and y = small_val b in
    let ax = if x < 0 then -x else x in
    let ay = if y < 0 then -y else y in
    let r =
      if ax < small_prod_bound && ay < small_prod_bound then begin
        Atomic.incr c_mul_small;
        small (x * y)
      end
      else
        let p = x * y in
        (* [p = min_int] is either a wrap or the one in-range product
           an immediate cannot hold; [p / y = x] certifies no overflow
           (a wrapped product differs from the true one by a multiple
           of 2^63, farther than any |y| < 2^62 rounding slack). *)
        if p <> min_int && p / y = x then begin
          Atomic.incr c_mul_small;
          small p
        end
        else demote (big_mul (big_of_int x) (big_of_int y))
    in
    with_mul_fault a b r
  end
  else with_mul_fault a b (demote (big_mul (big_of a) (big_of b)))

let mul_schoolbook a b =
  if is_zero a || is_zero b then zero
  else demote (big_mul (big_of a) (big_of b))

(* The dedicated scalar loop admits any |n| < 2^32: limb*scalar plus
   carry stays below 2^62. *)
let mul_int_bound = 1 lsl 32

let mul_int a n =
  if is_small a then mul a (of_int n)
  else if n = 0 then zero
  else
    let b = big_val a in
    let m = if n < 0 then -n else n in
    if m > 0 && m < mul_int_bound then begin
      (* Dedicated small-scalar limb loop: one pass, no intermediate
         bignum for the scalar. *)
      Atomic.incr c_mul_small;
      let la = Array.length b.mag in
      let out = Array.make (la + 2) 0 in
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let cur = (b.mag.(i) * m) + !carry in
        out.(i) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      out.(la) <- !carry land limb_mask;
      out.(la + 1) <- !carry lsr limb_bits;
      demote (normalize (if n < 0 then -b.sign else b.sign) out)
    end
    else mul a (of_int n)

let succ a = add a one
let pred a = sub a one

(* Division of a magnitude by a single limb [d] (0 < d < base). *)
let divmod_small_mag u d =
  let n = Array.length u in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor u.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* Knuth Algorithm D on magnitudes; returns (quotient, remainder).
   Precondition: [Array.length v >= 2], [v] has no leading zero limb. *)
let divmod_knuth u v =
  let n = Array.length v in
  (* Normalize so that the top limb of v has its high bit set. *)
  let rec leading_shift x s = if x land (base lsr 1) <> 0 then s else leading_shift (x lsl 1) (s + 1) in
  let s = leading_shift v.(n - 1) 0 in
  let vn = Array.sub (shift_left_bits v s) 0 n in
  (* The dividend must carry one extra (possibly zero) top limb. *)
  let un =
    let shifted = shift_left_bits u s in
    if Array.length shifted = Array.length u + 1 then shifted
    else Array.append shifted [| 0 |]
  in
  let m = Array.length un - n - 1 in
  let q = Array.make (Stdlib.max (m + 1) 1) 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let continue_ = ref true in
    while
      !continue_
      && (!qhat >= base
          || !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vn.(n - 1);
      if !rhat >= base then continue_ := false
    done;
    (* Multiply and subtract. *)
    let k = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) in
      let t = un.(i + j) - !k - (p land limb_mask) in
      un.(i + j) <- t land limb_mask;
      k := (p lsr limb_bits) - (t asr limb_bits)
    done;
    let t = un.(j + n) - !k in
    un.(j + n) <- t;
    if t < 0 then begin
      (* qhat was one too large: add back. *)
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let t = un.(i + j) + vn.(i) + !carry in
        un.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      un.(j + n) <- un.(j + n) + !carry
    end;
    q.(j) <- !qhat
  done;
  let r = shift_right_bits (Array.sub un 0 n) s in
  (q, r)

let big_divmod a b =
  if a.sign = 0 then (big_zero, big_zero)
  else if compare_mag a.mag b.mag < 0 then (big_zero, a)
  else begin
    Atomic.incr c_divmod;
    let qmag, rmag =
      if Array.length b.mag = 1 then begin
        let q, r = divmod_small_mag a.mag b.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      end
      else divmod_knuth a.mag b.mag
    in
    let q = normalize (a.sign * b.sign) qmag in
    let r = normalize a.sign rmag in
    (q, r)
  end

let divmod a b =
  if is_zero b then raise Division_by_zero
  else if is_small a then
    if is_small b then
      (* Native truncated division; [min_int / -1], the only overflowing
         case, cannot arise because an immediate is never [min_int]. *)
      let x = small_val a and y = small_val b in
      (small (x / y), small (x mod y))
    else
      (* A canonical [big] divisor exceeds any immediate in magnitude. *)
      (zero, a)
  else
    let q, r = big_divmod (big_val a) (big_of b) in
    (demote q, demote r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e = 1 then mul acc b
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

(* {2 Gcd} *)

let gcd_euclid a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  go (abs a) (abs b)

(* Binary (Stein) gcd on non-negative native ints: shift/subtract only,
   no division, no allocation. *)
let gcd_word x y =
  if x = 0 then y
  else if y = 0 then x
  else begin
    let tz n =
      let rec go n s = if n land 1 = 1 then s else go (n lsr 1) (s + 1) in
      go n 0
    in
    let zx = tz x and zy = tz y in
    let shift = Stdlib.min zx zy in
    let x = ref (x lsr zx) and y = ref (y lsr zy) in
    while !x <> !y do
      if !x > !y then begin
        let d = !x - !y in
        x := d lsr tz d
      end
      else begin
        let d = !y - !x in
        y := d lsr tz d
      end
    done;
    !x lsl shift
  end

(* Hybrid gcd: Euclid division steps shrink multi-limb operands fast
   (a subtraction-only multi-limb Stein loop measured slower at every
   size), then the word-sized binary gcd finishes allocation-free --
   and handles the overwhelmingly common case of [Rational.make]
   normalization directly, since both operands of a reduced rational
   are usually immediates. *)
let gcd_small a b =
  let x = small_val a and y = small_val b in
  small (gcd_word (if x < 0 then -x else x) (if y < 0 then -y else y))

let gcd a b =
  if is_zero a then abs b
  else if is_zero b then abs a
  else if is_small a && is_small b then gcd_small a b
  else begin
    Atomic.incr c_gcd;
    let rec go a b =
      if is_zero b then a
      else if is_small a && is_small b then gcd_small a b
      else go b (rem a b)
    in
    go (abs a) (abs b)
  end

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (mul (div a (gcd a b)) b)

let to_int_opt t =
  if is_small t then Some (small_val t)
  else
    let b = big_val t in
    (* Canonical [big]: only [min_int] still fits a native int. *)
    if b.sign < 0
       && Array.length b.mag = 3
       && b.mag.(2) = 1 lsl (62 - (2 * limb_bits))
       && b.mag.(1) = 0
       && b.mag.(0) = 0
    then Some min_int
    else None

let to_int_exn t =
  match to_int_opt t with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let to_float t =
  if is_small t then float_of_int (small_val t)
  else
    let b = big_val t in
    let basef = float_of_int base in
    let m = Array.fold_right (fun limb acc -> (acc *. basef) +. float_of_int limb) b.mag 0.0 in
    float_of_int b.sign *. m

let chunk_base = 1_000_000_000
let chunk_digits = 9

(* Decimal digits of a trimmed magnitude: peel one 9-digit chunk per
   single-limb division. *)
let mag_to_string mag =
  let buf = Buffer.create ((Array.length mag * 10) + 1) in
  let rec chunks mag acc =
    if Array.length mag = 0 then acc
    else
      let q, r = divmod_small_mag mag chunk_base in
      chunks (trim q) (r :: acc)
  in
  (match chunks mag [] with
   | [] -> Buffer.add_char buf '0'
   | first :: rest ->
     Buffer.add_string buf (string_of_int first);
     List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%0*d" chunk_digits c)) rest);
  Buffer.contents buf

let to_string t =
  if is_small t then string_of_int (small_val t)
  else
    let b = big_val t in
    let digits = mag_to_string b.mag in
    if b.sign < 0 then "-" ^ digits else digits

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  for i = start to len - 1 do
    if not (s.[i] >= '0' && s.[i] <= '9') then
      invalid_arg "Bigint.of_string: invalid character"
  done;
  let int_pow10 e =
    let rec go acc e = if e = 0 then acc else go (acc * 10) (e - 1) in
    go 1 e
  in
  (* One 9-digit chunk per step: [acc * 10^take + chunk]. *)
  let acc = ref zero in
  let i = ref start in
  while !i < len do
    let take = Stdlib.min chunk_digits (len - !i) in
    (* Accumulate the chunk digit by digit: strictly decimal by
       construction, where delegating to [int_of_string] would also
       admit OCaml integer-literal syntax (hex/octal/binary prefixes,
       '_' separators, nested signs) if it ever saw unvalidated
       input. *)
    let part_val = ref 0 in
    for k = !i to !i + take - 1 do
      part_val := (!part_val * 10) + (Char.code s.[k] - Char.code '0')
    done;
    acc := add (mul_int !acc (int_pow10 take)) (small !part_val);
    i := !i + take
  done;
  if sign < 0 then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* {2 Multiply-accumulate}

   The convolution inner loop [acc += a*b] is the single hottest
   operation of every DP in this project. Going through [mul] + [add]
   allocates a product magnitude and a fresh sum per term; [Acc]
   instead accumulates limb products into a growable mutable buffer
   (one per sign) and materialises a bigint only once at the end.
   Terms with two immediate factors never touch a limb array at all: the native
   product is folded in as a three-limb carry ripple. *)
module Acc = struct
  type buf = { mutable limbs : int array; mutable len : int }

  type acc = { pos : buf; neg : buf }

  let mk_buf hint = { limbs = Array.make (Stdlib.max 4 hint) 0; len = 0 }

  let create ?(hint = 8) () = { pos = mk_buf hint; neg = mk_buf hint }

  let clear_buf buf =
    Array.fill buf.limbs 0 buf.len 0;
    buf.len <- 0

  let clear acc =
    clear_buf acc.pos;
    clear_buf acc.neg

  let ensure buf cap =
    let n = Array.length buf.limbs in
    if cap > n then begin
      let n' = ref (Stdlib.max 4 n) in
      while !n' < cap do
        n' := !n' * 2
      done;
      let limbs = Array.make !n' 0 in
      Array.blit buf.limbs 0 limbs 0 buf.len;
      buf.limbs <- limbs
    end

  (* buf += w, for a native word 0 <= w < 2^62: spread over limbs with
     the carry rippling in place (slots past [len] are zero). *)
  let add_word buf w =
    if w > 0 then begin
      ensure buf (buf.len + 4);
      let limbs = buf.limbs in
      let carry = ref w in
      let i = ref 0 in
      while !carry <> 0 do
        let s = limbs.(!i) + (!carry land limb_mask) in
        limbs.(!i) <- s land limb_mask;
        carry := (!carry lsr limb_bits) + (s lsr limb_bits);
        incr i
      done;
      buf.len <- Stdlib.max buf.len !i
    end

  (* buf += src, where [src] is a working magnitude. *)
  let add_mag_into buf src =
    let el = trim_len src in
    if el > 0 then begin
      ensure buf (Stdlib.max buf.len el + 1);
      let limbs = buf.limbs in
      let carry = ref 0 in
      for i = 0 to el - 1 do
        let s = limbs.(i) + src.(i) + !carry in
        limbs.(i) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let j = ref el in
      while !carry <> 0 do
        let s = limbs.(!j) + !carry in
        limbs.(!j) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr j
      done;
      buf.len <- Stdlib.max buf.len (Stdlib.max !j el)
    end

  (* buf += a*b, schoolbook, directly into the buffer. *)
  let madd buf a b =
    let la = Array.length a and lb = Array.length b in
    ensure buf (Stdlib.max buf.len (la + lb) + 1);
    let limbs = buf.limbs in
    let top = ref 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let cur = limbs.(i + j) + (ai * b.(j)) + !carry in
          limbs.(i + j) <- cur land limb_mask;
          carry := cur lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = limbs.(!k) + !carry in
          limbs.(!k) <- cur land limb_mask;
          carry := cur lsr limb_bits;
          incr k
        done;
        if !k > !top then top := !k
      end
    done;
    buf.len <- Stdlib.max buf.len (Stdlib.max !top (la + lb))

  (* buf += w * src, for a single-limb scalar 0 < w < 2^30: one fused
     pass, no promotion of the small operand and no product bignum. *)
  let madd_word buf w src =
    let ls = Array.length src in
    ensure buf (Stdlib.max buf.len (ls + 1) + 1);
    let limbs = buf.limbs in
    let carry = ref 0 in
    for j = 0 to ls - 1 do
      let cur = limbs.(j) + (w * src.(j)) + !carry in
      limbs.(j) <- cur land limb_mask;
      carry := cur lsr limb_bits
    done;
    let k = ref ls in
    while !carry <> 0 do
      let cur = limbs.(!k) + !carry in
      limbs.(!k) <- cur land limb_mask;
      carry := cur lsr limb_bits;
      incr k
    done;
    buf.len <- Stdlib.max buf.len (Stdlib.max !k ls)

  let add_mul_big acc a b =
    let a = big_of a and b = big_of b in
    madd (if a.sign * b.sign > 0 then acc.pos else acc.neg) a.mag b.mag

  (* Mixed small/limb product with a single-limb scalar — the bulk
     shape of dense convolutions over tables holding both small edge
     entries and factorial-scale middles. [x <> 0] (zeros are skipped
     by the caller) and an immediate is never [min_int], so [abs] is
     exact. *)
  let add_mul_word acc x b =
    Atomic.incr c_acc_mul;
    madd_word
      (if (x >= 0) = (b.sign > 0) then acc.pos else acc.neg)
      (Stdlib.abs x) b.mag

  let add_mul acc a b =
    if is_zero a || is_zero b then ()
    else if is_small a && is_small b then begin
      Atomic.incr c_acc_mul;
      let x = small_val a and y = small_val b in
      let ax = if x < 0 then -x else x in
      let ay = if y < 0 then -y else y in
      if ax < small_prod_bound && ay < small_prod_bound then
        add_word (if (x >= 0) = (y >= 0) then acc.pos else acc.neg) (ax * ay)
      else begin
        let p = x * y in
        if p <> min_int && p / y = x then
          add_word
            (if p > 0 then acc.pos else acc.neg)
            (if p < 0 then -p else p)
        else add_mul_big acc a b
      end
    end
    else if is_small a && Stdlib.abs (small_val a) < base then
      add_mul_word acc (small_val a) (big_val b)
    else if is_small b && Stdlib.abs (small_val b) < base then
      add_mul_word acc (small_val b) (big_val a)
    else begin
      Atomic.incr c_acc_mul;
      add_mul_big acc a b
    end

  let add acc a =
    if is_small a then begin
      let n = small_val a in
      if n <> 0 then add_word (if n > 0 then acc.pos else acc.neg) (if n < 0 then -n else n)
    end
    else
      let b = big_val a in
      add_mag_into (if b.sign > 0 then acc.pos else acc.neg) b.mag

  let buf_mag buf = trim (Array.sub buf.limbs 0 buf.len)

  let value acc =
    let p = buf_mag acc.pos and n = buf_mag acc.neg in
    if Array.length n = 0 then demote (normalize 1 p)
    else if Array.length p = 0 then demote (normalize (-1) n)
    else
      match compare_mag p n with
      | 0 -> zero
      | c when c > 0 -> demote (normalize 1 (sub_mag p n))
      | _ -> demote (normalize (-1) (sub_mag n p))
end

(* {2 All-small convolution}

   The first tier of [Tables.convolve]: when every entry of both tables
   is immediate, the whole product runs on native ints. A [t array]
   whose entries are all immediate has exactly the memory layout of an
   [int array], so the kernel reads both tables in place through that
   view, and writes native ints into a fresh [int array] that it hands
   back as the result table — no copy in, no boxing out. The view is
   only ever read, and only after the scan has seen no [big] entry: a
   write of a [big] through an [int array] alias would skip the write
   barrier. Every product and partial sum is overflow-checked with the
   tests [mul]/[add] use, and an output of exactly [min_int] (which an
   immediate may not hold) also gives up; the caller then recomputes on
   the classic paths. Inputs hold no [min_int], so [abs] and the
   division check are exact. *)

exception Overflow

external int_view : t array -> int array = "%identity"
external of_ints : int array -> t array = "%identity"

(* Top-level loops, not local closures over the array: without
   flambda a closure is allocated on every call. *)
let rec all_small a i = i < 0 || (is_small a.(i) && all_small a (i - 1))
let rec holds_min_int out i = i >= 0 && (out.(i) = min_int || holds_min_int out (i - 1))

let convolve_ints ai bi out =
  let lb = Array.length bi in
  for i = 0 to Array.length ai - 1 do
    let x = ai.(i) in
    if x <> 0 then begin
      let ax = if x < 0 then -x else x in
      for j = 0 to lb - 1 do
        let y = bi.(j) in
        if y <> 0 then begin
          let p =
            if ax < small_prod_bound && (if y < 0 then -y else y) < small_prod_bound then x * y
            else
              let p = x * y in
              if p = min_int || p / y <> x then raise_notrace Overflow else p
          in
          let k = i + j in
          let o = out.(k) in
          let s = o + p in
          if (o lxor s) land (p lxor s) < 0 then raise_notrace Overflow;
          out.(k) <- s
        end
      done
    end
  done

let convolve_small a b =
  if not (all_small a (Array.length a - 1) && all_small b (Array.length b - 1)) then None
  else begin
    let out = Array.make (Array.length a + Array.length b - 1) 0 in
    match convolve_ints (int_view a) (int_view b) out with
    | () -> if holds_min_int out (Array.length out - 1) then None else Some (of_ints out)
    | exception Overflow -> None
  end

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
