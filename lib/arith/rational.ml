type t = { num : Bigint.t; den : Bigint.t }
(* Invariants: [den > 0]; [gcd num den = 1]; zero is [0/1].

   Components are tagged {!Bigint.t} values, so a rational whose
   reduced parts fit in native ints (the common case for Shapley
   weights early in a DP) costs two immediate words and its gcds run on
   the word-sized Stein path; nothing here needs to know which
   representation is live. *)

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den = if Bigint.is_negative den then (Bigint.neg num, Bigint.neg den) else (num, den) in
    if Bigint.is_one den then { num; den }
    else
      let g = Bigint.gcd num den in
      if Bigint.is_one g then { num; den }
      else { num = Bigint.div num g; den = Bigint.div den g }
  end

let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let half = of_ints 1 2

let num t = t.num
let den t = t.den

let den_lcm acc q =
  if Bigint.is_one q.den || Bigint.equal q.den acc then acc else Bigint.lcm acc q.den

let sign t = Bigint.sign t.num
let is_zero t = Bigint.is_zero t.num
let is_integer t = Bigint.is_one t.den

let neg t = { t with num = Bigint.neg t.num }
let abs t = { t with num = Bigint.abs t.num }

let inv t =
  if is_zero t then raise Division_by_zero
  else if Bigint.is_negative t.num then { num = Bigint.neg t.den; den = Bigint.neg t.num }
  else { num = t.den; den = t.num }

(* [add] and [mul] rely on the operands being reduced — every
   constructor guarantees it — which licenses the classic cross-gcd
   forms (Knuth 4.5.1, the mpq algorithms): the gcds run on the original
   components instead of on their (much larger) products, and in the
   coprime case no reduction is needed at all. *)
let add a b =
  if Bigint.is_zero a.num then b
  else if Bigint.is_zero b.num then a
  else if Bigint.is_one a.den && Bigint.is_one b.den then
    { num = Bigint.add a.num b.num; den = Bigint.one }
  else begin
    let d1 = Bigint.gcd a.den b.den in
    if Bigint.is_one d1 then
      (* Coprime denominators: the textbook sum is already reduced. *)
      { num = Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den);
        den = Bigint.mul a.den b.den }
    else begin
      let ad = Bigint.div a.den d1 and bd = Bigint.div b.den d1 in
      let t = Bigint.add (Bigint.mul a.num bd) (Bigint.mul b.num ad) in
      if Bigint.is_zero t then { num = Bigint.zero; den = Bigint.one }
      else begin
        let d2 = Bigint.gcd t d1 in
        if Bigint.is_one d2 then
          { num = t; den = Bigint.mul (Bigint.mul ad bd) d1 }
        else
          { num = Bigint.div t d2;
            den = Bigint.mul (Bigint.mul ad bd) (Bigint.div d1 d2) }
      end
    end
  end

let sub a b = add a (neg b)

let mul a b =
  if Bigint.is_zero a.num || Bigint.is_zero b.num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let g1 = Bigint.gcd a.num b.den in
    let g2 = Bigint.gcd b.num a.den in
    let num =
      Bigint.mul
        (if Bigint.is_one g1 then a.num else Bigint.div a.num g1)
        (if Bigint.is_one g2 then b.num else Bigint.div b.num g2)
    in
    let den =
      Bigint.mul
        (if Bigint.is_one g2 then a.den else Bigint.div a.den g2)
        (if Bigint.is_one g1 then b.den else Bigint.div b.den g1)
    in
    { num; den }
  end

let div a b = mul a (inv b)

let mul_int a n =
  if n = 0 || Bigint.is_zero a.num then { num = Bigint.zero; den = Bigint.one }
  else if Bigint.is_one a.den then { num = Bigint.mul_int a.num n; den = a.den }
  else begin
    let g = Bigint.gcd (Bigint.of_int n) a.den in
    if Bigint.is_one g then { num = Bigint.mul_int a.num n; den = a.den }
    else
      { num = Bigint.mul a.num (Bigint.div (Bigint.of_int n) g);
        den = Bigint.div a.den g }
  end

let div_int a n =
  if n = 0 then raise Division_by_zero
  else if Bigint.is_zero a.num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let nb = Bigint.of_int n in
    let g = Bigint.gcd a.num nb in
    let num = if Bigint.is_one g then a.num else Bigint.div a.num g in
    let nb = if Bigint.is_one g then nb else Bigint.div nb g in
    let num, nb =
      if Bigint.is_negative nb then (Bigint.neg num, Bigint.neg nb) else (num, nb)
    in
    { num; den = Bigint.mul a.den nb }
  end

let pow x e =
  if e >= 0 then { num = Bigint.pow x.num e; den = Bigint.pow x.den e }
  else inv { num = Bigint.pow x.num (-e); den = Bigint.pow x.den (-e) }

let sum = List.fold_left add zero

let compare a b =
  if Bigint.equal a.den b.den then Bigint.compare a.num b.num
  else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)
let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let hash t = (Bigint.hash t.num * 65599 + Bigint.hash t.den) land max_int
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor t =
  let q, r = Bigint.divmod t.num t.den in
  if Bigint.is_negative r then Bigint.pred q else q

let ceil t = Bigint.neg (floor (neg t))

let to_float t = Bigint.to_float t.num /. Bigint.to_float t.den

let to_string t =
  if is_integer t then Bigint.to_string t.num
  else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

let of_string s =
  match String.index_opt s '/' with
  | None -> of_bigint (Bigint.of_string s)
  | Some i ->
    let p = String.sub s 0 i in
    let q = String.sub s (i + 1) (String.length s - i - 1) in
    make (Bigint.of_string p) (Bigint.of_string q)

let pp fmt t = Format.pp_print_string fmt (to_string t)

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
