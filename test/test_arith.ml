(* Tests for the arbitrary-precision arithmetic substrate.

   Strategy: unit tests for edge cases, plus qcheck properties that
   cross-validate every operation against native-int arithmetic on small
   operands and against algebraic laws on large (string-built) operands. *)

module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

let check_q msg expected actual =
  Alcotest.(check string) msg expected (Q.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bigint_basic () =
  check_b "zero" "0" B.zero;
  check_b "one" "1" B.one;
  check_b "minus one" "-1" B.minus_one;
  check_b "of_int 42" "42" (B.of_int 42);
  check_b "of_int -42" "-42" (B.of_int (-42));
  check_b "of_int max_int" (string_of_int max_int) (B.of_int max_int);
  check_b "of_int min_int" (string_of_int min_int) (B.of_int min_int);
  Alcotest.(check (option int)) "roundtrip max_int" (Some max_int)
    (B.to_int_opt (B.of_int max_int));
  Alcotest.(check (option int)) "roundtrip min_int" (Some min_int)
    (B.to_int_opt (B.of_int min_int));
  Alcotest.(check (option int)) "too big for int" None
    (B.to_int_opt (B.mul (B.of_int max_int) (B.of_int 4)))

let test_bigint_string_roundtrip () =
  let cases =
    [ "0"; "1"; "-1"; "999999999999999999999999999999";
      "-123456789012345678901234567890123456789";
      "1000000000000000000000000000000000000000000001" ]
  in
  List.iter (fun s -> check_b s s (B.of_string s)) cases;
  check_b "leading plus" "17" (B.of_string "+17");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bigint.of_string: invalid character")
    (fun () -> ignore (B.of_string "12x4"))

(* Regression tests for the of_string audit: the parser must accept
   strictly [sign? digit+] and nothing else. Delegating chunks to
   [int_of_string] would quietly admit OCaml integer-literal syntax —
   radix prefixes, '_' separators, interior signs — on the short-string
   path. *)
let test_bigint_of_string_strict () =
  let rejects s =
    Alcotest.check_raises
      (Printf.sprintf "rejects %S" s)
      (Invalid_argument "Bigint.of_string: invalid character")
      (fun () -> ignore (B.of_string s))
  in
  List.iter rejects
    [ "0x10"; "0o7"; "0b101"; "1_000"; "1e5"; " 12"; "12 "; "+-5"; "--5";
      "12-3"; "1.5" ];
  (* Sign-only inputs have no digits at all (the "empty chunk"). *)
  Alcotest.check_raises "plus only" (Invalid_argument "Bigint.of_string: no digits")
    (fun () -> ignore (B.of_string "+"));
  Alcotest.check_raises "minus only" (Invalid_argument "Bigint.of_string: no digits")
    (fun () -> ignore (B.of_string "-"));
  (* Long numerals must reject malformed input too, even with the bad
     character buried deep inside. *)
  rejects (String.make 400 '7' ^ "_" ^ String.make 399 '7');
  rejects (String.make 799 '7' ^ "x");
  (* Leading zeros are legal decimal, in short and long numerals. *)
  check_b "leading zeros short" "77" (B.of_string "0077");
  check_b "leading zeros long" (String.make 300 '7')
    (B.of_string (String.make 300 '0' ^ String.make 300 '7'))

let test_bigint_arith_large () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "987654321098765432109876543210" in
  check_b "add" "1111111110111111111011111111100" (B.add a b);
  check_b "sub" "-864197532086419753208641975320" (B.sub a b);
  check_b "mul" "121932631137021795226185032733622923332237463801111263526900"
    (B.mul a b);
  let q, r = B.divmod b a in
  check_b "div" "8" q;
  check_b "rem" "9000000000900000000090" r;
  (* divmod identity: b = q*a + r *)
  check_b "divmod identity" (B.to_string b) (B.add (B.mul q a) r)

let test_bigint_divmod_signs () =
  (* Truncated division: remainder carries the sign of the dividend. *)
  let dm a b =
    let q, r = B.divmod (B.of_int a) (B.of_int b) in
    (B.to_int_exn q, B.to_int_exn r)
  in
  Alcotest.(check (pair int int)) "7 / 2" (3, 1) (dm 7 2);
  Alcotest.(check (pair int int)) "-7 / 2" (-3, -1) (dm (-7) 2);
  Alcotest.(check (pair int int)) "7 / -2" (-3, 1) (dm 7 (-2));
  Alcotest.(check (pair int int)) "-7 / -2" (3, -1) (dm (-7) (-2));
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_pow_gcd () =
  check_b "2^100" "1267650600228229401496703205376" (B.pow B.two 100);
  check_b "x^0" "1" (B.pow (B.of_int 17) 0);
  check_b "0^0" "1" (B.pow B.zero 0);
  check_b "gcd" "6" (B.gcd (B.of_int 54) (B.of_int (-24)));
  check_b "gcd with zero" "7" (B.gcd B.zero (B.of_int 7));
  check_b "gcd big"
    "9999999999"
    (B.gcd
       (B.mul (B.of_string "9999999999") (B.of_string "1000000007"))
       (B.mul (B.of_string "9999999999") (B.of_string "998244353")))

let test_bigint_compare () =
  let sorted =
    List.map B.of_string
      [ "-100000000000000000000"; "-5"; "0"; "3"; "100000000000000000000" ]
  in
  let shuffled = List.rev sorted in
  Alcotest.(check (list string)) "sort"
    (List.map B.to_string sorted)
    (List.map B.to_string (List.sort B.compare shuffled));
  Alcotest.(check bool) "is_even 0" true (B.is_even B.zero);
  Alcotest.(check bool) "is_even 7" false (B.is_even (B.of_int 7));
  Alcotest.(check bool) "is_even -4" true (B.is_even (B.of_int (-4)))

let test_bigint_to_float () =
  Alcotest.(check (float 1e-9)) "to_float small" 42.0 (B.to_float (B.of_int 42));
  let big = B.pow (B.of_int 10) 30 in
  Alcotest.(check (float 1e20)) "to_float big" 1e30 (B.to_float big)

(* ------------------------------------------------------------------ *)
(* Bigint properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_small_int = QCheck.int_range (-1_000_000) 1_000_000

(* Big operands built from random digit strings, sign included. *)
let arb_big =
  let gen =
    QCheck.Gen.(
      let* neg = bool in
      let* ndigits = int_range 1 60 in
      let* digits = list_size (return ndigits) (int_range 0 9) in
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if neg then "-" ^ s else s in
      return (B.of_string s))
  in
  QCheck.make gen ~print:B.to_string

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let bigint_props =
  [ prop "of_int/add agrees with native" 1000
      QCheck.(pair arb_small_int arb_small_int)
      (fun (a, b) -> B.equal (B.add (B.of_int a) (B.of_int b)) (B.of_int (a + b)));
    prop "of_int/mul agrees with native" 1000
      QCheck.(pair arb_small_int arb_small_int)
      (fun (a, b) -> B.equal (B.mul (B.of_int a) (B.of_int b)) (B.of_int (a * b)));
    prop "of_int/divmod agrees with native" 1000
      QCheck.(pair arb_small_int arb_small_int)
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = B.divmod (B.of_int a) (B.of_int b) in
        B.to_int_exn q = a / b && B.to_int_exn r = a mod b);
    prop "string roundtrip" 500 arb_big (fun a -> B.equal a (B.of_string (B.to_string a)));
    prop "add commutative" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.add a b) (B.add b a));
    prop "mul commutative" 300 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.mul a b) (B.mul b a));
    prop "mul distributes over add" 300 QCheck.(triple arb_big arb_big arb_big)
      (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "sub inverse of add" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.equal (B.sub (B.add a b) b) a);
    prop "divmod reconstruction" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a));
    prop "gcd divides both" 300 QCheck.(pair arb_big arb_big)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "compare consistent with sub" 500 QCheck.(pair arb_big arb_big)
      (fun (a, b) -> B.compare a b = B.sign (B.sub a b));
    prop "neg involutive" 500 arb_big (fun a -> B.equal a (B.neg (B.neg a)));
  ]

(* ------------------------------------------------------------------ *)
(* Kernel differentials                                                *)
(*                                                                     *)
(* Each kernel (schoolbook multiplication, hybrid gcd, chunked string  *)
(* conversion, the Acc multiply-accumulator) is cross-validated on     *)
(* large operands against an independent reference: division, Euclid, *)
(* digit-by-digit printing, a fold of mul/add.                         *)
(* ------------------------------------------------------------------ *)

(* Operands of up to ~700 digits (about 78 limbs). *)
let arb_huge =
  let gen =
    QCheck.Gen.(
      let* neg = bool in
      let* ndigits = int_range 1 700 in
      let* digits = list_size (return ndigits) (int_range 0 9) in
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if neg then "-" ^ s else s in
      return (B.of_string s))
  in
  QCheck.make gen ~print:B.to_string

(* Operands of 430 to 3600 digits: a leading digit of at least 1 makes
   every one at least 10^429 > 2^1410, i.e. 48 to 399 30-bit limbs, and
   never zero. *)
let arb_large =
  let gen =
    QCheck.Gen.(
      let* neg = bool in
      let* ndigits = int_range 430 3600 in
      let* lead = int_range 1 9 in
      let* digits = list_size (return (ndigits - 1)) (int_range 0 9) in
      let s = String.concat "" (List.map string_of_int (lead :: digits)) in
      let s = if neg then "-" ^ s else s in
      return (B.of_string s))
  in
  QCheck.make gen ~print:B.to_string

let kernel_props =
  [ prop "large mul agrees with divmod and Acc" 100
      QCheck.(list_of_size (Gen.int_range 1 4) (pair arb_large arb_large))
      (fun pairs ->
        (* Division undoes every product exactly ([b] is never zero), and
           the accumulator, whose limb loop is its own, folds the same
           products to the same sum. *)
        List.for_all
          (fun (a, b) ->
            let q, r = B.divmod (B.mul a b) b in
            B.equal q a && B.is_zero r)
          pairs
        &&
        let acc = B.Acc.create () in
        List.iter (fun (a, b) -> B.Acc.add_mul acc a b) pairs;
        B.equal (B.Acc.value acc)
          (List.fold_left (fun s (a, b) -> B.add s (B.mul a b)) B.zero pairs));
    prop "hybrid gcd agrees with Euclid reference" 200 QCheck.(pair arb_huge arb_huge)
      (fun (a, b) -> B.equal (B.gcd a b) (B.gcd_euclid a b));
    prop "huge string roundtrip" 200 arb_huge
      (fun a -> B.equal a (B.of_string (B.to_string a)));
    prop "to_string agrees with small-chunk reference" 100 arb_huge
      (fun a ->
        (* Decimal digits recovered one-by-one by repeated division:
           the simplest possible reference for the chunked printer. *)
        let rec digits x acc =
          if B.is_zero x then acc
          else
            let q, r = B.divmod x (B.of_int 10) in
            digits q (string_of_int (B.to_int_exn r) ^ acc)
        in
        let expect =
          if B.is_zero a then "0"
          else (if B.is_negative a then "-" else "") ^ digits (B.abs a) ""
        in
        String.equal expect (B.to_string a));
    prop "mul_int agrees with mul of_int" 500
      QCheck.(pair arb_big (int_range (-2_000_000_000) 2_000_000_000))
      (fun (a, n) -> B.equal (B.mul_int a n) (B.mul a (B.of_int n)));
    prop "Acc matches fold of mul/add" 200
      QCheck.(list_of_size (Gen.int_range 0 12) (pair arb_big arb_big))
      (fun pairs ->
        let acc = B.Acc.create () in
        List.iter (fun (a, b) -> B.Acc.add_mul acc a b) pairs;
        let reference =
          List.fold_left (fun s (a, b) -> B.add s (B.mul a b)) B.zero pairs
        in
        B.equal (B.Acc.value acc) reference);
    prop "Acc clear resets" 100 QCheck.(pair arb_big arb_big)
      (fun (a, b) ->
        let acc = B.Acc.create () in
        B.Acc.add_mul acc a b;
        B.Acc.clear acc;
        B.Acc.add acc a;
        B.equal (B.Acc.value acc) a);
  ]

(* ------------------------------------------------------------------ *)
(* Small-integer representation                                        *)
(*                                                                     *)
(* The tagged fast path keeps every value in [-max_int, max_int] as an *)
(* unboxed native int and promotes to limb arrays only past the int63  *)
(* boundary; these tests pin the canonical-form invariant (min_int is  *)
(* the one native int that must stay on the big side) and check the    *)
(* overflow-guarded operations right at the edge.                      *)
(* ------------------------------------------------------------------ *)

let test_small_representation () =
  Alcotest.(check bool) "0 is small" true (B.is_small B.zero);
  Alcotest.(check bool) "max_int is small" true (B.is_small (B.of_int max_int));
  Alcotest.(check bool) "min_int+1 is small" true (B.is_small (B.of_int (min_int + 1)));
  Alcotest.(check bool) "min_int is big" false (B.is_small (B.of_int min_int));
  Alcotest.(check bool) "max_int+1 is big" false (B.is_small (B.succ (B.of_int max_int)));
  (* Demotion: a big-path computation whose result fits comes back
     small, so structural equality keeps coinciding with numeric. *)
  let back =
    B.sub (B.mul (B.of_int max_int) (B.of_int 3)) (B.mul (B.of_int max_int) (B.of_int 2))
  in
  Alcotest.(check bool) "big-path result demotes" true (B.is_small back);
  check_b "demoted value" (string_of_int max_int) back;
  (* min_int asymmetry: |min_int| = max_int + 1 does not fit. *)
  check_b "neg min_int" "4611686018427387904" (B.neg (B.of_int min_int));
  Alcotest.(check bool) "neg min_int is big" false (B.is_small (B.neg (B.of_int min_int)));
  Alcotest.(check (option int)) "to_int_opt min_int" (Some min_int)
    (B.to_int_opt (B.of_int min_int));
  Alcotest.(check (option int)) "to_int_opt -min_int" None
    (B.to_int_opt (B.neg (B.of_int min_int)));
  (* Additive boundary, both directions. *)
  check_b "max_int + 1" "4611686018427387904" (B.add (B.of_int max_int) B.one);
  check_b "min_int - 1" "-4611686018427387905" (B.pred (B.of_int min_int));
  (* -max_int + -1 wraps to exactly min_int in native arithmetic — a
     sum that is representable but must still land on the big side. *)
  let min_via_add = B.add (B.of_int (-max_int)) B.minus_one in
  check_b "-max_int - 1 = min_int" (string_of_int min_int) min_via_add;
  Alcotest.(check bool) "that sum is canonical big" false (B.is_small min_via_add);
  Alcotest.(check bool) "equal across representations" true
    (B.equal min_via_add (B.of_int min_int));
  (* Multiplicative boundary: products whose wrap lands on min_int or
     just past the quick-accept window. *)
  Alcotest.(check bool) "max*max matches schoolbook" true
    (B.equal
       (B.mul (B.of_int max_int) (B.of_int max_int))
       (B.mul_schoolbook (B.of_int max_int) (B.of_int max_int)));
  check_b "2 * 2^61 = 2^62" "4611686018427387904"
    (B.mul B.two (B.of_int (1 lsl 61)));
  check_b "-2 * 2^61 = min_int" (string_of_int min_int)
    (B.mul (B.of_int (-2)) (B.of_int (1 lsl 61)));
  (* min_int / -1 must not hit the native trap. *)
  let q, r = B.divmod (B.of_int min_int) B.minus_one in
  check_b "min_int / -1" "4611686018427387904" q;
  check_b "min_int mod -1" "0" r

(* Integers clustered at the int63 overflow boundary, plus uniform
   noise across the full native range. *)
let arb_int63 =
  let gen =
    QCheck.Gen.(
      frequency
        [ (2, map (fun d -> max_int - d) (int_range 0 2));
          (2, map (fun d -> min_int + d) (int_range 0 2));
          (1, map (fun d -> (1 lsl 31) - 2 + d) (int_range 0 3));
          (2, int_range (-1_000_000) 1_000_000);
          (3, int) ])
  in
  QCheck.make gen ~print:string_of_int

(* Decimal negation of a numeral string: exact reference for [neg]
   across the whole native range, min_int included. *)
let string_neg s =
  if s = "0" then s
  else if s.[0] = '-' then String.sub s 1 (String.length s - 1)
  else "-" ^ s

let small_props =
  [ prop "of_int round-trips, min_int stays big" 2000 arb_int63 (fun n ->
        B.to_int_opt (B.of_int n) = Some n
        && B.is_small (B.of_int n) = (n <> min_int)
        && String.equal (B.to_string (B.of_int n)) (string_of_int n));
    prop "add at the boundary agrees with the big path" 2000
      QCheck.(pair arb_int63 arb_int63)
      (fun (a, b) ->
        (* Reference: the same sum routed through limb arithmetic via a
           large anchor, so the overflow-checked native path is
           cross-validated, not compared with itself. *)
        let anchor = B.pow B.two 100 in
        let reference =
          B.sub (B.add (B.add (B.of_int a) anchor) (B.of_int b)) anchor
        in
        B.equal (B.add (B.of_int a) (B.of_int b)) reference);
    prop "mul at the boundary agrees with schoolbook" 2000
      QCheck.(pair arb_int63 arb_int63)
      (fun (a, b) ->
        B.equal
          (B.mul (B.of_int a) (B.of_int b))
          (B.mul_schoolbook (B.of_int a) (B.of_int b)));
    prop "neg agrees with decimal negation" 2000 arb_int63 (fun n ->
        B.equal (B.neg (B.of_int n)) (B.of_string (string_neg (string_of_int n))));
    prop "promotion/demotion round-trip through string" 1000 arb_int63 (fun n ->
        (* of_string builds through the limb path for long numerals and
           the accumulator path for short ones; either way the value
           must come back to the canonical small form. *)
        let v = B.of_string (string_of_int n) in
        B.equal v (B.of_int n) && B.is_small v = (n <> min_int));
    prop "divmod at the boundary reconstructs" 1000
      QCheck.(pair arb_int63 arb_int63)
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = B.divmod (B.of_int a) (B.of_int b) in
        B.equal (B.of_int a) (B.add (B.mul q (B.of_int b)) r)
        && B.compare (B.abs r) (B.abs (B.of_int b)) < 0);
  ]

(* ------------------------------------------------------------------ *)
(* The representation: immediates and limb records                     *)
(*                                                                     *)
(* A small value is an immediate int, a large one a pointer to a limb  *)
(* record. These pin the canonical form on every operation's result,   *)
(* the structural equality and hashing that polymorphic code relies    *)
(* on, the order of immediates before blocks, and that small values    *)
(* cost no allocation.                                                 *)
(* ------------------------------------------------------------------ *)

(* The reference for "fits a native int other than min_int" reads the
   decimal digits, not the representation. *)
let fits_immediate v =
  match int_of_string_opt (B.to_string v) with
  | Some n -> n <> min_int
  | None -> false

let canonical v = B.is_small v = fits_immediate v

(* Boundary-heavy values: the named native edges and their neighbours,
   limb values just past the native range on both sides, and random
   multi-limb values. *)
let arb_edge_value =
  let edges =
    [ 0; 1; -1; 1 lsl 30; -(1 lsl 30); 1 lsl 31; -(1 lsl 31); 1 lsl 61; -(1 lsl 61);
      max_int; min_int + 1; min_int ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [ (4,
           let* e = oneofl edges in
           let* d = int_range (-2) 2 in
           (* [e + d] wraps at the native edges; the limb sum does not. *)
           return (B.add (B.of_int e) (B.of_int d)));
          (2, map B.of_int int);
          (2,
           let* neg = bool in
           let* ndigits = int_range 19 60 in
           let* digits = list_size (return ndigits) (int_range 0 9) in
           let s = String.concat "" (List.map string_of_int digits) in
           return (B.of_string (if neg then "-" ^ s else s))) ])
  in
  QCheck.make gen ~print:B.to_string

let representation_props =
  [ prop "every result is in canonical form" 2000
      QCheck.(pair arb_edge_value arb_edge_value)
      (fun (a, b) ->
        let results =
          [ a; b; B.add a b; B.sub a b; B.mul a b; B.pow a 2; B.neg a; B.abs a; B.gcd a b;
            B.of_string (B.to_string a) ]
        in
        let divisions =
          if B.is_zero b then []
          else
            let q, r = B.divmod a b in
            [ q; r ]
        in
        List.for_all canonical (results @ divisions));
    prop "structural equality and hashing agree with equal" 2000
      QCheck.(pair arb_edge_value arb_edge_value)
      (fun (a, b) ->
        (* The same value along other paths: through a limb result that
           demotes (or not) on the way back, through the parser, and
           through a division. *)
        let anchor = B.pow B.two 100 in
        let same =
          [ B.sub (B.add a anchor) anchor;
            B.of_string (B.to_string a);
            B.div (B.mul a anchor) anchor ]
        in
        List.for_all
          (fun a' -> a = a' && Hashtbl.hash a = Hashtbl.hash a' && B.equal a a')
          same
        && (a = b) = B.equal a b
        && (Stdlib.compare a b = 0) = B.equal a b);
  ]

let test_representation_order () =
  (* Polymorphic compare sorts immediates before limb values whatever
     their sign, so a sort over values holding bignums keeps the order
     it had when small values were a constructor with tag 0 and limb
     values one with tag 1. *)
  let big_neg = B.neg (B.pow B.two 100) and big_pos = B.pow B.two 100 in
  Alcotest.(check bool) "immediate before a negative limb value" true
    (Stdlib.compare (B.of_int max_int) big_neg < 0);
  Alcotest.(check bool) "immediate before a positive limb value" true
    (Stdlib.compare (B.of_int (-1)) big_pos < 0);
  Alcotest.(check bool) "immediates in numeric order" true
    (Stdlib.compare (B.of_int (-5)) (B.of_int 3) < 0)

(* Small operands take the native paths, which must not allocate: the
   representation cannot silently go back to boxing. *)
let test_small_ops_allocate_nothing () =
  let x = B.of_int 12_345 and y = B.of_int (-678) in
  let acc = ref B.zero in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := B.add !acc (B.mul x y)
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words for 10,000 add/mul pairs" 0. (after -. before);
  check_b "their sum" (string_of_int (10_000 * 12_345 * -678)) !acc

(* Limb values allocate only what their results need: comparing two
   allocates nothing, and adding two allocates the result and the
   adder's scratch. A loop that closes over its array would add a
   closure block per call. *)
let test_limb_ops_allocate_only_results () =
  let words_per_call f =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    (Gc.minor_words () -. before) /. 10_000.
  in
  (* Two 7-limb values (2^180 <= v < 2^210) that differ only in their
     lowest limb, so [compare] walks every limb, and whose sum still
     has 7 limbs. *)
  let a = B.add (B.pow B.two 200) (B.of_int 5) and b = B.add (B.pow B.two 200) (B.of_int 7) in
  let sink = ref 0 in
  Alcotest.(check (float 0.)) "minor words per compare" 0.
    (words_per_call (fun () -> sink := !sink + B.compare a b));
  Alcotest.(check int) "compare's verdicts" (-10_000) !sink;
  let sum = ref B.zero in
  (* The adder's scratch is 8 limbs (one for the carry) plus a header;
     the result is a 7-limb array trimmed from it (8 words) and its
     sign record (3 words). *)
  Alcotest.(check (float 0.)) "minor words per add" 20.
    (words_per_call (fun () -> sum := B.add a b));
  check_b "their sum" (B.to_string (B.add (B.pow B.two 201) (B.of_int 12))) !sum

(* ------------------------------------------------------------------ *)
(* Rational unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_rational_basic () =
  check_q "normalization" "2/3" (Q.of_ints 4 6);
  check_q "negative den" "-2/3" (Q.of_ints 4 (-6));
  check_q "zero" "0" (Q.of_ints 0 5);
  check_q "integer display" "7" (Q.of_ints 14 2);
  check_q "add" "5/6" (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "sub" "1/6" (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "mul" "1/6" (Q.mul (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "div" "3/2" (Q.div (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "pow neg" "9/4" (Q.pow (Q.of_ints 2 3) (-2));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rational_floor_ceil () =
  let fl a b = B.to_int_exn (Q.floor (Q.of_ints a b)) in
  let ce a b = B.to_int_exn (Q.ceil (Q.of_ints a b)) in
  Alcotest.(check int) "floor 7/2" 3 (fl 7 2);
  Alcotest.(check int) "floor -7/2" (-4) (fl (-7) 2);
  Alcotest.(check int) "floor 6/2" 3 (fl 6 2);
  Alcotest.(check int) "ceil 7/2" 4 (ce 7 2);
  Alcotest.(check int) "ceil -7/2" (-3) (ce (-7) 2);
  Alcotest.(check int) "ceil -6/2" (-3) (ce (-6) 2)

let test_rational_string () =
  check_q "of_string int" "5" (Q.of_string "5");
  check_q "of_string frac" "-5/7" (Q.of_string "-5/7");
  check_q "of_string unnormalized" "1/2" (Q.of_string "2/4")

(* Numerals from outside the program are bounded: 4,096 digits in
   numerator or denominator parse, 4,097 are refused before any
   arithmetic. A sign is not a digit. *)
let test_rational_string_bound () =
  let nines k = String.make k '9' in
  let refused = Invalid_argument "Rational.of_string: more than 4096 digits" in
  check_q "4,096-digit numerator" (nines 4096) (Q.of_string (nines 4096));
  check_q "signed 4,096-digit numerator" ("-" ^ nines 4096) (Q.of_string ("-" ^ nines 4096));
  check_q "4,096-digit denominator" ("1/" ^ nines 4096) (Q.of_string ("1/" ^ nines 4096));
  Alcotest.check_raises "4,097-digit numerator" refused (fun () ->
      ignore (Q.of_string (nines 4097)));
  Alcotest.check_raises "signed 4,097-digit numerator" refused (fun () ->
      ignore (Q.of_string ("+" ^ nines 4097)));
  Alcotest.check_raises "4,097-digit denominator" refused (fun () ->
      ignore (Q.of_string ("1/" ^ nines 4097)));
  Alcotest.check_raises "4,097-digit numerator over a short denominator" refused (fun () ->
      ignore (Q.of_string (nines 4097 ^ "/7")))

let arb_rat =
  let gen =
    QCheck.Gen.(
      let* n = int_range (-10000) 10000 in
      let* d = int_range 1 10000 in
      return (Q.of_ints n d))
  in
  QCheck.make gen ~print:Q.to_string

let rational_props =
  [ prop "add assoc" 500 QCheck.(triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)));
    prop "mul inverse" 500 arb_rat
      (fun a ->
        QCheck.assume (not (Q.is_zero a));
        Q.equal Q.one (Q.mul a (Q.inv a)));
    prop "distributivity" 500 QCheck.(triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) -> Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "compare antisymmetric" 500 QCheck.(pair arb_rat arb_rat)
      (fun (a, b) -> Q.compare a b = -Q.compare b a);
    prop "floor <= x < floor+1" 500 arb_rat
      (fun a ->
        let f = Q.of_bigint (Q.floor a) in
        Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0);
    prop "to_float close" 500 arb_rat
      (fun a ->
        let f = Q.to_float a in
        abs_float (f -. (B.to_float (Q.num a) /. B.to_float (Q.den a))) < 1e-9);
    (* The cross-gcd add/mul forms must keep results reduced with a
       positive denominator — the invariant they themselves rely on. *)
    prop "add/mul keep fractions reduced" 300
      QCheck.(pair (pair arb_big arb_big) (pair arb_big arb_big))
      (fun ((an, ad), (bn, bd)) ->
        QCheck.assume (not (B.is_zero ad) && not (B.is_zero bd));
        let a = Q.make an ad and b = Q.make bn bd in
        let reduced q =
          B.sign (Q.den q) > 0 && B.is_one (B.gcd (Q.num q) (Q.den q))
        in
        reduced (Q.add a b) && reduced (Q.mul a b) && reduced (Q.sub a b)
        && reduced (Q.mul_int a 84) && reduced (Q.div_int b 84));
  ]

(* ------------------------------------------------------------------ *)
(* Combinat                                                            *)
(* ------------------------------------------------------------------ *)

let test_factorial () =
  check_b "0!" "1" (C.factorial 0);
  check_b "1!" "1" (C.factorial 1);
  check_b "10!" "3628800" (C.factorial 10);
  check_b "25!" "15511210043330985984000000" (C.factorial 25);
  (* Memoization across descending calls. *)
  check_b "5! after 25!" "120" (C.factorial 5)

let test_binomial () =
  check_b "C(0,0)" "1" (C.binomial 0 0);
  check_b "C(5,2)" "10" (C.binomial 5 2);
  check_b "C(5,7)" "0" (C.binomial 5 7);
  check_b "C(5,-1)" "0" (C.binomial 5 (-1));
  check_b "C(100,50)" "100891344545564193334812497256" (C.binomial 100 50)

let test_shapley_coefficient () =
  (* For n players the coefficients over all positions of one player and
     all coalition sizes sum to 1: sum_k C(n-1,k) q_k = 1. *)
  let n = 12 in
  let total =
    List.init n (fun k ->
        Q.mul
          (Q.of_bigint (C.binomial (n - 1) k))
          (C.shapley_coefficient ~players:n ~before:k))
    |> Q.sum
  in
  check_q "sum_k C(n-1,k) q_k = 1" "1" total;
  check_q "q_0 = 1/n" "1/12" (C.shapley_coefficient ~players:12 ~before:0)

let test_harmonic () =
  check_q "H(0)" "0" (C.harmonic 0);
  check_q "H(1)" "1" (C.harmonic 1);
  check_q "H(4)" "25/12" (C.harmonic 4);
  check_q "H(3) after H(4)" "11/6" (C.harmonic 3)

let test_misc_combinat () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (C.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (C.divisors 1);
  Alcotest.(check (list int)) "divisors 13" [ 1; 13 ] (C.divisors 13);
  Alcotest.(check int) "compositions2 count" 6 (List.length (C.compositions2 5));
  check_b "falling factorial" "60" (C.falling_factorial 5 3);
  check_b "falling factorial k=0" "1" (C.falling_factorial 5 0)

let combinat_props =
  [ prop "pascal identity" 200
      QCheck.(pair (int_range 1 60) (int_range 0 60))
      (fun (n, k) ->
        B.equal (C.binomial n k)
          (B.add (C.binomial (n - 1) k) (C.binomial (n - 1) (k - 1))));
    prop "binomial symmetry" 200
      QCheck.(pair (int_range 0 60) (int_range 0 60))
      (fun (n, k) ->
        QCheck.assume (k <= n);
        B.equal (C.binomial n k) (C.binomial n (n - k)));
    prop "coefficients sum to one" 50 (QCheck.int_range 1 30)
      (fun n ->
        let total =
          List.init n (fun k ->
              Q.mul
                (Q.of_bigint (C.binomial (n - 1) k))
                (C.shapley_coefficient ~players:n ~before:k))
          |> Q.sum
        in
        Q.equal total Q.one);
  ]

let () =
  Alcotest.run "arith"
    [ ( "bigint",
        [ Alcotest.test_case "basic" `Quick test_bigint_basic;
          Alcotest.test_case "string roundtrip" `Quick test_bigint_string_roundtrip;
          Alcotest.test_case "of_string strict decimal" `Quick
            test_bigint_of_string_strict;
          Alcotest.test_case "large arithmetic" `Quick test_bigint_arith_large;
          Alcotest.test_case "divmod signs" `Quick test_bigint_divmod_signs;
          Alcotest.test_case "pow and gcd" `Quick test_bigint_pow_gcd;
          Alcotest.test_case "compare" `Quick test_bigint_compare;
          Alcotest.test_case "to_float" `Quick test_bigint_to_float;
          Alcotest.test_case "small representation boundary" `Quick
            test_small_representation;
          Alcotest.test_case "immediates order before limb values" `Quick
            test_representation_order;
          Alcotest.test_case "small add/mul allocate nothing" `Quick
            test_small_ops_allocate_nothing;
          Alcotest.test_case "limb compare/add allocate only their results" `Quick
            test_limb_ops_allocate_only_results;
        ] );
      ("bigint properties", bigint_props);
      ("small-int properties", small_props);
      ("representation properties", representation_props);
      ("kernel differentials", kernel_props);
      ( "rational",
        [ Alcotest.test_case "basic" `Quick test_rational_basic;
          Alcotest.test_case "floor/ceil" `Quick test_rational_floor_ceil;
          Alcotest.test_case "strings" `Quick test_rational_string;
          Alcotest.test_case "numeral length bound" `Quick test_rational_string_bound;
        ] );
      ("rational properties", rational_props);
      ( "combinat",
        [ Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "shapley coefficient" `Quick test_shapley_coefficient;
          Alcotest.test_case "harmonic" `Quick test_harmonic;
          Alcotest.test_case "misc" `Quick test_misc_combinat;
        ] );
      ("combinat properties", combinat_props);
    ]
