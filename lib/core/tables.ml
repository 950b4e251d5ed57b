module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module C = Aggshap_arith.Combinat
module Fault = Aggshap_arith.Fault

type counts = B.t array

type stats = {
  convolve : int;
  convolve_small : int;
  convolve_ntt : int;
  convolve_rat : int;
  tree_folds : int;
  weighted_sums : int;
}

(* Atomic counters, same contract as [Bigint.stats]: exact under
   concurrent domains. *)
let c_convolve = Atomic.make 0
let c_convolve_small = Atomic.make 0
let c_convolve_rat = Atomic.make 0
let c_tree_folds = Atomic.make 0
let c_weighted_sums = Atomic.make 0

let stats () =
  { convolve = Atomic.get c_convolve;
    convolve_small = Atomic.get c_convolve_small;
    convolve_ntt = 0;
    convolve_rat = Atomic.get c_convolve_rat;
    tree_folds = Atomic.get c_tree_folds;
    weighted_sums = Atomic.get c_weighted_sums }

let reset_stats () =
  Atomic.set c_convolve 0;
  Atomic.set c_convolve_small 0;
  Atomic.set c_convolve_rat 0;
  Atomic.set c_tree_folds 0;
  Atomic.set c_weighted_sums 0

let zeros n = Array.make (n + 1) B.zero

let delta n k0 =
  let c = zeros n in
  c.(k0) <- B.one;
  c

(* Copied, not aliased: counts arrays are treated as immutable
   everywhere, but the Pascal row is the combinatorics memo's own
   storage and must not be reachable from a caller. *)
let full n = Array.copy (C.binomial_row n)

let check_same_length a b =
  if Array.length a <> Array.length b then
    invalid_arg "Tables: length mismatch"

let add a b =
  check_same_length a b;
  Array.map2 B.add a b

let sub a b =
  check_same_length a b;
  Array.map2 B.sub a b

let complement n c = sub (full n) c

(* Below this length (of the shorter operand) a convolution entry only
   accumulates a handful of terms: the zero-skipping scatter loop beats
   the multiply-accumulate form, whose per-entry clear/extract overhead
   then dominates. The DPs produce both shapes in bulk — long-by-tiny
   sparse products (hierarchy blocks folded one value at a time) and
   dense square ones (combining whole sub-instance tables). *)
let acc_threshold = 8

let count_nonzero a =
  let c = ref 0 in
  Array.iter (fun x -> if not (B.is_zero x) then incr c) a;
  !c

(* First tier: [Bigint.convolve_small] runs the whole convolution in
   native ints, on the tables in place, when every entry of both is
   small, and declines otherwise; the classic paths then recompute from
   scratch (rare: one entry past 62 bits sends the whole convolution
   there, and the declined int work is at most one pass). *)
let convolve a b =
  Atomic.incr c_convolve;
  let la = Array.length a and lb = Array.length b in
  let n = la + lb - 1 in
  let out =
    match B.convolve_small a b with
    | Some out ->
      Atomic.incr c_convolve_small;
      out
    | None ->
      let out = Array.make n B.zero in
      (* Shape dispatch: the multiply-accumulate path amortizes only when
         most term products are live. Thin operands and sparse tables (the
         per-key tables of the keyed DPs are mostly zeros) go through the
         zero-skipping scatter loop instead; the density scan is O(la+lb)
         against the O(la*lb) convolution itself. *)
      let dense =
        Stdlib.min la lb >= acc_threshold
        && 2 * count_nonzero a * count_nonzero b >= la * lb
      in
      if not dense then
        (* Scatter with zero skipping: sparse or thin operands. *)
        for i = 0 to la - 1 do
          if not (B.is_zero a.(i)) then
            for j = 0 to lb - 1 do
              if not (B.is_zero b.(j)) then
                out.(i + j) <- B.add out.(i + j) (B.mul a.(i) b.(j))
            done
        done
      else begin
        (* Dense path: one multiply-accumulate buffer reused across output
           entries — no intermediate product or partial-sum bignum is
           allocated per term. *)
        let acc = B.Acc.create () in
        for k = 0 to la + lb - 2 do
          B.Acc.clear acc;
          let i0 = Stdlib.max 0 (k - lb + 1) and i1 = Stdlib.min (la - 1) k in
          for i = i0 to i1 do
            B.Acc.add_mul acc a.(i) b.(k - i)
          done;
          out.(k) <- B.Acc.value acc
        done
      end;
      out
  in
  (match !Fault.current with
   | `Convolve_off_by_one ->
     if la > 1 && lb > 1 then
       out.(Array.length out - 1) <- B.add out.(Array.length out - 1) B.one
   | _ -> ());
  out

let convolve_many ts =
  match ts with
  | [] -> [| B.one |]
  | [ t ] -> t
  | ts ->
    Atomic.incr c_tree_folds;
    (* Balanced pairwise reduction: adjacent tables are convolved level
       by level, so each input table participates in O(log n) products
       of comparable size instead of being re-traversed by an
       ever-growing left-fold accumulator. Order-preserving, and
       bit-identical to the fold because bignum arithmetic is exact. *)
    let arr = ref (Array.of_list ts) in
    let input_count = Array.length !arr in
    while Array.length !arr > 1 do
      let n = Array.length !arr in
      let half = n / 2 in
      let next = Array.make ((n + 1) / 2) [||] in
      for i = 0 to half - 1 do
        next.(i) <- convolve !arr.(2 * i) !arr.((2 * i) + 1)
      done;
      if n land 1 = 1 then next.(half) <- !arr.(n - 1);
      arr := next
    done;
    let out = !arr.(0) in
    (match !Fault.current with
     | `Tree_fold_skew ->
       (* Simulated mis-pairing of siblings in the reduction tree: the
          top two subset sizes of the merged table trade places. Only
          fires when the tree actually has internal structure. *)
       let len = Array.length out in
       if input_count >= 3 && len >= 2 then begin
         let t = out.(len - 1) in
         out.(len - 1) <- out.(len - 2);
         out.(len - 2) <- t
       end
     | _ -> ());
    out

let pad p c = if p = 0 then c else convolve c (full p)

let total c = Array.fold_left B.add B.zero c

let to_rationals c = Array.map Q.of_bigint c

let scale_to r c = Array.map (fun x -> Q.mul r (Q.of_bigint x)) c

let add_rat a b =
  if Array.length a <> Array.length b then invalid_arg "Tables.add_rat: length mismatch";
  Array.map2 Q.add a b

let zeros_rat n = Array.make (n + 1) Q.zero

let convolve_rat a b =
  Atomic.incr c_convolve_rat;
  (* Common-denominator form: lift both operands to integer arrays over
     one denominator each, convolve exactly as integers, and normalize
     once per entry at the end — instead of one gcd per term inside
     [Q.add]/[Q.mul]. *)
  let da = Array.fold_left Q.den_lcm B.one a in
  let db = Array.fold_left Q.den_lcm B.one b in
  let lift d q =
    if Q.is_zero q then B.zero
    else B.mul (Q.num q) (B.div d (Q.den q))
  in
  let na = Array.map (lift da) a and nb = Array.map (lift db) b in
  let out = convolve na nb in
  let d = B.mul da db in
  Array.map (fun x -> Q.make x d) out

let pad_rat p c =
  if p = 0 then c
  else convolve_rat c (Array.map Q.of_bigint (full p))

let weighted_sum n pairs =
  Atomic.incr c_weighted_sums;
  (* Σ_i w_i * c_i over the lcm of the weights' denominators: all-integer
     accumulation, one gcd per subset size at the very end. *)
  let d = List.fold_left (fun acc (w, _) -> Q.den_lcm acc w) B.one pairs in
  let accs = Array.init (n + 1) (fun _ -> B.Acc.create ()) in
  List.iter
    (fun (w, c) ->
      if Array.length c <> n + 1 then invalid_arg "Tables.weighted_sum: length mismatch";
      if not (Q.is_zero w) then begin
        let scaled = B.mul (Q.num w) (B.div d (Q.den w)) in
        Array.iteri (fun k x -> B.Acc.add_mul accs.(k) scaled x) c
      end)
    pairs;
  Array.map (fun acc -> Q.make (B.Acc.value acc) d) accs
