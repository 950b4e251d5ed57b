(* Seeded generators of benchmark inputs, as the text a user would send:
   query strings and database listings (the workloads that send update
   scripts write them from the facts generated here). The program under
   test only ever sees this text.

   Each generator fixes the shape of an instance (how many facts, how
   they join, which are exogenous) and lets the seed draw the constants:
   the labels of the join values and the τ-values they carry. So one
   seed always yields the same inputs, and different seeds yield
   relabelled instances of one shape — the spread between runs with
   different seeds measures the system, not the luck of the draw. With
   the exogenous facts and the cross edges of the RST family drawn from
   the seed as well, the median latency of beyond_frontier spread 15 %
   over eight seeds against 6 % over eight runs of one seed; with them
   fixed, 5 % against 4 %. *)

type instance = {
  cls : string;  (** latency class: what the instance exercises *)
  query : string;
  db : string;
  agg : string;
  tau : string option;
  fallback : string option;  (** [Api.parse_fallback] spelling *)
  kc_node_budget : int option;
}

let q_xyy = "Q(x) <- R(x, y), S(y)"
let q_xyy_full = "Q(x, y) <- R(x, y), S(y)"
let q1 = "Q(x) <- R(x, y), S(x)"
let q_exists = "Q(x) <- R(x), S(x, y), T(y)"
let q_cdist_nonhier = "Q(y) <- R(x), S(x, y), T(y)"
let q_rst = "Q() <- R(x), T(x, y), S(y)"

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The labels 1 .. count in random order. Keeping the set of values fixed
   keeps the cost of the rational and bignum arithmetic on τ-values from
   varying with the seed; only their arrangement does. *)
let labels st count =
  let a = Array.init count (fun i -> i + 1) in
  shuffle st a;
  a

let fact ?(exo = false) rel args =
  Printf.sprintf "%s(%s)%s\n" rel
    (String.concat ", " (List.map string_of_int args))
    (if exo then " @exo" else "")

(* A two-column edge list over [nx] left and [ny] right values: in round
   r = i / nx, edge i joins left x = i mod nx with right (x + r) mod ny,
   so no pair repeats while [count <= nx · ny]. *)
let edges ~count ~nx ~ny =
  List.init count (fun i ->
      let x = i mod nx in
      (x, (x + (i / nx)) mod ny))

(* R(x, y) edges in [groups] y-blocks, plus S(y) per block; every tenth
   R fact and one S fact are exogenous. Used for q_xyy and
   q_xyy_full. *)
let xyy_facts st ~rows ~groups =
  let nx = max 1 (rows * 3 / 4) in
  let xs = labels st nx and ys = labels st groups in
  let r =
    List.mapi
      (fun i (x, y) -> (xs.(x), ys.(y), i mod 10 = 9))
      (edges ~count:rows ~nx ~ny:groups)
  in
  (r, ys)

let xyy_text r ys =
  let b = Buffer.create (List.length r * 16) in
  List.iter (fun (x, y, exo) -> Buffer.add_string b (fact ~exo "R" [ x; y ])) r;
  Array.iteri (fun i y -> Buffer.add_string b (fact ~exo:(i = 0) "S" [ y ])) ys;
  Buffer.contents b

let xyy_db st ~rows ~groups =
  let r, ys = xyy_facts st ~rows ~groups in
  xyy_text r ys

(* R(x), S(x, y), T(y): the shape of q_exists and of the
   count-distinct query beyond the frontier. *)
let rst_chain_db st ~nx ~ny ~links =
  let xs = labels st nx and ys = labels st ny in
  let b = Buffer.create ((nx + ny + links) * 12) in
  Array.iteri (fun i x -> Buffer.add_string b (fact ~exo:(i = 0) "R" [ x ])) xs;
  List.iter
    (fun (x, y) -> Buffer.add_string b (fact "S" [ xs.(x); ys.(y) ]))
    (edges ~count:links ~nx ~ny);
  Array.iter (fun y -> Buffer.add_string b (fact "T" [ y ])) ys;
  Buffer.contents b

(* q1: R(x, y) edges over [nx] left values, plus S(x) per left value. *)
let q1_db st ~rows ~nx =
  let xs = labels st nx and ys = labels st 5 in
  let b = Buffer.create (rows * 16) in
  List.iter
    (fun (x, y) -> Buffer.add_string b (fact "R" [ xs.(x); ys.(y) ]))
    (edges ~count:rows ~nx ~ny:5);
  Array.iteri (fun i x -> Buffer.add_string b (fact ~exo:(i = 0) "S" [ x ])) xs;
  Buffer.contents b

(* The RST family beyond every frontier: m R-facts, m S-facts, a
   matching of m T-facts and two cross edges, all endogenous
   (n = 3m + 2 players). *)
let rst_db st m =
  let xs = labels st m and ys = labels st m in
  let b = Buffer.create (m * 32) in
  for i = 0 to m - 1 do
    Buffer.add_string b (fact "R" [ xs.(i) ]);
    Buffer.add_string b (fact "S" [ ys.(i) ]);
    Buffer.add_string b (fact "T" [ xs.(i); ys.(i) ])
  done;
  List.iter
    (fun (i, j) -> Buffer.add_string b (fact "T" [ xs.(i); ys.(j mod m) ]))
    [ (0, 1); (m / 2, (m / 2) + 2) ];
  Buffer.contents b

let make ?fallback ?kc_node_budget ?tau cls query agg db =
  { cls; query; db; agg; tau; fallback; kc_node_budget }

(* ------------------------------------------------------------------ *)
(* Instance classes                                                    *)
(* ------------------------------------------------------------------ *)

let max_xyy st rows =
  make ~tau:"id:R:0" "max_xyy" q_xyy "max" (xyy_db st ~rows ~groups:(rows / 5))

let cdist_xyy st rows =
  make ~tau:"id:R:0" "cdist_xyy" q_xyy "count-distinct"
    (xyy_db st ~rows ~groups:(rows / 5))

let avg_full st rows =
  make ~tau:"id:R:0" "avg_full" q_xyy_full "avg" (xyy_db st ~rows ~groups:(max 2 (rows / 4)))

let median_full st rows =
  make ~tau:"id:R:0" "median_full" q_xyy_full "median"
    (xyy_db st ~rows ~groups:(max 2 (rows / 4)))

(* Dup needs repeated τ-values among distinct answers x: a threshold at
   the middle label splits the answers into two value classes. *)
let dup_q1 st rows =
  let nx = max 2 (rows / 3) in
  make ~tau:(Printf.sprintf "gt:R:0:%d" (nx / 2)) "dup_q1" q1 "has-duplicates" (q1_db st ~rows ~nx)

let count_xyy st rows = make "count_xyy" q_xyy "count" (xyy_db st ~rows ~groups:(rows / 5))

let sum_exists st n =
  make ~tau:"id:R:0" "sum_exists" q_exists "sum"
    (rst_chain_db st ~nx:(n / 3) ~ny:(max 2 (n / 6)) ~links:(n / 2))

let rst_count st m = make ~fallback:"auto" "rst_count" q_rst "count" (rst_db st m)

let rst_max st m =
  make ~fallback:"auto" ~tau:"const:R:3" "rst_max" q_rst "max" (rst_db st m)

let cdist_nonhier st n =
  make ~fallback:"auto" ~tau:"id:S:1" "cdist_nonhier" q_cdist_nonhier "count-distinct"
    (rst_chain_db st ~nx:(n / 3) ~ny:(max 2 (n / 4)) ~links:(n / 2))

(* Avg is not event-decomposable, so auto sends it to naive
   enumeration. *)
let avg_naive st rows =
  make ~fallback:"auto" ~tau:"id:R:0" "avg_naive" q_xyy "avg" (xyy_db st ~rows ~groups:2)

(* A node budget far below what the compilation needs: the solve aborts
   mid-compilation and finishes on the ladder's naive rung. *)
let rst_budget st m =
  make ~fallback:"auto" ~kc_node_budget:5 "rst_budget" q_rst "count" (rst_db st m)
