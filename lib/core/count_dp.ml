module B = Aggshap_arith.Bigint
module Cq = Aggshap_cq.Cq
module Database = Aggshap_relational.Database
module IntMap = Map.Make (Int)

type t = {
  n : int;
  entries : Tables.counts IntMap.t;
}

let get t l =
  match IntMap.find_opt l t.entries with
  | Some c -> c
  | None -> Tables.zeros t.n

let at_least t l =
  IntMap.fold
    (fun l' c acc -> if l' >= l then Tables.add acc c else acc)
    t.entries (Tables.zeros t.n)

let neutral_union = { n = 0; entries = IntMap.singleton 0 [| B.one |] }
let neutral_cross = { n = 0; entries = IntMap.singleton 1 [| B.one |] }

let add_entry l c entries =
  IntMap.update l
    (function None -> Some c | Some c' -> Some (Tables.add c' c))
    entries

let combine op t1 t2 =
  let entries =
    IntMap.fold
      (fun l1 c1 acc ->
        IntMap.fold
          (fun l2 c2 acc ->
            let c = Tables.convolve c1 c2 in
            if B.is_zero (Tables.total c) then acc else add_entry (op l1 l2) c acc)
          t2.entries acc)
      t1.entries IntMap.empty
  in
  { n = t1.n + t2.n; entries }

(* [saturating cap op] lumps every answer count ≥ cap into the row
   [cap]. Rows below the cap stay exact: a merged row ℓ < cap only
   collects pairs whose true combination is ℓ, and saturation never
   moves mass below the cap — for [+] a saturated operand forces the
   sum ≥ cap, and for [*] either the other operand is 0 (row 0 either
   way) or the product stays ≥ cap. Consumers reading only rows
   [< cap] (Dup reads 0 and 1 with cap 2) see bit-identical counts,
   while the accumulator keeps at most [cap + 1] rows instead of one
   per answer. *)
let saturating cap op =
  match cap with
  | None -> op
  | Some c -> fun l1 l2 -> Stdlib.min c (op l1 l2)

let pad_table p t =
  if p = 0 then t else { n = t.n + p; entries = IntMap.map (Tables.pad p) t.entries }

(* [combine] drops all-zero rows as it goes, so equality must not
   distinguish an absent row from an explicit row of zeros. *)
let equal t1 t2 =
  let nonzero m = IntMap.filter (fun _ c -> not (B.is_zero (Tables.total c))) m in
  let counts_equal a b = Array.length a = Array.length b && Array.for_all2 B.equal a b in
  t1.n = t2.n && IntMap.equal counts_equal (nonzero t1.entries) (nonzero t2.entries)

(* The Figure-2 template instantiated with answer-count tables. Boolean
   sub-queries are the leaves (their count is their satisfaction); the
   free-root requirement makes sibling blocks' answer sets disjoint, so
   [ℓ] adds under union and multiplies under cross product. The context
   is the cap. *)
module Alg = struct
  type table = t
  type ctx = int option

  let of_sat sat =
    let n = Array.length sat - 1 in
    { n; entries = IntMap.empty |> add_entry 1 sat |> add_entry 0 (Tables.complement n sat) }

  let leaf _ q db =
    if Cq.is_boolean q then Some (fun () -> of_sat (Boolean_dp.counts q db)) else None

  let connected_leaf _ _ _ = None
  let empty _ _ = assert false (* non-Boolean queries have atoms *)
  let root_mode = `Free_root
  let root_error = "Count_dp: query is not q-hierarchical: "

  let neutral = neutral_union
  let union cap = combine (saturating cap ( + ))
  let merge cap ~root:_ blocks =
    List.fold_left (fun acc (_, _, t) -> union cap acc t) neutral blocks

  let combine cap _ _ comps =
    let op = saturating cap ( * ) in
    List.fold_left (fun acc (_, _, table) -> combine op acc (table ())) neutral_cross
      comps

  let pad _ p t = pad_table p t

  let diff t rm =
    { n = rm.n;
      entries = IntMap.merge (fun _ -> Tables.variant_diff_row rm.n) t.entries rm.entries }

  let leaf_removals _ q db _ =
    List.map (fun (f, rm) -> (f, of_sat rm)) (Boolean_dp.removals q db)
end

module E = Engine.Pass (Alg)

let answer_counts ?cap q db = E.eval_top cap q db
let variants ?cap q db = E.variants cap q db
