module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Decompose = Aggshap_cq.Decompose
module Database = Aggshap_relational.Database
module Value = Aggshap_relational.Value
module QMap = Map.Make (Q)

type monoid = {
  op : Q.t -> Q.t -> Q.t;
  unit_ : Q.t;
  descr : string;
}

let plus = { op = Q.add; unit_ = Q.zero; descr = "sum" }

let max_monoid =
  (* The unit must be below every value that occurs; integer constants
     are far smaller than this sentinel. *)
  { op = Q.max; unit_ = Q.of_bigint (B.neg (B.pow (B.of_int 10) 30)); descr = "max" }

let tau m ~vars answer head =
  List.fold_left
    (fun acc v ->
      let idx =
        match List.find_index (String.equal v) head with
        | Some i -> i
        | None -> invalid_arg ("Minmax_monoid.tau: variable " ^ v ^ " not in the head")
      in
      match Value.as_int answer.(idx) with
      | Some n -> m.op acc (Q.of_int n)
      | None -> invalid_arg "Minmax_monoid.tau: non-numeric value")
    m.unit_ vars

(* Table: per subset-size counts keyed by the attainable maximum of the
   monoid over the tracked variables in scope; [empty] counts subsets
   with no answer at all. *)
type table = {
  n : int;
  empty : Tables.counts;
  by_value : Tables.counts QMap.t;
}

let neutral_union = { n = 0; empty = [| B.one |]; by_value = QMap.empty }
let neutral_cross m = { n = 0; empty = [| B.zero |]; by_value = QMap.singleton m.unit_ [| B.one |] }

let pad_table p t =
  if p = 0 then t
  else
    { n = t.n + p;
      empty = Tables.pad p t.empty;
      by_value = QMap.map (Tables.pad p) t.by_value }

let add_key v c map =
  QMap.update v (function None -> Some c | Some c' -> Some (Tables.add c' c)) map

(* Bag-union across root blocks: the maximum of the union is the larger
   of the two sides' maxima (empty counting as bottom). *)
let combine_union t1 t2 =
  let values =
    QMap.fold (fun a _ acc -> QMap.add a () acc) t1.by_value QMap.empty
    |> QMap.fold (fun a _ acc -> QMap.add a () acc) t2.by_value
    |> QMap.bindings |> List.map fst
  in
  let lt1 = ref t1.empty and lt2 = ref t2.empty in
  let by_value =
    List.fold_left
      (fun acc a ->
        let p1 = Option.value (QMap.find_opt a t1.by_value) ~default:(Tables.zeros t1.n) in
        let p2 = Option.value (QMap.find_opt a t2.by_value) ~default:(Tables.zeros t2.n) in
        let le2 = Tables.add !lt2 p2 in
        let counts = Tables.add (Tables.convolve p1 le2) (Tables.convolve !lt1 p2) in
        lt1 := Tables.add !lt1 p1;
        lt2 := le2;
        if B.is_zero (Tables.total counts) then acc else add_key a counts acc)
      QMap.empty values
  in
  { n = t1.n + t2.n; empty = Tables.convolve t1.empty t2.empty; by_value }

(* Cross product: a subset of the product has answers iff both sides do,
   and by monotonicity the maximal composed value is the composition of
   the sides' maxima. *)
let combine_cross m t1 t2 =
  let by_value =
    QMap.fold
      (fun v1 c1 acc ->
        QMap.fold
          (fun v2 c2 acc ->
            let c = Tables.convolve c1 c2 in
            if B.is_zero (Tables.total c) then acc else add_key (m.op v1 v2) c acc)
          t2.by_value acc)
      t1.by_value QMap.empty
  in
  let nonempty1 = Tables.sub (Tables.full t1.n) t1.empty in
  let nonempty2 = Tables.sub (Tables.full t2.n) t2.empty in
  let empty =
    Tables.sub (Tables.full (t1.n + t2.n)) (Tables.convolve nonempty1 nonempty2)
  in
  { n = t1.n + t2.n; empty; by_value }

(* Lift a sub-table after substituting a tracked root variable by [a]:
   every attainable maximum composes with a's value. *)
let lift m a t =
  { t with
    by_value =
      QMap.fold (fun v c acc -> add_key (m.op a v) c acc) t.by_value QMap.empty }

let ground m q db =
  match q.Cq.body with
  | [ atom ] ->
    let fact =
      { Aggshap_relational.Fact.rel = atom.Cq.rel;
        args =
          Array.map
            (function
              | Cq.Const v -> v
              | Cq.Var x -> invalid_arg ("Minmax_monoid: ground atom with variable " ^ x))
            atom.Cq.terms }
    in
    (* The key contribution of a fully-substituted component is the
       monoid unit; tracked values were composed in by [lift]. *)
    (match Database.provenance db fact with
     | Some Database.Exogenous ->
       { n = 0; empty = [| B.zero |]; by_value = QMap.singleton m.unit_ [| B.one |] }
     | Some Database.Endogenous ->
       { n = 1; empty = [| B.one; B.zero |]; by_value = QMap.singleton m.unit_ [| B.zero; B.one |] }
     | None -> { n = 0; empty = [| B.one |]; by_value = QMap.empty })
  | _ -> invalid_arg "Minmax_monoid: ground component with several atoms"

(* The Figure-2 template instantiated with monoid-valued tables. Root
   blocks combine by bag-union, with the root value composed in by
   [lift] when the root is tracked; components combine by monotone
   cross product. *)
module Alg = struct
  type nonrec table = table
  type ctx = { m : monoid; tracked : string list }

  let memo_prefix _ = ""
  let leaf _ _ _ = None

  let connected_leaf ctx q db =
    if Decompose.is_ground q then Some (fun () -> ground ctx.m q db) else None

  let empty ctx _ = neutral_cross ctx.m
  let root_mode = `Any_root
  let root_error = "Minmax_monoid: query is not all-hierarchical: "

  let merge ctx ~root blocks =
    let is_tracked = List.mem root ctx.tracked in
    List.fold_left
      (fun acc (a, _, sub) ->
        let sub =
          if is_tracked then begin
            match Value.as_int a with
            | Some n -> lift ctx.m (Q.of_int n) sub
            | None -> invalid_arg "Minmax_monoid: tracked variable over non-numeric value"
          end
          else sub
        in
        combine_union acc sub)
      neutral_union blocks

  let combine ctx _ _ comps =
    List.fold_left
      (fun acc (_, _, table) -> combine_cross ctx.m acc (table ()))
      (neutral_cross ctx.m) comps

  let pad _ p t = pad_table p t
end

module E = Engine.Make (Alg)

let table m tracked q db = E.eval { Alg.m; tracked } q db

let check m ~vars q =
  if not (Hierarchy.is_all_hierarchical q) then
    invalid_arg ("Minmax_monoid: query is not all-hierarchical: " ^ Cq.to_string q);
  List.iter
    (fun v ->
      if not (Cq.is_free q v) then
        invalid_arg ("Minmax_monoid: tracked variable " ^ v ^ " is not free"))
    vars;
  ignore m

let sum_k m ~vars q db =
  check m ~vars q;
  let db_rel, pad = Decompose.relevant_part q db in
  let t = pad_table pad (table m vars q db_rel) in
  Tables.weighted_sum t.n (QMap.bindings t.by_value)

let shapley m ~vars q db f =
  Sumk.score_of_db_fn ~score:Aggshap_arith.Score.Shapley (sum_k m ~vars q) db f
