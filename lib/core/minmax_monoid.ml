module B = Aggshap_arith.Bigint
module Q = Aggshap_arith.Rational
module Cq = Aggshap_cq.Cq
module Hierarchy = Aggshap_cq.Hierarchy
module Decompose = Aggshap_cq.Decompose
module Value = Aggshap_relational.Value

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

(* The Figure-2 template on Min/Max's (a,k)-tables, keyed by the
   attainable maximum of the monoid over the tracked variables in
   scope. Root blocks combine by bag-union, with the root value
   composed in by [rekey] when the root is tracked; components combine
   by the monotone cross product; a ground component keys on the monoid
   unit, its tracked values having been composed in above it. *)
module Alg = struct
  type table = Minmax.table
  type ctx = { m : monoid; tracked : string list }

  let leaf _ _ _ = None

  let connected_leaf ctx q db =
    if Decompose.is_ground q then
      Some (fun () -> Minmax.ground (fun _ -> ctx.m.unit_) q db)
    else None

  let empty ctx _ =
    Minmax.table_of_values ~n:0 ~empty:[| B.zero |] [ (ctx.m.unit_, [| B.one |]) ]

  let root_mode = `Any_root
  let root_error = "Minmax_monoid: query is not all-hierarchical: "

  let merge ctx ~root blocks =
    let is_tracked = List.mem root ctx.tracked in
    List.fold_left
      (fun acc (a, _, sub) ->
        let sub =
          if is_tracked then begin
            match Value.as_int a with
            | Some n -> Minmax.rekey (ctx.m.op (Q.of_int n)) sub
            | None -> invalid_arg "Minmax_monoid: tracked variable over non-numeric value"
          end
          else sub
        in
        Minmax.combine_union acc sub)
      Minmax.neutral blocks

  let combine ctx _ db comps =
    List.fold_left
      (fun acc (_, _, table) -> Minmax.cross ctx.m.op acc (table ()))
      (empty ctx db) comps

  let pad _ p t = Minmax.pad_table p t
end

module E = Engine.Make (Alg)

let check ~vars q =
  if not (Hierarchy.is_all_hierarchical q) then
    invalid_arg ("Minmax_monoid: query is not all-hierarchical: " ^ Cq.to_string q);
  List.iter
    (fun v ->
      if not (Cq.is_free q v) then
        invalid_arg ("Minmax_monoid: tracked variable " ^ v ^ " is not free"))
    vars

let sum_k m ~vars q db =
  check ~vars q;
  Minmax.sum_of_table (E.eval_top { Alg.m; tracked = vars } q db)

let shapley m ~vars q db f =
  Sumk.score_of_db_fn ~score:Aggshap_arith.Score.Shapley (sum_k m ~vars q) db f
