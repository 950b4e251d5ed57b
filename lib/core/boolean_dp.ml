module B = Aggshap_arith.Bigint
module Cq = Aggshap_cq.Cq
module Decompose = Aggshap_cq.Decompose
module Database = Aggshap_relational.Database

(* A ground connected component is a single variable-free atom. *)
let ground_case q db =
  match q.Cq.body with
  | [ atom ] ->
    let fact =
      { Aggshap_relational.Fact.rel = atom.Cq.rel;
        args =
          Array.map
            (function
              | Cq.Const v -> v
              | Cq.Var x -> invalid_arg ("Boolean_dp: ground case with variable " ^ x))
            atom.Cq.terms }
    in
    (match Database.provenance db fact with
     | Some Database.Exogenous -> Tables.pad (Database.endo_size db) [| B.one |]
     | Some Database.Endogenous ->
       (* The fact itself must be chosen; the other endogenous facts of
          [db] (equal-looking ones cannot exist) are free choices. *)
       Tables.pad (Database.endo_size db - 1) [| B.zero; B.one |]
     | None -> Tables.zeros (Database.endo_size db))
  | _ -> invalid_arg "Boolean_dp: ground component with several atoms"

(* The Figure-2 template instantiated with satisfaction counts: ground
   atoms are base cases, disconnected queries multiply (conjunction over
   disjoint fact sets), and a connected query partitions by a root
   variable — for Boolean satisfaction, the query holds iff {e some}
   block holds, so the blocks' complements convolve. *)
module Alg = struct
  type table = Tables.counts
  type ctx = unit

  let leaf () _q _db = None

  let connected_leaf () q db =
    if Decompose.is_ground q then Some (fun () -> ground_case q db) else None

  let empty () db = Tables.full (Database.endo_size db)
  let root_mode = `Any_root
  let root_error = "Boolean_dp: query is not hierarchical (no root variable): "

  let merge () ~root:_ blocks =
    let false_counts =
      Tables.convolve_many
        (List.map
           (fun (_, block, t) -> Tables.complement (Database.endo_size block) t)
           blocks)
    in
    let n_blocks = Array.length false_counts - 1 in
    Tables.complement n_blocks false_counts

  let combine () _q _db comps =
    Tables.convolve_many (List.map (fun (_, _, table) -> table ()) comps)

  let pad () p t = Tables.pad p t

  (* The empty block is never satisfied. *)
  let neutral = [| B.zero |]

  let complement t = Tables.complement (Array.length t - 1) t

  (* In complement space the union is a convolution: the union fails iff
     both sides fail. *)
  let union () t1 t2 = complement (Tables.convolve (complement t1) (complement t2))
  let diff = Tables.variant_diff
  let leaf_removals () q db _ = Engine.each_removal db (ground_case q)
end

module E = Engine.Pass (Alg)

let counts q db = E.eval_top () q db
let removals q db = E.removals () q db

(* A fact in block i has slice sat(F) − sat(G) = P (U L_i (exo − rm)):
   in complement space the union is a convolution with L_i's
   complement, and the complements of the two variants differ by
   −(exo − rm), so the two signs cancel. *)
let slices q db =
  let s = E.split () q db in
  List.concat_map
    (fun (l, vs) ->
      let kernel = Tables.pad s.Engine.pad (Alg.complement l) in
      List.map (fun (v : _ Engine.variant) -> (v.fact, Tables.convolve kernel v.diff)) vs)
    s.Engine.groups

let shapley_all ?(score = Aggshap_arith.Score.Shapley) q db =
  let n = Database.endo_size db in
  List.map
    (fun (f, slice) ->
      (f, Aggshap_arith.Score.finish score ~den:B.one ~n (fun k -> slice.(k))))
    (slices q db)

let shapley ?(score = Aggshap_arith.Score.Shapley) q db f =
  Sumk.score_of_db_fn ~score (fun db -> Tables.to_rationals (counts q db)) db f
