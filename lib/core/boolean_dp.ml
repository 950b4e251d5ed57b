module B = Aggshap_arith.Bigint
module Cq = Aggshap_cq.Cq
module Decompose = Aggshap_cq.Decompose
module Database = Aggshap_relational.Database

type memo = Tables.counts Memo.t

let create_memo () = Memo.create ()
let memo_stats = Memo.stats

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

  let memo_prefix () = ""
  let leaf () _q _db = None

  let connected_leaf () q db =
    if Decompose.is_ground q then Some (ground_case q db) else None

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
end

module E = Engine.Make (Alg)

let counts ?memo q db = E.eval_top ?memo () q db

let shapley ?(score = Aggshap_arith.Score.Shapley) ?memo q db f =
  Sumk.score_of_db_fn ~score (fun db -> Tables.to_rationals (counts ?memo q db)) db f
