type provenance =
  | Endogenous
  | Exogenous

module FactMap = Map.Make (Fact)
module ValueMap = Map.Make (Value)
module StringMap = Map.Make (String)
module StringSet = Set.Make (String)

(* One relation's facts, with its cardinality and endogenous count
   maintained eagerly so [restrict_relations] can move whole segments
   without recounting them. *)
type segment = {
  sfacts : provenance FactMap.t;
  ssize : int;
  sendo : int;
}

(* A secondary index: the facts of one relation keyed by the value they
   hold at one argument position, each group carrying provenance so a
   probe can stand in for the segment itself. *)
type index = provenance FactMap.t ValueMap.t

module IdxKey = struct
  type t = string * int

  let compare (r1, p1) (r2, p2) =
    let c = String.compare r1 r2 in
    if c <> 0 then c else Int.compare p1 p2
end

module IdxMap = Map.Make (IdxKey)

(* Facts are split into per-relation segments; [Fact.compare] orders by
   relation name first, so iterating segments in [StringMap] order and
   facts in [FactMap] order inside each visits the global [Fact.compare]
   order — every list view and [fold]/[iter] is unchanged from the
   flat-map representation.

   [idx] memoizes the secondary indexes built so far. The cell holds an
   immutable map, updated by compare-and-set: concurrent domains may
   race to build the same index, in which case one build is discarded —
   a benign lost update, since builds are pure and deterministic. Every
   derived database gets a {e fresh} cell (sharing one would let builds
   against the new value pollute the old), seeded with the parent's
   entries incrementally adjusted by the update. *)
type t = {
  segs : segment StringMap.t;
  size : int;
  endo : int;
  idx : index IdxMap.t Atomic.t;
}

type stats = {
  index_builds : int;
  index_probes : int;
  rel_scans : int;
}

(* Atomic counters, same contract as [Bigint.stats]: exact under
   concurrent domains. *)
let c_index_builds = Atomic.make 0
let c_index_probes = Atomic.make 0
let c_rel_scans = Atomic.make 0

let stats () =
  { index_builds = Atomic.get c_index_builds;
    index_probes = Atomic.get c_index_probes;
    rel_scans = Atomic.get c_rel_scans }

let reset_stats () =
  Atomic.set c_index_builds 0;
  Atomic.set c_index_probes 0;
  Atomic.set c_rel_scans 0

let no_idx () = Atomic.make IdxMap.empty

let empty = { segs = StringMap.empty; size = 0; endo = 0; idx = no_idx () }
let is_empty db = db.size = 0

let find_opt (f : Fact.t) db =
  match StringMap.find_opt f.rel db.segs with
  | None -> None
  | Some seg -> FactMap.find_opt f seg.sfacts

(* Incremental maintenance of one built index entry. Facts too short
   for the position are absent from the index; any atom probing that
   position has a different arity and rejects them anyway. *)
let index_add (f : Fact.t) p pos vmap =
  if pos >= Array.length f.args then vmap
  else
    ValueMap.update f.args.(pos)
      (fun g -> Some (FactMap.add f p (Option.value g ~default:FactMap.empty)))
      vmap

let index_remove (f : Fact.t) pos vmap =
  if pos >= Array.length f.args then vmap
  else
    ValueMap.update f.args.(pos)
      (function
        | None -> None
        | Some g ->
          let g = FactMap.remove f g in
          if FactMap.is_empty g then None else Some g)
      vmap

(* The fresh cell of a database derived by one fact update: the
   parent's built indexes on the fact's relation, adjusted by
   [update_entry] — or carried over stale under the [`Stale_index]
   fault, a forgotten invalidation. Segments are always maintained
   correctly; only probes against an index built before the update go
   wrong. *)
let derive_idx idx (f : Fact.t) update_entry =
  let snapshot = Atomic.get idx in
  (* Fast path: nothing built yet (the common case for the throwaway
     databases the DP layers derive), so there is nothing to adjust —
     and no adjustment closures for the caller to allocate either. *)
  if IdxMap.is_empty snapshot then no_idx ()
  else
    let updated =
      match !Aggshap_arith.Fault.current with
      | `Stale_index -> snapshot
      | _ ->
        IdxMap.mapi
          (fun (rel, pos) vmap ->
            if String.equal rel f.rel then update_entry pos vmap else vmap)
          snapshot
    in
    Atomic.make updated

let empty_seg = { sfacts = FactMap.empty; ssize = 0; sendo = 0 }

(* The update primitives traverse each map once: [Map.update] both
   reports the old binding (snatched into a ref by the closure) and
   produces the new map, where a find-then-add pair would walk twice.
   The seed's flat representation paid one [FactMap] traversal per
   update; the segment split pays one (shorter) [FactMap] traversal
   plus one [StringMap] traversal over the handful of relation names. *)
let add ?(provenance = Endogenous) (f : Fact.t) db =
  let old = ref None in
  let segs =
    StringMap.update f.rel
      (fun seg ->
        let seg = match seg with Some s -> s | None -> empty_seg in
        let sfacts =
          FactMap.update f
            (fun o ->
              old := o;
              Some provenance)
            seg.sfacts
        in
        let fresh = match !old with None -> 1 | Some _ -> 0 in
        let dendo =
          (match provenance with Endogenous -> 1 | Exogenous -> 0)
          - (match !old with Some Endogenous -> 1 | _ -> 0)
        in
        Some { sfacts; ssize = seg.ssize + fresh; sendo = seg.sendo + dendo })
      db.segs
  in
  let old = !old in
  let size = db.size + (match old with None -> 1 | Some _ -> 0) in
  let endo =
    db.endo
    - (match old with Some Endogenous -> 1 | _ -> 0)
    + (match provenance with Endogenous -> 1 | Exogenous -> 0)
  in
  let idx =
    derive_idx db.idx f (fun pos vmap ->
        let vmap =
          match old with None -> vmap | Some _ -> index_remove f pos vmap
        in
        index_add f provenance pos vmap)
  in
  { segs; size; endo; idx }

let of_list entries = List.fold_left (fun db (f, p) -> add ~provenance:p f db) empty entries

let of_facts ?(provenance = Endogenous) facts =
  List.fold_left (fun db f -> add ~provenance f db) empty facts

let remove (f : Fact.t) db =
  let old = ref None in
  let segs =
    StringMap.update f.rel
      (function
        | None -> None
        | Some seg ->
          let sfacts =
            FactMap.update f
              (fun o ->
                old := o;
                None)
              seg.sfacts
          in
          (match !old with
          | None -> Some seg
          | Some p ->
            if FactMap.is_empty sfacts then None
            else
              Some
                { sfacts;
                  ssize = seg.ssize - 1;
                  sendo = (seg.sendo - match p with Endogenous -> 1 | Exogenous -> 0) }))
      db.segs
  in
  match !old with
  | None -> db
  | Some p ->
    { segs;
      size = db.size - 1;
      endo = (db.endo - match p with Endogenous -> 1 | Exogenous -> 0);
      idx = derive_idx db.idx f (index_remove f) }

let set_provenance p (f : Fact.t) db =
  let old = ref None in
  let segs =
    StringMap.update f.rel
      (function
        | None -> None
        | Some seg ->
          let sfacts =
            FactMap.update f
              (function
                | None -> None
                | Some o ->
                  old := Some o;
                  Some p)
              seg.sfacts
          in
          (match !old with
          | None | Some _ when sfacts == seg.sfacts -> Some seg
          | _ ->
            Some
              { seg with
                sfacts;
                sendo = (seg.sendo + match p with Endogenous -> 1 | Exogenous -> -1) }))
      db.segs
  in
  match !old with
  | None -> raise Not_found
  | Some o ->
    if o = p then db
    else
      { segs;
        size = db.size;
        endo = (db.endo + match p with Endogenous -> 1 | Exogenous -> -1);
        idx = derive_idx db.idx f (fun pos vmap -> index_add f p pos vmap) }

let mem f db = find_opt f db <> None
let provenance db f = find_opt f db

(* Right-biased on provenance: folding [b]'s facts over [a] lets [add]
   overwrite, and maintains counters and carried indexes for free. *)
let union a b =
  StringMap.fold
    (fun _ seg acc -> FactMap.fold (fun f p acc -> add ~provenance:p f acc) seg.sfacts acc)
    b.segs a

let filter pred db =
  StringMap.fold
    (fun rel seg acc ->
      let sfacts = FactMap.filter pred seg.sfacts in
      if sfacts == seg.sfacts then
        (* [FactMap.filter] preserves physical equality when every
           binding survives, so the segment — counters included — can
           move wholesale without a recount. *)
        { acc with
          segs = StringMap.add rel seg acc.segs;
          size = acc.size + seg.ssize;
          endo = acc.endo + seg.sendo }
      else if FactMap.is_empty sfacts then acc
      else begin
        let ssize = ref 0 and sendo = ref 0 in
        FactMap.iter
          (fun _ p ->
            incr ssize;
            match p with Endogenous -> incr sendo | Exogenous -> ())
          sfacts;
        let ssize = !ssize and sendo = !sendo in
        { acc with
          segs = StringMap.add rel { sfacts; ssize; sendo } acc.segs;
          size = acc.size + ssize;
          endo = acc.endo + sendo }
      end)
    db.segs
    { segs = StringMap.empty; size = 0; endo = 0; idx = no_idx () }

(* The list views below are built by a single fold each; [fold] ascends
   [Fact.compare] order (relation-major, see the type comment), so the
   accumulated list is reversed once at the end. *)
let fold f db init =
  StringMap.fold (fun _ seg acc -> FactMap.fold f seg.sfacts acc) db.segs init

let iter f db = StringMap.iter (fun _ seg -> FactMap.iter f seg.sfacts) db.segs

let facts db = List.rev (fold (fun f _ acc -> f :: acc) db [])

let endogenous db =
  List.rev (fold (fun f p acc -> if p = Endogenous then f :: acc else acc) db [])

let exogenous db =
  List.rev (fold (fun f p acc -> if p = Exogenous then f :: acc else acc) db [])

let size db = db.size
let endo_size db = db.endo

let relation db name =
  Atomic.incr c_rel_scans;
  match StringMap.find_opt name db.segs with
  | None -> []
  | Some seg -> List.rev (FactMap.fold (fun f _ acc -> f :: acc) seg.sfacts [])

(* Segments are dropped when they empty out, so the key set is exactly
   the inhabited relations — no per-fact scan, no [List.mem]
   accumulator. [StringMap] iterates in ascending name order. *)
let relations db = List.rev (StringMap.fold (fun rel _ acc -> rel :: acc) db.segs [])

(* Whole segments move between the halves — O(relations) map insertions
   plus counter sums, no per-fact test against the name list. *)
let restrict_relations names db =
  let nameset = StringSet.of_list names in
  let move rel seg acc =
    { acc with
      segs = StringMap.add rel seg acc.segs;
      size = acc.size + seg.ssize;
      endo = acc.endo + seg.sendo }
  in
  StringMap.fold
    (fun rel seg (inside, outside) ->
      if StringSet.mem rel nameset then (move rel seg inside, outside)
      else (inside, move rel seg outside))
    db.segs
    ( { segs = StringMap.empty; size = 0; endo = 0; idx = no_idx () },
      { segs = StringMap.empty; size = 0; endo = 0; idx = no_idx () } )

let equal a b =
  a.size = b.size && a.endo = b.endo
  && StringMap.equal (fun sa sb -> FactMap.equal ( = ) sa.sfacts sb.sfacts) a.segs b.segs

let pp fmt db =
  Format.fprintf fmt "@[<v>";
  iter
    (fun f p ->
      Format.fprintf fmt "%a%s@," Fact.pp f
        (match p with Endogenous -> " [endo]" | Exogenous -> " [exo]"))
    db;
  Format.fprintf fmt "@]"

(* {1 Secondary indexes} *)

let build_index db rel pos =
  Atomic.incr c_index_builds;
  match StringMap.find_opt rel db.segs with
  | None -> ValueMap.empty
  | Some seg ->
    FactMap.fold (fun f p vmap -> index_add f p pos vmap) seg.sfacts ValueMap.empty

(* Lookup-or-build, publishing by compare-and-set. On a lost race the
   loop re-reads: either the winner published this very index (reuse
   it) or a different one (merge ours and retry). *)
let get_index db rel pos =
  let key = (rel, pos) in
  match IdxMap.find_opt key (Atomic.get db.idx) with
  | Some vmap -> vmap
  | None ->
    let vmap = build_index db rel pos in
    let rec publish () =
      let snapshot = Atomic.get db.idx in
      match IdxMap.find_opt key snapshot with
      | Some existing -> existing
      | None ->
        if Atomic.compare_and_set db.idx snapshot (IdxMap.add key vmap snapshot) then
          vmap
        else publish ()
    in
    publish ()

let indexed db ~rel ~pos =
  Atomic.incr c_index_probes;
  get_index db rel pos

let probe db ~rel ~pos v =
  Atomic.incr c_index_probes;
  match ValueMap.find_opt v (get_index db rel pos) with
  | None -> []
  | Some g -> List.rev (FactMap.fold (fun f _ acc -> f :: acc) g [])
