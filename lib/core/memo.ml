type stats = {
  hits : int;
  misses : int;
}

let merge_stats a b = { hits = a.hits + b.hits; misses = a.misses + b.misses }

let stats_to_string s = Printf.sprintf "%d hits / %d misses" s.hits s.misses

type 'v t = {
  tbl : (string, 'v) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { tbl = Hashtbl.create 256; lock = Mutex.create (); hits = 0; misses = 0 }

let stats t =
  Mutex.lock t.lock;
  let s = { hits = t.hits; misses = t.misses } in
  Mutex.unlock t.lock;
  s

(* The lock is never held while [compute] runs, so two domains missing
   the same key may both compute it; the table keeps one copy and both
   results are equal (the cached values are pure functions of the key).
   Cached values must be immutable after construction — every DP table
   in this library is. *)
let find_or_compute memo ~key compute =
  match memo with
  | None -> compute ()
  | Some t ->
    let key = key () in
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.tbl key with
     | Some v ->
       t.hits <- t.hits + 1;
       Mutex.unlock t.lock;
       v
     | None ->
       t.misses <- t.misses + 1;
       Mutex.unlock t.lock;
       let v = compute () in
       Mutex.lock t.lock;
       if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key v;
       Mutex.unlock t.lock;
       v)
