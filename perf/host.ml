(* The speed of the host, measured beside the workload.

   Shared hosts drift: over seconds to minutes one run, on the same
   inputs, can read 30 % or more slower than the run before it, and
   memory-bound code slows more than arithmetic. A fixed kernel that
   mixes what the library spends its time on — integer arithmetic,
   allocation, search in a balanced tree, hashing — and never calls the
   library tracks most of that drift. Run between requests, its median
   time over a run moves with the run's median latency, and the
   end-to-end times are reported scaled to the speed at which the kernel
   takes [nominal_ms]: a change to the library shows in full, most of
   the host's drift does not. perf/README.md gives the measurements. *)

module Int_map = Map.Make (Int)

let keys = Array.init 4096 (fun i -> (i * 7919) land 65535)
let tree = Array.fold_left (fun m k -> Int_map.add k k m) Int_map.empty keys

let table =
  let h = Hashtbl.create 8192 in
  Array.iter (fun k -> Hashtbl.replace h k k) keys;
  h

(* Four parts of roughly equal time. Only the second allocates: 1,000
   map nodes, well inside the minor heap. *)
let kernel () =
  let s = ref 0 in
  for i = 1 to 100_000 do
    s := ((!s * 31) + i) land 0xFFFFFF
  done;
  let m = ref Int_map.empty in
  for i = 0 to 999 do
    m := Int_map.add keys.(i) i !m
  done;
  s := !s + Int_map.cardinal !m;
  for i = 0 to 999 do
    s := !s + Int_map.find keys.((i * 31) land 4095) tree
  done;
  for i = 0 to 3499 do
    s := !s + Hashtbl.find table keys.((i * 31) land 4095)
  done;
  !s

(* The kernel's median time on a calm 2-vCPU Xeon host at 2.0 GHz. *)
let nominal_ms = 0.57

(* Kernel times of this process, newest first. *)
let samples = ref []
let next_ns = ref 0L
let interval_ns = 200_000_000L

let sample () =
  let t0 = Trace.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Trace.now_ns () in
  samples := Trace.ms_between t0 t1 :: !samples;
  next_ns := Int64.add t1 interval_ns

(* Samples if [interval_ns] has passed since the last sample: called
   between requests, it spends about 0.3 % of the window. *)
let tick () = if Int64.compare (Trace.now_ns ()) !next_ns >= 0 then sample ()

let kernel_ms () =
  if !samples = [] then sample ();
  Option.get (Stats.median (Stats.sort !samples))

(* Multiply a time by this to report it at the nominal speed. *)
let scale () = nominal_ms /. kernel_ms ()
