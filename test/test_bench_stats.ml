(* Unit tests for the benchmark's nearest-rank percentile
   ([Stats.percentile], perf/stats.ml), which the load generator reads
   its latency percentiles from.

   The nearest-rank formula [ceil (p * n) - 1, clamped] is easy to get
   wrong at the small sample counts loadgen actually sees (a client
   that issues one open/close pair produces 1-sample series): a naive
   rounding raises or reads out of bounds. These pins keep the
   function total and monotone. *)

let feq msg expected actual = Alcotest.(check (option (float 1e-12))) msg (Some expected) actual

let test_single_sample () =
  (* A 1-sample run must report that sample as every percentile. *)
  let one = [| 0.25 |] in
  List.iter
    (fun p -> feq (Printf.sprintf "p=%g of singleton" p) 0.25 (Stats.percentile one p))
    [ 0.0; 0.01; 0.5; 0.9; 0.99; 1.0 ]

let test_empty () =
  List.iter
    (fun p ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "p=%g of empty" p) None (Stats.percentile [||] p))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_two_samples () =
  let two = [| 1.0; 2.0 |] in
  feq "p50 of two is the lower" 1.0 (Stats.percentile two 0.50);
  feq "p99 of two is the upper" 2.0 (Stats.percentile two 0.99);
  feq "p0 clamps to the first" 1.0 (Stats.percentile two 0.0);
  feq "p100 is the last" 2.0 (Stats.percentile two 1.0)

let test_hundred_samples () =
  (* 1.0 .. 100.0: nearest-rank percentiles are exactly the index. *)
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  feq "p50 of 1..100" 50.0 (Stats.percentile samples 0.50);
  feq "p99 of 1..100" 99.0 (Stats.percentile samples 0.99);
  feq "p1 of 1..100" 1.0 (Stats.percentile samples 0.01);
  feq "p100 of 1..100" 100.0 (Stats.percentile samples 1.0)

let test_monotone_in_p () =
  let samples = Array.init 17 (fun i -> float_of_int (i * i)) in
  let ps = List.init 101 (fun i -> float_of_int i /. 100.0) in
  let rec go last = function
    | [] -> ()
    | p :: rest ->
      let v = Option.get (Stats.percentile samples p) in
      Alcotest.(check bool)
        (Printf.sprintf "non-decreasing at p=%g" p)
        true (v >= last);
      go v rest
  in
  go neg_infinity ps

let () =
  Alcotest.run "bench_stats"
    [ ( "percentile",
        [ Alcotest.test_case "single sample" `Quick test_single_sample;
          Alcotest.test_case "empty series" `Quick test_empty;
          Alcotest.test_case "two samples" `Quick test_two_samples;
          Alcotest.test_case "hundred samples" `Quick test_hundred_samples;
          Alcotest.test_case "monotone in p" `Quick test_monotone_in_p;
        ] );
    ]
