(* The benchmark's order statistics. Expected quartiles and medians are
   those of Python's statistics.quantiles(data, n=4) and
   statistics.median on the same data. *)

let opt = Alcotest.(option (float 1e-9))
let triple = Alcotest.(option (triple (float 1e-9) (float 1e-9) (float 1e-9)))
let range n = Array.init n (fun i -> float_of_int (i + 1))

let empty () =
  Alcotest.check opt "percentile" None (Stats.percentile [||] 0.5);
  Alcotest.check opt "median" None (Stats.median [||]);
  Alcotest.check triple "quartiles" None (Stats.quartiles [||]);
  Alcotest.(check (option (float 0.0))) "tail" None (Stats.tail_percentile 0)

let one () =
  let a = [| 7.0 |] in
  List.iter (fun p -> Alcotest.check opt "percentile" (Some 7.0) (Stats.percentile a p)) [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.check opt "median" (Some 7.0) (Stats.median a);
  Alcotest.check triple "quartiles" (Some (7.0, 7.0, 7.0)) (Stats.quartiles a);
  Alcotest.(check (option (float 0.0))) "tail" None (Stats.tail_percentile 1)

let ten () =
  let a = range 10 in
  Alcotest.check opt "p0 clamps to the first sample" (Some 1.0) (Stats.percentile a 0.0);
  Alcotest.check opt "p50" (Some 5.0) (Stats.percentile a 0.5);
  Alcotest.check opt "p90" (Some 9.0) (Stats.percentile a 0.9);
  Alcotest.check opt "p99" (Some 10.0) (Stats.percentile a 0.99);
  Alcotest.check opt "median" (Some 5.5) (Stats.median a);
  Alcotest.check triple "quartiles" (Some (2.75, 5.5, 8.25)) (Stats.quartiles a);
  Alcotest.(check int) "beyond p50" 5 (Stats.samples_beyond 10 0.5);
  Alcotest.(check (option (float 0.0))) "no tail with ten beyond" None (Stats.tail_percentile 10)

let thousand () =
  let a = range 1000 in
  Alcotest.check opt "p99 is rank 990" (Some 990.0) (Stats.percentile a 0.99);
  Alcotest.check opt "p50" (Some 500.0) (Stats.percentile a 0.5);
  Alcotest.check opt "p100" (Some 1000.0) (Stats.percentile a 1.0);
  Alcotest.check opt "median" (Some 500.5) (Stats.median a);
  Alcotest.check triple "quartiles" (Some (250.25, 500.5, 750.75)) (Stats.quartiles a);
  Alcotest.(check int) "beyond p99" 10 (Stats.samples_beyond 1000 0.99);
  Alcotest.(check int) "beyond p99.9" 1 (Stats.samples_beyond 1000 0.999);
  Alcotest.(check (option (float 0.0))) "tail" (Some 0.99) (Stats.tail_percentile 1000)

let sort () =
  Alcotest.(check (array (float 0.0))) "ascending" [| 1.0; 2.0; 3.0 |] (Stats.sort [ 3.0; 1.0; 2.0 ]);
  Alcotest.check triple "two samples" (Some (0.5, 2.0, 3.5)) (Stats.quartiles (Stats.sort [ 3.0; 1.0 ]))

let () =
  Alcotest.run "perf_stats"
    [ ( "stats",
        [ Alcotest.test_case "empty" `Quick empty;
          Alcotest.test_case "one sample" `Quick one;
          Alcotest.test_case "ten samples" `Quick ten;
          Alcotest.test_case "a thousand samples" `Quick thousand;
          Alcotest.test_case "sorting" `Quick sort ] ) ]
