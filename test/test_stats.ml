(* Tests for the statistics substrate: RNG determinism, special functions,
   distribution moments, risk estimators, descriptive statistics. *)

module S = Vadasa_stats

let rng () = S.Rng.create ~seed:42

let test_rng_deterministic () =
  let a = S.Rng.create ~seed:7 and b = S.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (S.Rng.next_int64 a) (S.Rng.next_int64 b)
  done

(* SplitMix64's reference outputs for seed 0 (Steele, Lea & Flood 2014;
   the same stream as Java's SplittableRandom seeded with 0). *)
let test_rng_reference_vector () =
  let r = S.Rng.create ~seed:0 in
  List.iter
    (fun expected -> Alcotest.(check int64) "splitmix64" expected (S.Rng.next_int64 r))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL ];
  (* [copy] replays the stream; a [split] child is seeded with the
     parent's next output, all 64 bits of it. *)
  let a = S.Rng.create ~seed:0 in
  let b = S.Rng.copy a in
  Alcotest.(check int64) "copy replays" (S.Rng.next_int64 a) (S.Rng.next_int64 b);
  let parent = S.Rng.create ~seed:0 in
  let child = S.Rng.split parent in
  Alcotest.(check int64) "split child" 0xA706DD2F4D197E6FL (S.Rng.next_int64 child);
  Alcotest.(check int64) "parent advanced" 0x6E789E6AA1B965F4L (S.Rng.next_int64 parent)

(* [keyed] folds each key word in with one SplitMix64 step (xor, add the
   golden gamma, mix), then runs the stream from there. These are the
   first outputs for the key the Monte-Carlo estimator uses for f = 1,
   ŵ = 20 under seed 3, computed from that definition independently. *)
let test_rng_keyed_reference_vector () =
  let key = [| 1L; Int64.bits_of_float 20.0 |] in
  Alcotest.(check int64) "weight bits" 0x4034000000000000L key.(1);
  let r = S.Rng.keyed ~seed:3 key in
  List.iter
    (fun expected -> Alcotest.(check int64) "keyed splitmix64" expected (S.Rng.next_int64 r))
    [ 0xA597EDC2D07AC4F3L; 0xC7608AD13F374180L; 0x61987D4E865DA738L; 0x4143509978445575L ];
  (* A stream depends on the seed and on every key word. *)
  let first seed key = S.Rng.next_int64 (S.Rng.keyed ~seed key) in
  Alcotest.(check bool) "seed matters" false (first 3 key = first 4 key);
  Alcotest.(check bool) "key matters" false (first 3 key = first 3 [| 2L; key.(1) |])

let test_rng_float_range () =
  let r = rng () in
  for _ = 1 to 1000 do
    let x = S.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_bounds () =
  let r = rng () in
  for _ = 1 to 1000 do
    let x = S.Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_rng_split_independent () =
  let parent = rng () in
  let child = S.Rng.split parent in
  let a = S.Rng.next_int64 child and b = S.Rng.next_int64 parent in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_uniformity () =
  let r = rng () in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = S.Rng.int r 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (abs_float (frac -. 0.1) < 0.01))
    counts

let test_weighted_index () =
  let r = rng () in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = S.Rng.weighted_index r [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "heaviest dominates" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  let frac = float_of_int counts.(2) /. 30_000.0 in
  Alcotest.(check bool) "~0.7 mass" true (abs_float (frac -. 0.7) < 0.03)

let test_log_gamma () =
  (* Γ(n) = (n-1)! *)
  Alcotest.(check (float 1e-9)) "Γ(1)" 0.0 (S.Special.log_gamma 1.0);
  Alcotest.(check (float 1e-9)) "Γ(5)=24" (log 24.0) (S.Special.log_gamma 5.0);
  Alcotest.(check (float 1e-6)) "Γ(0.5)=√π"
    (log (sqrt Float.pi))
    (S.Special.log_gamma 0.5)

let test_log_factorial_choose () =
  Alcotest.(check (float 1e-9)) "10!" (log 3628800.0) (S.Special.log_factorial 10);
  Alcotest.(check (float 1e-9)) "C(5,2)=10" (log 10.0) (S.Special.log_choose 5 2);
  Alcotest.(check (float 0.0)) "C(5,9) impossible" neg_infinity
    (S.Special.log_choose 5 9)

let test_erf_normal_cdf () =
  Alcotest.(check (float 1e-6)) "erf(0)" 0.0 (S.Special.erf 0.0);
  Alcotest.(check (float 1e-3)) "Φ(0)=0.5" 0.5
    (S.Special.normal_cdf ~mean:0.0 ~std:1.0 0.0);
  Alcotest.(check (float 1e-3)) "Φ(1.96)≈0.975" 0.975
    (S.Special.normal_cdf ~mean:0.0 ~std:1.0 1.96)

let sample_mean n f =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_poisson_mean () =
  let r = rng () in
  let m = sample_mean 20_000 (fun () -> float_of_int (S.Distribution.poisson r ~mean:4.0)) in
  Alcotest.(check bool) "mean ≈ 4" true (abs_float (m -. 4.0) < 0.1)

let test_gamma_mean () =
  let r = rng () in
  let m = sample_mean 20_000 (fun () -> S.Distribution.gamma r ~shape:3.0 ~scale:2.0) in
  Alcotest.(check bool) "mean ≈ 6" true (abs_float (m -. 6.0) < 0.15)

let test_negative_binomial_mean () =
  let r = rng () in
  (* mean = r(1-p)/p = 5 * 0.5 / 0.5 = 5 *)
  let m =
    sample_mean 20_000 (fun () ->
        float_of_int (S.Distribution.negative_binomial r ~r:5.0 ~p:0.5))
  in
  Alcotest.(check bool) "mean ≈ 5" true (abs_float (m -. 5.0) < 0.2)

let test_neg_binomial_pmf_sums () =
  let total = ref 0.0 in
  for k = 0 to 200 do
    total := !total +. exp (S.Distribution.neg_binomial_log_pmf ~r:3.0 ~p:0.4 k)
  done;
  Alcotest.(check (float 1e-6)) "pmf sums to 1" 1.0 !total

let test_binomial_bounds () =
  let r = rng () in
  for _ = 1 to 500 do
    let x = S.Distribution.binomial r ~n:20 ~p:0.3 in
    Alcotest.(check bool) "0<=x<=n" true (x >= 0 && x <= 20)
  done

let test_dirichlet_simplex () =
  let r = rng () in
  let v = S.Distribution.dirichlet r ~alpha:[| 1.0; 2.0; 3.0 |] in
  let total = Array.fold_left ( +. ) 0.0 v in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total;
  Array.iter (fun x -> Alcotest.(check bool) "non-negative" true (x >= 0.0)) v

let test_zipf_weights () =
  let w = S.Distribution.zipf_weights ~n:4 ~s:1.0 in
  Alcotest.(check (float 1e-9)) "first" 1.0 w.(0);
  Alcotest.(check (float 1e-9)) "fourth" 0.25 w.(3)

(* --- estimators --------------------------------------------------------- *)

let test_naive_risk () =
  Alcotest.(check (float 1e-9)) "f/w" 0.01
    (S.Estimator.naive ~freq:1 ~weight_sum:100.0);
  Alcotest.(check (float 1e-9)) "degenerate" 1.0
    (S.Estimator.naive ~freq:3 ~weight_sum:2.0);
  Alcotest.(check (float 1e-9)) "zero freq" 0.0
    (S.Estimator.naive ~freq:0 ~weight_sum:10.0)

let test_benedetti_franconi_bounds () =
  (* The BF estimator is a posterior mean of 1/F, so it must stay within
     (0, 1] and decrease with the weight sum. *)
  let r1 = S.Estimator.benedetti_franconi ~freq:1 ~weight_sum:10.0 in
  let r2 = S.Estimator.benedetti_franconi ~freq:1 ~weight_sum:100.0 in
  Alcotest.(check bool) "bounded" true (r1 > 0.0 && r1 <= 1.0);
  Alcotest.(check bool) "monotone in weight" true (r2 < r1)

let test_benedetti_franconi_unique_riskier () =
  let unique = S.Estimator.benedetti_franconi ~freq:1 ~weight_sum:50.0 in
  let doubleton = S.Estimator.benedetti_franconi ~freq:2 ~weight_sum:50.0 in
  Alcotest.(check bool) "f=1 riskier than f=2" true (unique > doubleton)

let test_monte_carlo_close_to_bf () =
  let mc =
    S.Estimator.monte_carlo ~seed:42 ~samples:20_000 ~freq:1 ~weight_sum:20.0
  in
  let bf = S.Estimator.benedetti_franconi ~freq:1 ~weight_sum:20.0 in
  Alcotest.(check bool) "within tolerance" true (abs_float (mc -. bf) < 0.02)

let test_cluster_risk () =
  Alcotest.(check (float 1e-9)) "independent union" 0.75
    (S.Estimator.cluster_risk [| 0.5; 0.5 |]);
  Alcotest.(check (float 1e-9)) "single" 0.3 (S.Estimator.cluster_risk [| 0.3 |]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (S.Estimator.cluster_risk [||])

(* --- descriptive -------------------------------------------------------- *)

let test_descriptive () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (S.Descriptive.mean xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (S.Descriptive.median xs);
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (S.Descriptive.variance xs);
  let lo, hi = S.Descriptive.min_max xs in
  Alcotest.(check (float 0.0)) "min" 1.0 lo;
  Alcotest.(check (float 0.0)) "max" 4.0 hi;
  Alcotest.(check (float 1e-9)) "q0" 1.0 (S.Descriptive.quantile xs 0.0);
  Alcotest.(check (float 1e-9)) "q1" 4.0 (S.Descriptive.quantile xs 1.0)

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0 |] in
  let h = S.Descriptive.histogram ~bins:2 xs in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "all points" 4 (c0 + c1)

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"quantiles are monotone in q" ~count:100
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 50) (float_bound_inclusive 100.0))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (xs, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      S.Descriptive.quantile xs lo <= S.Descriptive.quantile xs hi +. 1e-9)

let prop_naive_risk_bounded =
  QCheck2.Test.make ~name:"naive risk stays in [0,1]" ~count:200
    QCheck2.Gen.(pair (int_range 0 50) (float_range 0.1 1000.0))
    (fun (freq, weight_sum) ->
      let r = S.Estimator.naive ~freq ~weight_sum in
      r >= 0.0 && r <= 1.0)

let prop_bf_risk_bounded =
  QCheck2.Test.make ~name:"Benedetti-Franconi risk stays in [0,1]" ~count:200
    QCheck2.Gen.(pair (int_range 1 50) (float_range 0.1 1000.0))
    (fun (freq, weight_sum) ->
      let r = S.Estimator.benedetti_franconi ~freq ~weight_sum in
      r >= 0.0 && r <= 1.0)

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "reference vector" `Quick test_rng_reference_vector;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "keyed reference vector" `Quick
            test_rng_keyed_reference_vector;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "weighted index" `Slow test_weighted_index;
        ] );
      ( "special",
        [
          Alcotest.test_case "log gamma" `Quick test_log_gamma;
          Alcotest.test_case "factorial and choose" `Quick test_log_factorial_choose;
          Alcotest.test_case "erf / normal cdf" `Quick test_erf_normal_cdf;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "poisson mean" `Slow test_poisson_mean;
          Alcotest.test_case "gamma mean" `Slow test_gamma_mean;
          Alcotest.test_case "negative binomial mean" `Slow
            test_negative_binomial_mean;
          Alcotest.test_case "negative binomial pmf" `Quick
            test_neg_binomial_pmf_sums;
          Alcotest.test_case "binomial bounds" `Quick test_binomial_bounds;
          Alcotest.test_case "dirichlet simplex" `Quick test_dirichlet_simplex;
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "naive risk" `Quick test_naive_risk;
          Alcotest.test_case "BF bounds" `Quick test_benedetti_franconi_bounds;
          Alcotest.test_case "BF unique riskier" `Quick
            test_benedetti_franconi_unique_riskier;
          Alcotest.test_case "monte carlo vs BF" `Slow test_monte_carlo_close_to_bf;
          Alcotest.test_case "cluster risk" `Quick test_cluster_risk;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "summary stats" `Quick test_descriptive;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_quantile_monotone; prop_naive_risk_bounded; prop_bf_risk_bounded ] );
    ]
