let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let naive ~freq ~weight_sum =
  if freq <= 0 then 0.0
  else if weight_sum <= float_of_int freq then 1.0
  else clamp01 (float_of_int freq /. weight_sum)

let benedetti_franconi ~freq ~weight_sum =
  if freq <= 0 then 0.0
  else
    let f = float_of_int freq in
    if weight_sum <= f then 1.0 /. f
    else
      let p = f /. weight_sum in
      let q = p /. (1.0 -. p) in
      let risk =
        match freq with
        | 1 -> q *. log (1.0 /. p)
        | 2 -> q -. ((q *. q) *. log (1.0 /. p))
        | _ -> p /. (f -. (1.0 -. p))
      in
      clamp01 risk

let monte_carlo ~seed ~samples ~freq ~weight_sum =
  if freq <= 0 then 0.0
  else if samples <= 0 then invalid_arg "Estimator.monte_carlo: samples <= 0"
  else
    let f = float_of_int freq in
    if weight_sum <= f then 1.0 /. f
    else begin
      let rng =
        Rng.keyed ~seed [| Int64.of_int freq; Int64.bits_of_float weight_sum |]
      in
      let p = f /. weight_sum in
      let acc = ref 0.0 in
      for _ = 1 to samples do
        (* Posterior of the population frequency given the sample frequency
           under the negative-binomial model: F = f + NegBin(f, p). *)
        let extra = Distribution.negative_binomial rng ~r:f ~p in
        acc := !acc +. (1.0 /. float_of_int (freq + extra))
      done;
      clamp01 (!acc /. float_of_int samples)
    end

let global_risk risks = Array.fold_left ( +. ) 0.0 risks

let cluster_risk risks =
  let survive = Array.fold_left (fun acc r -> acc *. (1.0 -. clamp01 r)) 1.0 risks in
  1.0 -. survive
