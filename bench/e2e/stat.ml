(* Sample summaries for benchmark metrics.

   Quantiles interpolate linearly between order statistics (the
   "type 7" estimator), so a quartile of a handful of intervals is
   still a measured value rather than a rank-rounded one. *)

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
}

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

let quantile samples q = quantile_sorted (sorted samples) q

let summarize samples =
  let a = sorted samples in
  let n = Array.length a in
  { n;
    median = quantile_sorted a 0.5;
    q1 = quantile_sorted a 0.25;
    q3 = quantile_sorted a 0.75;
    min = (if n = 0 then nan else a.(0));
    max = (if n = 0 then nan else a.(n - 1)) }
