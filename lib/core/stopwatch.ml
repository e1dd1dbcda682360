(* Linear-interpolated percentile over a copy of the samples; [p] in
   [0, 100].  NaN on an empty array rather than an exception — latency
   reports degrade gracefully when a run produced no samples. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let rank = p /. 100. *. float_of_int (n - 1) in
    let rank = Float.max 0. (Float.min rank (float_of_int (n - 1))) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let w = rank -. float_of_int lo in
      (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)
    end
  end
