(* Nearest-rank percentiles with a sample floor: a percentile is only
   reported when at least [min_beyond] samples lie beyond it, so no
   metric rests on a handful of samples. *)

let min_beyond = 10

let rank p n = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))
let beyond p n = n - rank p n

type pct = { p : float; value : float; count : int; beyond : int }

(* [None] when the floor rule fails (or there are no samples). *)
let percentile p samples =
  let n = Array.length samples in
  if n = 0 || beyond p n < min_beyond then None
  else begin
    let s = Array.copy samples in
    Array.sort compare s;
    Some { p; value = s.(rank p n - 1); count = n; beyond = beyond p n }
  end

(* Plain median of a few repetitions (set-up time), not a latency
   percentile: the floor rule does not apply. *)
let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
