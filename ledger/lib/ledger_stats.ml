(* Order statistics and the rules that turn two sets of runs into a
   verdict. Quartiles follow Python's [statistics.quantiles(xs, n=4)]
   (its default "exclusive" method), so a spread computed here matches
   one computed by any Python consumer of the same result files. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Ledger_stats.quartiles: no samples";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m

(* What one run reports about its requests. Timing noise on a shared
   host only ever adds time — another tenant slows this process for
   seconds at a time, never speeds it up — so each request kind (requests
   doing identical work) is represented by its lower decile over the run,
   an estimate of its uninterfered latency that does not rest on a single
   sample. The run's p50 and p90 are then taken over the request mix, each
   request carrying its kind's lower decile, and its rate is the number of
   requests over the time the mix takes at those latencies. *)
type latency = { rate : float; p50_ms : float; p90_ms : float; count : int }

let summary kinds =
  let typical xs = Array.make (Array.length xs) (Stats.percentile 10. xs) in
  let mix = Array.concat (List.map typical (List.filter (fun xs -> xs <> [||]) kinds)) in
  if mix = [||] then invalid_arg "Ledger_stats.summary: no samples";
  { rate = float_of_int (Array.length mix) /. Array.fold_left ( +. ) 0. mix;
    p50_ms = 1e3 *. Stats.percentile 50. mix;
    p90_ms = 1e3 *. Stats.percentile 90. mix;
    count = Array.length mix }

type better = Higher | Lower

let string_of_better = function Higher -> "higher" | Lower -> "lower"

(* Relative change of [change] against [base] in the bad direction:
   positive means worse. *)
let worsening better ~base ~change =
  if base = 0. then if change = base then 0. else infinity
  else
    match better with
    | Lower -> (change -. base) /. Float.abs base
    | Higher -> (base -. change) /. Float.abs base

type wins = { change_wins : int; base_wins : int; ties : int }

(* Runs are paired in order (the i-th run of each side), up to the shorter
   side; ties count for neither. *)
let pair_wins better ~base ~change =
  let n = min (Array.length base) (Array.length change) in
  let cw = ref 0 and bw = ref 0 in
  for i = 0 to n - 1 do
    let b = base.(i) and c = change.(i) in
    if c <> b then if (better = Lower) = (c < b) then incr cw else incr bw
  done;
  { change_wins = !cw; base_wins = !bw; ties = n - !cw - !bw }

type verdict = Improved | Regressed | Unchanged | Unresolved | Mismatch

let string_of_verdict = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Mismatch -> "mismatch"

(* Every run of [change] reads better than every run of [base]. *)
let dominates better ~base ~change =
  let lo xs = Array.fold_left Float.min infinity xs
  and hi xs = Array.fold_left Float.max neg_infinity xs in
  match better with
  | Lower -> hi change < lo base
  | Higher -> lo change > hi base

(* The comparison rules:
   - an exact count must read the same in every run of both sides,
     else [Mismatch];
   - a timing whose run-to-run spread (the wider side's IQR over median)
     exceeds its bound is [Unresolved], unless every change run beats
     every base run;
   - it is [Regressed] when the change's median is worse than the base's
     by more than the bound;
   - it is [Improved] when the change wins at least nine tenths of the
     pairs and the medians differ by more than the base's own spread;
   - otherwise [Unchanged]. *)
let judge ~better ~bound ~exact ~base ~change =
  if Array.length base = 0 || Array.length change = 0 then
    invalid_arg "Ledger_stats.judge: a side has no runs";
  if exact then begin
    let v = base.(0) in
    if Array.for_all (( = ) v) base && Array.for_all (( = ) v) change then Unchanged
    else Mismatch
  end
  else begin
    let mb = median base and mc = median change in
    let worse = worsening better ~base:mb ~change:mc in
    let noise = Float.max (spread base) (spread change) in
    let w = pair_wins better ~base ~change in
    let pairs = w.change_wins + w.base_wins + w.ties in
    let wins_enough = float_of_int w.change_wins >= 0.9 *. float_of_int pairs in
    let beyond_noise = -.worse > spread base in
    if noise > bound && not (dominates better ~base ~change) then Unresolved
    else if worse > bound then Regressed
    else if pairs > 0 && wins_enough && beyond_noise then Improved
    else Unchanged
  end
