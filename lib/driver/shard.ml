(* Sharded collection of one workload's value profile: split ONE workload
   execution into K shards, profile each on its own domain via the pool,
   and merge the results in shard order — so the output is a function of
   the plan only, byte-identical however the shards were scheduled.

   Every shard executes the FULL program but profiles only its icount
   window (lo, hi]. The windows partition the event stream, so merged
   per-point totals and dynamic_instructions equal the serial run's
   exactly on every workload; the cost is K full (but mostly
   uninstrumented) executions plus one uninstrumented pre-run to learn
   the length. *)

type plan = { prog : Asm.program; windows : (int * int) list }

let m_shards = Obs.Metrics.counter "driver.shards"
let m_sharded_runs = Obs.Metrics.counter "driver.sharded_runs"

(* Length of an uninstrumented run, for slicing. *)
let measure ?fuel prog =
  let machine = Machine.create prog in
  ignore (Machine.run ?fuel machine);
  Machine.icount machine

let plan ?fuel workload input ~shards =
  let k = max 1 shards in
  let prog = workload.Workload.wbuild input in
  if k = 1 then { prog; windows = [ (0, max_int) ] }
  else begin
    let total = measure ?fuel prog in
    let slice = (total + k - 1) / k in
    let windows =
      List.init k (fun i -> (i * slice, min total ((i + 1) * slice)))
      |> List.filter (fun (lo, hi) -> lo < hi)
    in
    { prog; windows = (if windows = [] then [ (0, max_int) ] else windows) }
  end

(* Run every shard of [plan] across [jobs] domains and merge in shard
   order. The pool returns results in submission order whatever the
   scheduling, so the merge input — hence the profile — is deterministic. *)
let profile_plan ?config ?selection ?fuel ?jobs { prog; windows } =
  Obs.Metrics.incr m_sharded_runs;
  let run_one window =
    Obs.Trace.with_span ~cat:"driver" "driver.shard" @@ fun () ->
    Obs.Metrics.incr m_shards;
    Profile.run_shard ?config ?selection ~window ?fuel prog
  in
  let shards = Pool.map ?jobs run_one windows in
  (* chaos site: dying here proves a crash between the shard runs and
     the merge loses the run but never commits a partial profile *)
  Fault.point ~site:"shard.merge";
  Profile.merge_shards prog shards

let profile ?config ?selection ?fuel ?jobs ?(shards = 1) workload input =
  profile_plan ?config ?selection ?fuel ?jobs
    (plan ?fuel workload input ~shards)
