(* Sharded collection of one workload's value profile: split ONE workload
   execution into K shards, profile each on its own domain via the pool,
   and merge the results in shard order — so the output is a function of
   the plan only, byte-identical however the shards were scheduled.

   Two plans:
   - Chunked: the workload knows how to split its input into chunk
     programs sharing the full program's code layout (Workload.wshard).
     Each chunk is profiled whole. Exact per-chunk; chunk boundaries
     reset program state (e.g. compress's dictionary), the documented
     approximation for K > 1.
   - Sliced: every shard executes the FULL program but profiles only its
     icount window (lo, hi]. The windows partition the event stream, so
     merged per-point totals and dynamic_instructions equal the serial
     run's exactly; the cost is K full (but mostly uninstrumented)
     executions plus one uninstrumented pre-run to learn the length. *)

type plan =
  | Chunked of Asm.program list
  | Sliced of { prog : Asm.program; windows : (int * int) list }

let m_shards = Obs.Metrics.counter "driver.shards"
let m_sharded_runs = Obs.Metrics.counter "driver.sharded_runs"

(* Length of an uninstrumented run, for slicing. *)
let measure ?fuel prog =
  let machine = Machine.create prog in
  ignore (Machine.run ?fuel machine);
  Machine.icount machine

let plan ?fuel workload input ~shards =
  let k = max 1 shards in
  match workload.Workload.wshard with
  | Some chunks when k > 1 -> Chunked (chunks input k)
  | _ ->
    let prog = workload.Workload.wbuild input in
    if k = 1 then Sliced { prog; windows = [ (0, max_int) ] }
    else begin
      let total = measure ?fuel prog in
      let slice = (total + k - 1) / k in
      let windows =
        List.init k (fun i -> (i * slice, min total ((i + 1) * slice)))
        |> List.filter (fun (lo, hi) -> lo < hi)
      in
      Sliced { prog; windows = (if windows = [] then [ (0, max_int) ] else windows) }
    end

(* Run every shard of [plan] across [jobs] domains and merge in shard
   order. The pool returns results in submission order whatever the
   scheduling, so the merge input — hence the profile — is deterministic. *)
let profile_plan ?config ?selection ?fuel ?jobs plan =
  Obs.Metrics.incr m_sharded_runs;
  let run_one task =
    Obs.Trace.with_span ~cat:"driver" "driver.shard" @@ fun () ->
    Obs.Metrics.incr m_shards;
    match task with
    | `Chunk prog -> Profile.run_shard ?config ?selection ?fuel prog
    | `Slice (prog, window) ->
      Profile.run_shard ?config ?selection ~window ?fuel prog
  in
  let tasks, label_prog =
    match plan with
    | Chunked [] -> invalid_arg "Shard.profile_plan: empty chunk plan"
    | Chunked (first :: _ as progs) ->
      (List.map (fun p -> `Chunk p) progs, first)
    | Sliced { prog; windows } ->
      (List.map (fun w -> `Slice (prog, w)) windows, prog)
  in
  let shards = Pool.map ?jobs run_one tasks in
  (* chaos site: dying here proves a crash between the shard runs and
     the merge loses the run but never commits a partial profile *)
  Fault.point ~site:"shard.merge";
  Profile.merge_shards label_prog shards

let profile ?config ?selection ?fuel ?jobs ?(shards = 1) workload input =
  profile_plan ?config ?selection ?fuel ?jobs
    (plan ?fuel workload input ~shards)
