type job_error =
  | Trap of Machine.trap
  | Timeout of int
  | Io of string
  | Injected of string
  | Cancelled
  | Crash of string
  | Deadline of float
  | Mem_pressure of int

let string_of_error = function
  | Trap t -> Printf.sprintf "trap: %s" (Machine.string_of_trap t)
  | Timeout fuel -> Printf.sprintf "timeout: fuel exhausted (budget %d)" fuel
  | Io msg -> Printf.sprintf "io: %s" msg
  | Injected site -> Printf.sprintf "injected fault at site %S" site
  | Cancelled -> "cancelled before it started"
  | Crash msg -> Printf.sprintf "crash: %s" msg
  | Deadline s -> Printf.sprintf "deadline exceeded (budget %gs)" s
  | Mem_pressure words ->
    Printf.sprintf "memory watermark exceeded (%d heap words)" words

let classify = function
  | Machine.Trap (Machine.Fuel_exhausted f) -> Timeout f
  | Machine.Trap t -> Trap t
  | Fault.Injected site -> Injected site
  | Budget.Deadline_exceeded s -> Deadline s
  | Budget.Mem_pressure words -> Mem_pressure words
  | Sys_error msg -> Io msg
  | e -> Crash (Printexc.to_string e)

type policy = {
  retries : int;
  fuel_timeout : int option;
  on_error : [ `Skip | `Abort ];
}

let default_policy = { retries = 1; fuel_timeout = None; on_error = `Skip }

type 'a outcome = {
  o_name : string;
  o_attempts : int;
  o_result : ('a, job_error) result;
}

type 'a report = {
  outcomes : 'a outcome list;
  completed : int;
  failed : int;
  cancelled : int;
}

let oks r =
  List.filter_map
    (fun o -> match o.o_result with Ok v -> Some v | Error _ -> None)
    r.outcomes

let failures r =
  List.filter (fun o -> Result.is_error o.o_result) r.outcomes

let report_of outcomes =
  let completed, failed, cancelled =
    List.fold_left
      (fun (c, f, x) o ->
        match o.o_result with
        | Ok _ -> (c + 1, f, x)
        | Error Cancelled -> (c, f, x + 1)
        | Error _ -> (c, f + 1, x))
      (0, 0, 0) outcomes
  in
  { outcomes; completed; failed; cancelled }

(* Fuel budget for the 0-based attempt [k]: the job's own base (else the
   policy's), doubled per retry — backoff-in-fuel. Saturates instead of
   overflowing. *)
let attempt_fuel policy base k =
  match (match base with Some _ -> base | None -> policy.fuel_timeout) with
  | None -> None
  | Some f ->
    let widened = f lsl k in
    Some (if k >= 62 || widened < f then max_int else widened)

let m_sup_jobs = Obs.Metrics.counter "supervisor.jobs"
let m_sup_retries = Obs.Metrics.counter "supervisor.retries"
let m_sup_timeouts = Obs.Metrics.counter "supervisor.timeouts"
let m_sup_failures = Obs.Metrics.counter "supervisor.failures"
let m_sup_cancelled = Obs.Metrics.counter "supervisor.cancelled"
let m_sup_deadline = Obs.Metrics.counter "supervisor.deadline"
let m_sup_mem = Obs.Metrics.counter "supervisor.mem_pressure"

(* The supervised core: every item is a (name, base_fuel, run) triple;
   [run ~fuel] performs one attempt under the given budget. *)
let supervise ?(policy = default_policy) ?jobs items =
  let flag = Pool.cancellation () in
  let cancelled_outcome name =
    Obs.Metrics.incr m_sup_cancelled;
    { o_name = name; o_attempts = 0; o_result = Error Cancelled }
  in
  let run_one (name, base, run) =
    (* a worker may pop a job between a fatal failure and its cancel
       becoming visible; honour the flag here too *)
    if Pool.cancelled flag then cancelled_outcome name
    else begin
      Obs.Metrics.incr m_sup_jobs;
      Obs.Trace.with_span ~cat:"supervisor" ("supervisor.job:" ^ name)
        (fun () ->
          let rec go k =
            match
              (Fault.point ~site:"supervisor.job";
               (* budgets are enforced between attempts too, so a job
                  that never polls on its own still cannot start past
                  the deadline *)
               Budget.poll ();
               run ~fuel:(attempt_fuel policy base k))
            with
            | v -> { o_name = name; o_attempts = k + 1; o_result = Ok v }
            | exception e ->
              let err = classify e in
              (match err with
               | Deadline _ ->
                 (* the clock is global: retrying this job cannot
                    succeed, and every job behind it is already past the
                    budget — cancel the rest of the pool cooperatively *)
                 Obs.Metrics.incr m_sup_deadline;
                 Obs.Metrics.incr m_sup_failures;
                 Pool.cancel flag;
                 { o_name = name; o_attempts = k + 1; o_result = Error err }
               | _ ->
                 (match err with
                  | Timeout _ -> Obs.Metrics.incr m_sup_timeouts
                  | Mem_pressure _ -> Obs.Metrics.incr m_sup_mem
                  | Trap _ | Io _ | Injected _ | Cancelled | Crash _
                  | Deadline _ -> ());
                 if k < policy.retries then begin
                   Obs.Metrics.incr m_sup_retries;
                   Obs.Trace.instant ~cat:"supervisor" "supervisor.retry";
                   go (k + 1)
                 end
                 else begin
                   Obs.Metrics.incr m_sup_failures;
                   if policy.on_error = `Abort then Pool.cancel flag;
                   { o_name = name; o_attempts = k + 1; o_result = Error err }
                 end)
          in
          go 0)
    end
  in
  let slots = Pool.map_result ?jobs ~cancel:flag run_one items in
  report_of
    (List.map2
       (fun (name, _, _) slot ->
         match slot with
         | Some (Ok outcome) -> outcome
         | Some (Error (e, bt)) ->
           (* [run_one] is total; only the pool's own site can raise here *)
           (match e with
            | Fault.Injected _ ->
              { o_name = name; o_attempts = 0; o_result = Error (classify e) }
            | _ -> Printexc.raise_with_backtrace e bt)
         | None -> cancelled_outcome name)
       items slots)

let map ?policy ?jobs ~name f items =
  supervise ?policy ?jobs
    (List.map (fun x -> (name x, None, fun ~fuel:_ -> f x)) items)

let run_jobs ?policy ?jobs djobs =
  (* supervision works on fused units: one unit = one machine execution =
     one retry/classification scope, however many jobs it serves. Unit
     outcomes are then expanded back to per-job outcomes in submission
     order — a unit's failure (or attempt count) is every member's. *)
  let units = Driver.fuse djobs in
  let unit_report =
    supervise ?policy ?jobs
      (List.map
         (fun u ->
           ( Driver.unit_name u, Driver.unit_fuel u,
             fun ~fuel -> Driver.run_unit_with_fuel ~fuel u ))
         units)
  in
  let n = List.length djobs in
  let slots = Array.make n None in
  List.iter2
    (fun u o ->
      List.iter
        (fun (i, j) ->
          let o_result =
            match o.o_result with
            | Ok pairs -> Ok (List.assoc i pairs)
            | Error e -> Error e
          in
          slots.(i) <-
            Some { o_name = Driver.job_name j; o_attempts = o.o_attempts;
                   o_result })
        (Driver.unit_members u))
    units unit_report.outcomes;
  report_of
    (Array.to_list slots
    |> List.map (function Some o -> o | None -> assert false))

module Testing = struct
  let attempt_fuel policy ~base k = attempt_fuel policy base k
end
