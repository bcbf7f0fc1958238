(* The worker pool: a mutex-protected deque of job indices drained by a
   fixed set of domains. Results land in per-index slots, so completion
   order never affects result order. *)

(* Work queue: push_back on submission, pop_front by workers (FIFO keeps
   the schedule close to the serial order, which keeps cache-sharing jobs
   together). Two-list deque; [front] is in pop order. *)
type 'a deque = {
  mutable front : 'a list;
  mutable back : 'a list;  (* reversed *)
  mu : Mutex.t;
}

let deque_of_list items = { front = items; back = []; mu = Mutex.create () }

let pop_front d =
  Mutex.lock d.mu;
  let item =
    match d.front with
    | x :: rest ->
      d.front <- rest;
      Some x
    | [] ->
      (match List.rev d.back with
       | x :: rest ->
         d.front <- rest;
         d.back <- [];
         Some x
       | [] -> None)
  in
  Mutex.unlock d.mu;
  item

let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs = function
  | None -> default_jobs ()
  | Some n when n <= 0 -> default_jobs ()
  | Some n -> n

(* Cancellation: one atomic flag shared by caller and workers. Workers
   check it before every pop, so a set flag stops the queue draining
   within one job per domain. *)
type cancellation = bool Atomic.t

let cancellation () = Atomic.make false

let cancel c =
  (* chaos site: a fault here simulates the canceller itself dying
     before the flag lands, so the grid keeps draining *)
  Fault.point ~site:"pool.cancel";
  Atomic.set c true

let cancelled c = Atomic.get c

let m_jobs = Obs.Metrics.counter "pool.jobs"
let m_errors = Obs.Metrics.counter "pool.errors"
let m_workers = Obs.Metrics.counter "pool.workers_spawned"

let map_result ?jobs ?cancel:(flag = cancellation ()) f items =
  let run_one x =
    Obs.Metrics.incr m_jobs;
    match
      Obs.Trace.with_span ~cat:"driver" "pool.job" (fun () ->
          Fault.point ~site:"pool.worker";
          f x)
    with
    | v -> Ok v
    | exception e ->
      let err = Error (e, Printexc.get_raw_backtrace ()) in
      Obs.Metrics.incr m_errors;
      err
  in
  let jobs = min (resolve_jobs jobs) (List.length items) in
  if jobs <= 1 then begin
    (* The caller's domain IS the one worker: emit the same span and
       spawn counter as the parallel path so -j1 traces are not missing
       the driver's worker layer (check_obs expects it uniformly). *)
    Obs.Metrics.incr m_workers;
    Obs.Trace.with_span ~cat:"driver" "pool.worker" (fun () ->
        List.map
          (fun x -> if Atomic.get flag then None else Some (run_one x))
          items)
  end
  else begin
    let items = Array.of_list items in
    let n = Array.length items in
    let results = Array.make n None in
    let work = deque_of_list (List.init n Fun.id) in
    let worker () =
      Obs.Metrics.incr m_workers;
      Obs.Trace.with_span ~cat:"driver" "pool.worker" (fun () ->
          let rec loop () =
            if not (Atomic.get flag) then
              match pop_front work with
              | None -> ()
              | Some i ->
                (* distinct indices: no two domains ever write the same slot;
                   the worker's backtrace is captured with the exception so
                   the re-raise on the caller's domain points at the real
                   failure *)
                results.(i) <- Some (run_one items.(i));
                loop ()
          in
          loop ())
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list results
  end

let map ?jobs f items =
  (* nothing sets the flag, so every slot is filled; [List.map] goes in
     order, so the lowest-indexed failure is the one re-raised *)
  List.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    (map_result ?jobs f items)
