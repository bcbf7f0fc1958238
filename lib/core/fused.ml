type 'a item =
  | Item : {
      profiler :
        (module Profiler_intf.S with type result = 'r and type config = 'c);
      config : 'c option;
      finish : 'r -> 'a;
    }
      -> 'a item

let item ?config ~finish profiler = Item { profiler; config; finish }

let item_name (Item { profiler = (module P); _ }) = P.name

(* One fused member: its collector, a cost probe for degradation-time
   ranking, and the machine subscriptions it owns (so it can be shed —
   detached mid-run — without touching its siblings). *)
type 'a cell = {
  cl_name : string;
  cl_collect : unit -> 'a * Counters.t;
  cl_cost : unit -> int;
  cl_att : Machine.attachment;
  mutable cl_dropped : bool;
}

type 'a live = {
  machine : Machine.t;
  cells : 'a cell list;
  started : float;
  budget_cb : int option;
}

type 'a t = {
  results : 'a list;
  counters : Counters.t list;
  machine_steps : int;
  wall_seconds : float;
  degrade_level : int;
  shed : string list;
}

let m_shed = Obs.Metrics.counter "degrade.fused_shed"

(* Degradation step: drop the most expensive member still attached (by
   {!Counters.run_cost} of its counters so far; ties keep attach order),
   but never the last one — a fused run always yields at least one
   profile. The dropped member's accumulated state survives: its final
   result is a profile from partial observation. *)
let shed_one machine cells =
  match List.filter (fun c -> not c.cl_dropped) cells with
  | [] | [ _ ] -> ()
  | first :: rest ->
    let victim, _ =
      List.fold_left
        (fun (best, best_cost) c ->
          let cost = c.cl_cost () in
          if cost > best_cost then (c, cost) else (best, best_cost))
        (first, first.cl_cost ())
        rest
    in
    victim.cl_dropped <- true;
    Machine.detach machine victim.cl_att;
    Obs.Metrics.incr m_shed;
    Obs.Trace.instant ~cat:"core" "degrade.fused_shed"

let attach machine items =
  let started = Counters.now () in
  let cells =
    List.map
      (fun (Item { profiler = (module P); config; finish }) ->
        let live, att =
          Machine.with_attachment machine (fun () -> P.attach ?config machine)
        in
        { cl_name = P.name;
          cl_collect =
            (fun () ->
              let r = P.collect live in
              (finish r, P.stats r));
          cl_cost = (fun () -> Counters.run_cost (P.stats (P.peek live)));
          cl_att = att;
          cl_dropped = false })
      items
  in
  (* Under governance, subscribe to degradation steps; the callback runs
     on this domain only (between machine steps, from Budget.poll), so
     detaching hooks here is race-free. *)
  let budget_cb =
    if Budget.armed () then
      Some (Budget.on_degrade (fun _lvl -> shed_one machine cells))
    else None
  in
  { machine; cells; started; budget_cb }

let collect live =
  (match live.budget_cb with
   | Some id -> Budget.remove_on_degrade id
   | None -> ());
  let pairs = List.map (fun c -> c.cl_collect ()) live.cells in
  let wall = Counters.now () -. live.started in
  (* every member saw the same single execution, so the shared wall clock
     replaces whatever each profiler measured for itself — reporting the
     full wall per member would count the run K times *)
  let counters =
    List.map (fun (_, c) -> { c with Counters.wall_seconds = wall }) pairs
  in
  { results = List.map fst pairs;
    counters;
    machine_steps = Machine.icount live.machine;
    wall_seconds = wall;
    degrade_level = Budget.degrade_level ();
    shed =
      List.filter_map
        (fun c -> if c.cl_dropped then Some c.cl_name else None)
        live.cells }

let m_runs = Obs.Metrics.counter "fused.runs"
let m_members = Obs.Metrics.counter "fused.members"

let run ?fuel prog items =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_members (List.length items);
  Obs.Trace.with_span ~cat:"core" "fused.run" @@ fun () ->
  let machine = Machine.create prog in
  let live = attach machine items in
  ignore (Machine.run ?fuel machine);
  collect live
