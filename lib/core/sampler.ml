type criterion = Inv_delta | Top_stability

type config = {
  burst : int;
  initial_skip : int;
  epsilon : float;
  consecutive : int;
  backoff : float;
  max_skip : int;
  criterion : criterion;
}

let default_config =
  { burst = 50; initial_skip = 200; epsilon = 0.02; consecutive = 3;
    backoff = 4.; max_skip = 100_000; criterion = Inv_delta }

(* A point's burst machinery. It sees only the executions it profiles:
   the machine withholds the gap between bursts (see [observe]). *)
type state = {
  vs : Vstate.t;
  cfg : config;
  mutable in_burst : int; (* executions left in the current burst *)
  mutable skip : int; (* current inter-burst gap *)
  mutable prev_inv : float;
  mutable prev_top : int64 option;
  mutable streak : int;
  mutable converged : bool;
  mutable profiled : int;
  (* Budget degradation level already folded into [skip]; the (cold)
     burst boundary applies each new level exactly once. *)
  mutable degrade_applied : int;
}

let make_state cfg vconfig =
  { vs = Vstate.create ?config:vconfig ();
    cfg;
    in_burst = cfg.burst;
    skip = cfg.initial_skip;
    prev_inv = -1.; (* sentinel: first burst never counts as converged *)
    prev_top = None;
    streak = 0;
    converged = false;
    profiled = 0;
    degrade_applied = 0 }

(* Did this burst leave the profile where the last one did? *)
let burst_is_quiet st inv top =
  match st.cfg.criterion with
  | Inv_delta -> st.prev_inv >= 0. && abs_float (inv -. st.prev_inv) < st.cfg.epsilon
  | Top_stability ->
    (match (st.prev_top, top) with
     | Some a, Some b -> Int64.equal a b
     | Some _, None | None, Some _ | None, None -> false)

let m_bursts = Obs.Metrics.counter "sampler.bursts"
let m_backoffs = Obs.Metrics.counter "sampler.backoffs"
let m_deconverged = Obs.Metrics.counter "sampler.deconverged"
let m_degrade_widen = Obs.Metrics.counter "degrade.sampler_widened"

(* Under memory pressure the sampler sheds precision by widening the
   inter-burst gap: double [skip] per Budget degradation level not yet
   applied, clamped to [max_skip]. Cold — runs at burst boundaries only,
   and is a no-op at level 0. *)
let apply_degrade st =
  let lvl = Budget.degrade_level () in
  if lvl > st.degrade_applied then begin
    let steps = min (lvl - st.degrade_applied) 30 in
    st.degrade_applied <- lvl;
    let widened = min st.cfg.max_skip (max 1 st.skip * (1 lsl steps)) in
    if widened > st.skip then begin
      st.skip <- widened;
      Obs.Metrics.incr m_degrade_widen;
      Obs.Trace.instant ~cat:"sampler" "degrade.sampler_widened"
    end
  end

let end_of_burst st =
  apply_degrade st;
  let inv = Vstate.inv_top st.vs in
  let top = Vstate.top_value st.vs in
  Obs.Metrics.incr m_bursts;
  if burst_is_quiet st inv top then begin
    st.streak <- st.streak + 1;
    (* Back off on every quiet re-check burst, not only the one that first
       established convergence: the gap keeps widening geometrically toward
       [max_skip] while the point stays quiet. (A former [not st.converged]
       guard here froze the gap at one widening forever.) *)
    if st.streak >= st.cfg.consecutive then begin
      st.converged <- true;
      Obs.Metrics.incr m_backoffs;
      Obs.Trace.instant ~cat:"sampler" "sampler.backoff";
      let widened = int_of_float (float_of_int st.skip *. st.cfg.backoff) in
      st.skip <- min st.cfg.max_skip (max st.skip widened)
    end
  end
  else begin
    st.streak <- 0;
    (* A converged instruction that moved again is profiled eagerly anew. *)
    if st.converged then begin
      st.converged <- false;
      Obs.Metrics.incr m_deconverged;
      Obs.Trace.instant ~cat:"sampler" "sampler.deconverged";
      st.skip <- st.cfg.initial_skip
    end
  end;
  st.prev_inv <- inv;
  st.prev_top <- top;
  st.in_burst <- st.cfg.burst

(* The point's gated hook: profile one execution and answer how many of
   the following ones to skip — 0 inside a burst, the gap at its end.
   The machine withholds the gap, so skipped executions never get here. *)
let observe st value =
  Vstate.observe st.vs value;
  st.profiled <- st.profiled + 1;
  st.in_burst <- st.in_burst - 1;
  if st.in_burst > 0 then 0
  else begin
    end_of_burst st;
    st.skip
  end

type point = {
  s_pc : int;
  s_instr : Isa.instr;
  s_metrics : Metrics.t;
  s_events : int;
  s_profiled : int;
  s_converged : bool;
}

type t = {
  points : point array;
  total_events : int;
  profiled_events : int;
  overhead : float;
  dynamic_instructions : int;
  stats : Counters.t;
}

type live = {
  machine : Machine.t;
  states : (int * state * Machine.gate) list;
  started : float;
}

let attach ?(config = default_config) ?vconfig machine selection =
  if config.burst <= 0 then invalid_arg "Sampler: burst must be positive";
  if config.backoff < 1. then invalid_arg "Sampler: backoff must be >= 1";
  if config.initial_skip < 0 || config.max_skip < 0 then
    invalid_arg "Sampler: skips must be >= 0";
  let prog = Machine.program machine in
  let pcs = Atom.select prog selection in
  let states =
    List.map
      (fun pc ->
        let st = make_state config vconfig in
        (pc, st, Machine.add_gated_hook machine pc (fun value _addr -> observe st value)))
      pcs
  in
  { machine; states; started = Counters.now () }

let collect live =
  let prog = Machine.program live.machine in
  let points =
    List.map
      (fun (pc, st, gate) ->
        { s_pc = pc;
          s_instr = prog.Asm.code.(pc);
          s_metrics = Vstate.metrics st.vs;
          s_events = Machine.gate_executions live.machine gate;
          s_profiled = st.profiled;
          s_converged = st.converged })
      live.states
    |> Array.of_list
  in
  let total_events = Array.fold_left (fun a p -> a + p.s_events) 0 points in
  let profiled_events = Array.fold_left (fun a p -> a + p.s_profiled) 0 points in
  let stats = Counters.create () in
  stats.Counters.events_seen <- total_events;
  stats.Counters.events_profiled <- profiled_events;
  List.iter
    (fun (_, st, _) ->
      stats.Counters.tnv_clears <-
        stats.Counters.tnv_clears + Vstate.tnv_clears st.vs;
      stats.Counters.tnv_replacements <-
        stats.Counters.tnv_replacements + Vstate.tnv_replacements st.vs)
    live.states;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { points;
    total_events;
    profiled_events;
    overhead =
      (if total_events = 0 then 0.
       else float_of_int profiled_events /. float_of_int total_events);
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?config ?vconfig ?(selection = `All) ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?config ?vconfig machine selection in
  ignore (Machine.run ?fuel machine);
  collect live

let invariance_error sampled full =
  let errors = ref [] and weights = ref [] in
  Array.iter
    (fun sp ->
      match Profile.point_at full sp.s_pc with
      | None -> ()
      | Some fp ->
        if fp.Profile.p_metrics.Metrics.total > 0 && sp.s_metrics.Metrics.total > 0
        then begin
          errors :=
            abs_float
              (sp.s_metrics.Metrics.inv_top -. fp.Profile.p_metrics.Metrics.inv_top)
            :: !errors;
          weights := float_of_int fp.Profile.p_metrics.Metrics.total :: !weights
        end)
    sampled.points;
  (* No shared live point (disjoint selections, or nothing executed) means
     there is no evidence of error: return 0. explicitly rather than
     leaning on the downstream zero-weight convention — 0/0 here must
     never surface as NaN to the accuracy tables. *)
  if !errors = [] then 0.
  else Stats.weighted_mean (Array.of_list !errors) (Array.of_list !weights)

type profiler_config = {
  sampler : config;
  vconfig : Vstate.config;
  selection : Atom.selection;
}

module Profiler = Profiler_intf.Make (struct
  let name = "sample"

  type config = profiler_config

  let default_config =
    { sampler = default_config;
      vconfig = Vstate.default_config;
      selection = `All }

  type result = t
  type nonrec live = live

  let attach config machine =
    attach ~config:config.sampler ~vconfig:config.vconfig machine
      config.selection

  let collect = collect
  let stats (r : result) = r.stats
end)

(* Test-only window into the per-point burst machinery, so the back-off
   behaviour can be asserted directly instead of through a whole machine
   run. Not part of the profiling API proper. *)
module Testing = struct
  type nonrec state = state

  let make_state config = make_state config None
  let observe = observe
  let current_skip st = st.skip
  let is_converged st = st.converged
  let profiled st = st.profiled
  let metrics st = Vstate.metrics st.vs

  (* Feed the rest of the current burst of [v]s, ending right after
     [end_of_burst] ran; the gap it returns is the machine's to skip. *)
  let run_cycle st v =
    for _ = 1 to st.in_burst do
      ignore (observe st v)
    done
end
