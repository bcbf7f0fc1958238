type point = {
  p_pc : int;
  p_instr : Isa.instr;
  p_proc : string;
  p_metrics : Metrics.t;
}

type t = {
  points : point array;
  instrumented : int;
  profiled_events : int;
  dynamic_instructions : int;
  stats : Counters.t;
}

type live = {
  machine : Machine.t;
  states : (int * Vstate.t) list; (* ascending pc *)
  started : float; (* Counters.now at attach time *)
}

let attach ?config machine selection =
  let prog = Machine.program machine in
  let pcs = Atom.select prog selection in
  let states = List.map (fun pc -> (pc, Vstate.create ?config ())) pcs in
  List.iter
    (fun (pc, vs) ->
      Machine.add_hook machine pc (fun value _addr -> Vstate.observe vs value))
    states;
  { machine; states; started = Counters.now () }

let proc_name prog pc =
  match Asm.proc_of_pc prog pc with
  | p -> p.Asm.pname
  | exception Not_found -> ""

let collect live =
  let prog = Machine.program live.machine in
  let points =
    List.map
      (fun (pc, vs) ->
        { p_pc = pc;
          p_instr = prog.Asm.code.(pc);
          p_proc = proc_name prog pc;
          p_metrics = Vstate.metrics vs })
      live.states
    |> Array.of_list
  in
  let profiled_events =
    Array.fold_left (fun acc p -> acc + p.p_metrics.Metrics.total) 0 points
  in
  let stats = Counters.create () in
  stats.Counters.events_seen <- Machine.icount live.machine;
  stats.Counters.events_profiled <- profiled_events;
  List.iter
    (fun (_, vs) ->
      stats.Counters.tnv_clears <-
        stats.Counters.tnv_clears + Vstate.tnv_clears vs;
      stats.Counters.tnv_replacements <-
        stats.Counters.tnv_replacements + Vstate.tnv_replacements vs)
    live.states;
  stats.Counters.wall_seconds <- Counters.now () -. live.started;
  { points;
    instrumented = Array.length points;
    profiled_events;
    dynamic_instructions = Machine.icount live.machine;
    stats }

let run ?config ?(selection = `All) ?fuel prog =
  let machine = Machine.create prog in
  let live = attach ?config machine selection in
  ignore (Machine.run ?fuel machine);
  collect live

(* ---- Merging and sharded collection -------------------------------- *)

let m_merges = Obs.Metrics.counter "profile.merges"

(* Point-wise merge of two collected profiles by pc (union of points,
   ascending). Exact where Metrics.merge is exact; see its doc for the
   distinct/stride approximations. *)
let merge2 a b =
  let tbl = Hashtbl.create (Array.length a.points + Array.length b.points) in
  Array.iter (fun p -> Hashtbl.replace tbl p.p_pc p) a.points;
  Array.iter
    (fun pb ->
      match Hashtbl.find_opt tbl pb.p_pc with
      | Some pa ->
        Hashtbl.replace tbl pb.p_pc
          { pa with p_metrics = Metrics.merge pa.p_metrics pb.p_metrics }
      | None -> Hashtbl.add tbl pb.p_pc pb)
    b.points;
  let points =
    Hashtbl.fold (fun _ p acc -> p :: acc) tbl []
    |> List.sort (fun p q -> compare p.p_pc q.p_pc)
    |> Array.of_list
  in
  let profiled_events =
    Array.fold_left (fun acc p -> acc + p.p_metrics.Metrics.total) 0 points
  in
  let stats = Counters.create () in
  Counters.accumulate ~into:stats a.stats;
  Counters.accumulate ~into:stats b.stats;
  { points;
    instrumented = Array.length points;
    profiled_events;
    dynamic_instructions = a.dynamic_instructions + b.dynamic_instructions;
    stats }

let merge = function
  | [] -> invalid_arg "Profile.merge: empty list"
  | first :: rest ->
    Obs.Trace.with_span ~cat:"core" "profile.merge" @@ fun () ->
    Obs.Metrics.incr m_merges;
    List.fold_left merge2 first rest

(* A shard is the live profiling state of one slice of a workload
   execution, kept at the Vstate level so shard merging is exact (TNV
   union, distinct-set union) rather than the lossier Metrics.merge. *)
type shard = {
  sh_states : (int * Vstate.t) list; (* ascending pc *)
  sh_icount : int; (* events this shard is accountable for *)
  sh_stats : Counters.t;
}

(* [run_shard ~window:(lo, hi) prog] executes [prog] in full but profiles
   only the events whose 1-based dynamic index i satisfies lo < i <= hi
   (the machine bumps icount before firing hooks, so inside a hook
   [Machine.icount] is exactly that index). Windows that partition
   [1 .. total] therefore partition the profiled event stream, and the
   shard's accountable icount is the window length — summing to the
   serial run's dynamic_instructions. *)
let run_shard ?config ?(selection = `All) ~window:(lo, hi) ?fuel prog =
  let machine = Machine.create prog in
  let started = Counters.now () in
  let pcs = Atom.select prog selection in
  let states = List.map (fun pc -> (pc, Vstate.create ?config ())) pcs in
  List.iter
    (fun (pc, vs) ->
      Machine.add_hook machine pc (fun value _addr ->
          let i = Machine.icount machine in
          if lo < i && i <= hi then Vstate.observe vs value))
    states;
  ignore (Machine.run ?fuel machine);
  let total = Machine.icount machine in
  let sh_icount = min hi total - min lo total in
  let stats = Counters.create () in
  stats.Counters.events_seen <- sh_icount;
  stats.Counters.events_profiled <-
    List.fold_left (fun acc (_, vs) -> acc + Vstate.total vs) 0 states;
  List.iter
    (fun (_, vs) ->
      stats.Counters.tnv_clears <-
        stats.Counters.tnv_clears + Vstate.tnv_clears vs;
      stats.Counters.tnv_replacements <-
        stats.Counters.tnv_replacements + Vstate.tnv_replacements vs)
    states;
  stats.Counters.wall_seconds <- Counters.now () -. started;
  { sh_states = states; sh_icount; sh_stats = stats }

(* Merge shards in list (= shard) order into one profile; the result
   depends only on the shards' contents and order, never on how they were
   scheduled. [prog] supplies the instruction/procedure labels. *)
let merge_shards prog shards =
  if shards = [] then invalid_arg "Profile.merge_shards: empty list";
  Obs.Trace.with_span ~cat:"core" "profile.merge" @@ fun () ->
  Obs.Metrics.incr m_merges;
  let pcs =
    List.concat_map (fun sh -> List.map fst sh.sh_states) shards
    |> List.sort_uniq compare
  in
  let merged_states =
    List.map
      (fun pc ->
        let vss =
          List.filter_map (fun sh -> List.assoc_opt pc sh.sh_states) shards
        in
        match vss with
        | [] -> assert false
        | first :: rest -> (pc, List.fold_left Vstate.merge first rest))
      pcs
  in
  let points =
    List.map
      (fun (pc, vs) ->
        { p_pc = pc;
          p_instr = prog.Asm.code.(pc);
          p_proc = proc_name prog pc;
          p_metrics = Vstate.metrics vs })
      merged_states
    |> Array.of_list
  in
  let profiled_events =
    Array.fold_left (fun acc p -> acc + p.p_metrics.Metrics.total) 0 points
  in
  let stats = Counters.create () in
  List.iter (fun sh -> Counters.accumulate ~into:stats sh.sh_stats) shards;
  { points;
    instrumented = Array.length points;
    profiled_events;
    dynamic_instructions =
      List.fold_left (fun acc sh -> acc + sh.sh_icount) 0 shards;
    stats }

let points_by_category t cat =
  Array.to_list t.points
  |> List.filter (fun p -> Isa.category p.p_instr = cat)

let weighted points field =
  Metrics.weighted_mean field (List.map (fun p -> p.p_metrics) points)

let point_at t pc = Array.find_opt (fun p -> p.p_pc = pc) t.points

type profiler_config = { vconfig : Vstate.config; selection : Atom.selection }

module Profiler = Profiler_intf.Make (struct
  let name = "profile"

  type config = profiler_config

  let default_config = { vconfig = Vstate.default_config; selection = `All }

  type result = t
  type nonrec live = live

  let attach config machine =
    attach ~config:config.vconfig machine config.selection

  let collect = collect
  let stats (r : result) = r.stats
end)
