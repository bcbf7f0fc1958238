type spec = {
  id : string;
  title : string;
  paper_ref : string;
  run : unit -> Table.t list;
}

let all =
  [ { id = "e01"; title = "Benchmarks and data sets";
      paper_ref = "Table III.1"; run = E01_workloads.run };
    { id = "e02"; title = "Basic Block Quantile Table";
      paper_ref = "Table IV.1"; run = E02_bb_quantile.run };
    { id = "e03"; title = "Load value invariance";
      paper_ref = "Ch. V load tables"; run = E03_load_invariance.run };
    { id = "e04"; title = "Instruction invariance by category";
      paper_ref = "Ch. V instruction tables"; run = E04_all_invariance.run };
    { id = "e05"; title = "Invariance distribution";
      paper_ref = "Ch. V distribution figures (§III.D bucketing)";
      run = E05_distribution.run };
    { id = "e06"; title = "Test vs train data sets";
      paper_ref = "Table V.5"; run = E06_cross_input.run };
    { id = "e07"; title = "TNV table size sweep";
      paper_ref = "TNV design evaluation"; run = E07_tnv_size.run };
    { id = "e08"; title = "TNV replacement ablation";
      paper_ref = "TNV design evaluation"; run = E08_replacement.run };
    { id = "e09"; title = "Convergent sampling";
      paper_ref = "Ch. VI"; run = E09_sampling.run };
    { id = "e10"; title = "Memory-location profiling";
      paper_ref = "Ch. VII"; run = E10_memory.run };
    { id = "e11"; title = "Value prediction classification";
      paper_ref = "Ch. II/IX (Gabbay [18])"; run = E11_prediction.run };
    { id = "e12"; title = "Code specialization";
      paper_ref = "Ch. X"; run = E12_specialization.run };
    { id = "e13"; title = "Procedure profiling and memoization";
      paper_ref = "procedure chapters, Richardson [32]";
      run = E13_procedures.run };
    { id = "e14"; title = "Profiling overhead";
      paper_ref = "Ch. VI overhead discussion"; run = E14_overhead.run };
    { id = "e15"; title = "Predictability classification and routing";
      paper_ref = "Gabbay [18] extension"; run = E15_classification.run };
    { id = "e16"; title = "Register value profiling";
      paper_ref = "Gabbay [17] register-file discussion";
      run = E16_registers.run };
    { id = "e17"; title = "Context-sensitive parameter profiling";
      paper_ref = "future work via Young & Smith [40]";
      run = E17_context.run };
    { id = "e18"; title = "Sampler convergence-criterion ablation";
      paper_ref = "Ch. VI future work"; run = E18_criteria.run };
    { id = "e19"; title = "Trivial computation";
      paper_ref = "Richardson [32]"; run = E19_trivial.run };
    { id = "e20"; title = "Memoization-cache size sweep";
      paper_ref = "Richardson [32] memoization"; run = E20_memo_sweep.run };
    { id = "e21"; title = "TNV clear-interval sensitivity";
      paper_ref = "TNV design evaluation"; run = E21_clear_interval.run };
    { id = "e22"; title = "Profile-guided load speculation";
      paper_ref = "Moudgill & Moreno [29], §II.A.1";
      run = E22_speculation.run };
    { id = "e23"; title = "Memoization transform";
      paper_ref = "Richardson [32] memoization"; run = E23_memoization.run };
    { id = "e24"; title = "Phase behaviour (windowed profiling)";
      paper_ref = "Ch. VI stationarity assumption"; run = E24_phases.run } ]

let find id =
  match List.find_opt (fun s -> s.id = id) all with
  | Some s -> s
  | None -> raise Not_found

(* The store holds exactly this rendering, so a served experiment prints
   the bytes a computed one does and a resumed run's output is identical
   to a straight-through run's. *)
let render spec tables =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== %s: %s  [%s] ==\n" spec.id spec.title spec.paper_ref);
  List.iter
    (fun t ->
      Buffer.add_string buf (Table.render t);
      Buffer.add_char buf '\n')
    tables;
  Buffer.contents buf

type run_config = {
  rc_jobs : int option;
  rc_fuel : int option;
  rc_retries : int;
  rc_fail_fast : bool;
  rc_shards : int;
  rc_store : Store.t option;
}

let default_run_config =
  { rc_jobs = None;
    rc_fuel = Supervisor.default_policy.Supervisor.fuel_timeout;
    rc_retries = Supervisor.default_policy.Supervisor.retries;
    rc_fail_fast = false;
    rc_shards = 1;
    rc_store = None }

let policy_of_config c =
  { Supervisor.retries = c.rc_retries;
    fuel_timeout = c.rc_fuel;
    on_error = (if c.rc_fail_fast then `Abort else `Skip) }

(* The store key of a rendered experiment: the unit of cross-invocation
   reuse is the whole rendered payload, fingerprinted by everything that
   could change its bytes (the spec plus the fuel and shard knobs). *)
let spec_key (c : run_config) (spec : spec) =
  Store.Fingerprint.(
    key
      (make ?fuel:c.rc_fuel ~shards:c.rc_shards ~profiler:"experiment"
         ~workload:spec.id ~input:"suite" ()))

(* One path with or without a store: a run without one is a run in which
   every lookup misses. The store is consulted before scheduling, so a
   hit is served without executing anything (reported with
   [o_attempts = 0]); a miss runs and commits its payload as it lands, so
   a killed run still keeps its finished units. *)
let run_strings ?(config = default_run_config) specs =
  Harness.set_shards ~jobs:config.rc_jobs config.rc_shards;
  let lookup spec =
    Option.bind config.rc_store (fun s -> Store.get s (spec_key config spec))
  in
  let compute spec =
    let payload =
      render spec
        (Obs.Trace.with_span ~cat:"experiments" ("experiment:" ^ spec.id)
           spec.run)
    in
    Option.iter
      (fun s -> Store.put s ~key:(spec_key config spec) ~payload)
      config.rc_store;
    payload
  in
  let served = List.map (fun spec -> (spec, lookup spec)) specs in
  let rep =
    Supervisor.map ~policy:(policy_of_config config) ?jobs:config.rc_jobs
      ~name:(fun spec -> spec.id) compute
      (List.filter_map
         (fun (spec, hit) -> if Option.is_none hit then Some spec else None)
         served)
  in
  (* stitch hits back in, in submission order *)
  let misses = ref rep.Supervisor.outcomes in
  let outcomes =
    List.map
      (fun (spec, hit) ->
        match hit with
        | Some payload ->
          { Supervisor.o_name = spec.id; o_attempts = 0; o_result = Ok payload }
        | None -> (
          match !misses with
          | o :: rest ->
            misses := rest;
            o
          | [] -> assert false))
      served
  in
  let hits = List.length specs - List.length rep.Supervisor.outcomes in
  { rep with Supervisor.outcomes; completed = rep.Supervisor.completed + hits }

let failure_line (o : _ Supervisor.outcome) =
  match o.Supervisor.o_result with
  | Ok _ -> None
  | Error e ->
    Some
      (Printf.sprintf "experiment %s FAILED after %d attempt%s: %s"
         o.Supervisor.o_name o.Supervisor.o_attempts
         (if o.Supervisor.o_attempts = 1 then "" else "s")
         (Supervisor.string_of_error e))
