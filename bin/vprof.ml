(* vprof: command-line front end for the value profiler.

   Subcommands: list, run, disasm, emit, profile, memory, procs,
   registers, contexts, phases, trivial, speculate, sample, fused,
   specialize, memoize, diff, experiment, experiments.

   Shared flags (workload/input selection, --fuel, --jobs) live in
   Cli_common; any command that needs more than one profiler run pushes
   the runs through the parallel driver (lib/driver), so -j N parallelizes
   them while keeping output byte-identical to -j 1. Experiment runs go
   through the supervisor (retry/record instead of abort) and are made
   crash-safe by --store (alias --checkpoint): a rerun serves what the
   killed run committed.

   Workload-running commands also accept --deadline / --max-heap /
   --degrade (Cli_common.governance_arg): the run executes under a
   resource budget (lib/util/budget) polled cooperatively by the
   machine. A breached budget without --degrade terminates the command
   with exit code 3 after the telemetry sinks are written; with
   --degrade, memory pressure sheds profiling precision instead.

   Exit codes: 0 success, 1 runtime failure (trap / failed experiment),
   2 usage error, 3 resource budget exceeded, 4 store integrity failure,
   125 internal error. *)

open Cmdliner
open Cli_common

(* list *)

let list_cmd =
  let run () =
    let table =
      Table.create ~title:"Workloads" [ "name"; "mimics"; "description" ]
    in
    List.iter
      (fun (w : Workload.t) ->
        Table.add_row table [ w.wname; w.wmimics; w.wdescr ])
      Workloads.all;
    Table.print table
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available workloads.")
    Term.(const run $ const ())

(* run *)

let run_cmd =
  let run (w : Workload.t) input fuel _jobs trace metrics gov =
    with_obs ~trace ~metrics @@ fun () ->
    with_governance gov @@ fun () ->
    let prog = w.wbuild input in
    let m = Machine.execute ?fuel prog in
    Printf.printf "%s (%s): %s dynamic instructions, v0 = %Ld\n" w.wname
      (Workload.string_of_input input)
      (Table.count (Machine.icount m))
      (Machine.reg m Isa.v0)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a workload without instrumentation.")
    Term.(
      const run $ workload_arg $ input_arg $ fuel_arg $ jobs_arg $ trace_arg
      $ metrics_arg $ governance_arg)

(* disasm *)

let disasm_cmd =
  let run (w : Workload.t) input =
    print_string (Asm.disassemble (w.wbuild input))
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload's program.")
    Term.(const run $ workload_arg $ input_arg)

(* emit *)

let emit_cmd =
  let run (w : Workload.t) input =
    print_string (Parser.emit (w.wbuild input))
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Emit a workload as .vasm assembly source (parseable back with \
          any command's -w FILE).")
    Term.(const run $ workload_arg $ input_arg)

(* profile *)

let tnv_size_arg =
  Arg.(
    value & opt positive_int Vstate.default_config.tnv_capacity
    & info [ "tnv-size" ] ~docv:"N" ~doc:"TNV table capacity.")

let clear_interval_arg =
  Arg.(
    value & opt positive_int Vstate.default_config.clear_interval
    & info [ "clear-interval" ] ~docv:"N"
        ~doc:"TNV clearing period (profiled occurrences).")

let save_arg =
  Arg.(
    value & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Also write the profile to FILE (see Profile_io's format).")

let profile_cmd =
  let run (w : Workload.t) input selection top tnv_size clear_interval save
      fuel jobs shards store stats trace metrics gov =
    with_obs ~trace ~metrics @@ fun () ->
    with_governance gov @@ fun () ->
    let vconfig =
      { Vstate.default_config with
        tnv_capacity = tnv_size; clear_interval }
    in
    let compute () =
      if shards <> 1 then
        (* sharded collection: K slices of ONE execution, each on its own
           domain, merged in shard order (deterministic output) *)
        Shard.profile ~config:vconfig ~selection ?fuel
          ~jobs:(effective_jobs jobs)
          ~shards:(effective_shards shards) w input
      else
        match
          Driver.run_jobs ~jobs:(effective_jobs jobs)
            [ Driver.job
                (module Profile.Profiler)
                ~config:{ Profile.vconfig; selection }
                ?fuel ~finish:Fun.id w input ]
        with
        | [ p ] -> p
        | _ -> assert false
    in
    let profile =
      match store with
      | None -> compute ()
      | Some dir ->
        let s = open_store dir in
        let prog = w.wbuild input in
        let sel_name =
          match selection with
          | `All -> "all"
          | `Loads -> "loads"
          | `Alu -> "alu"
          | `Stores -> "stores"
          | `Pcs _ -> "pcs"
        in
        (* the program text rides in the fingerprint so two distinct
           .vasm files sharing a basename can never alias an entry *)
        let config =
          Printf.sprintf "%s prog=%s"
            (Store.Fingerprint.profile_config vconfig ~selection:sel_name)
            (Crc32.to_hex (Crc32.string (Parser.emit prog)))
        in
        let key =
          Store.Fingerprint.(
            key
              (make ?fuel
                 ~shards:(if shards = 1 then 1 else effective_shards shards)
                 ~config ~profiler:"profile" ~workload:w.wname
                 ~input:(Workload.string_of_input input) ()))
        in
        (match Store.get_profile s ~program:prog ~key with
         | Some p ->
           Printf.eprintf "store: hit %s\n" key;
           p
         | None ->
           let p = compute () in
           Store.put_profile s ~key p;
           Printf.eprintf "store: miss %s (committed)\n" key;
           p)
    in
    (match save with
     | Some path ->
       Profile_io.write_file profile path;
       Printf.printf "profile written to %s\n" path
     | None -> ());
    let points =
      Array.to_list profile.Profile.points
      |> List.filter (fun (p : Profile.point) -> p.p_metrics.Metrics.total > 0)
      |> List.sort (fun (a : Profile.point) b ->
             compare b.p_metrics.Metrics.total a.p_metrics.Metrics.total)
    in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "%s (%s): %d points, %s profiled events" w.wname
             (Workload.string_of_input input)
             profile.Profile.instrumented
             (Table.count profile.Profile.profiled_events))
        [ "pc"; "proc"; "instr"; "execs"; "LVP"; "Inv-Top"; "Inv-All";
          "%zero"; "Diff"; "class"; "predictor"; "top value" ]
    in
    List.iteri
      (fun i (p : Profile.point) ->
        if i < top then begin
          let m = p.p_metrics in
          Table.add_row table
            [ string_of_int p.p_pc; p.p_proc;
              Isa.to_string p.p_instr;
              Table.count m.Metrics.total;
              Table.pct m.Metrics.lvp;
              Table.pct m.Metrics.inv_top;
              Table.pct m.Metrics.inv_all;
              Table.pct m.Metrics.zero;
              string_of_int m.Metrics.distinct
              ^ (if m.Metrics.distinct_saturated then "+" else "");
              Metrics.string_of_classification (Metrics.classify m);
              Metrics.string_of_predictor_class (Metrics.predictor_class m);
              (match m.Metrics.top_values with
               | [||] -> "-"
               | tv -> Int64.to_string (fst tv.(0))) ]
        end)
      points;
    Table.print table;
    print_stats stats "profile" (Profile.Profiler.stats profile)
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Value-profile a workload (full profiling).")
    Term.(
      const run $ workload_arg $ input_arg $ selection_arg $ top_arg
      $ tnv_size_arg $ clear_interval_arg $ save_arg $ fuel_arg $ jobs_arg
      $ shards_arg $ store_arg $ stats_arg $ trace_arg
      $ metrics_arg $ governance_arg)

(* memory *)

let memory_cmd =
  let run (w : Workload.t) input top fuel jobs stats trace metrics gov =
    with_obs ~trace ~metrics @@ fun () ->
    with_governance gov @@ fun () ->
    let r =
      match
        Driver.run_jobs ~jobs:(effective_jobs jobs)
          [ Driver.job (module Memprof.Profiler) ?fuel ~finish:Fun.id w input ]
      with
      | [ r ] -> r
      | _ -> assert false
    in
    Printf.printf
      "%s (%s): %s locations, %s events, %.1f%% of accesses >=90%% invariant\n"
      w.wname
      (Workload.string_of_input input)
      (Table.count (Array.length r.Memprof.locations))
      (Table.count r.Memprof.tracked_events)
      (100. *. Memprof.fraction_invariant r ~threshold:0.9);
    let table =
      Table.create ~title:"Hottest locations"
        [ "address"; "accesses"; "LVP"; "Inv-Top"; "Inv-All"; "top value" ]
    in
    Array.iteri
      (fun i (l : Memprof.location) ->
        if i < top then
          Table.add_row table
            [ Printf.sprintf "0x%Lx" l.l_addr;
              Table.count l.l_metrics.Metrics.total;
              Table.pct l.l_metrics.Metrics.lvp;
              Table.pct l.l_metrics.Metrics.inv_top;
              Table.pct l.l_metrics.Metrics.inv_all;
              (match l.l_metrics.Metrics.top_values with
               | [||] -> "-"
               | tv -> Int64.to_string (fst tv.(0))) ])
      r.Memprof.locations;
    Table.print table;
    print_stats stats "memory" (Memprof.Profiler.stats r)
  in
  Cmd.v
    (Cmd.info "memory" ~doc:"Profile memory locations (Chapter VII).")
    Term.(
      const run $ workload_arg $ input_arg $ top_arg $ fuel_arg $ jobs_arg
      $ stats_arg $ trace_arg $ metrics_arg $ governance_arg)

(* procs *)

let procs_cmd =
  let run (w : Workload.t) input fuel jobs stats trace metrics gov =
    with_obs ~trace ~metrics @@ fun () ->
    with_governance gov @@ fun () ->
    let config = { Procprof.default_config with arities = w.warities } in
    let pp =
      match
        Driver.run_jobs ~jobs:(effective_jobs jobs)
          [ Driver.job (module Procprof.Profiler) ~config ?fuel ~finish:Fun.id
              w input ]
      with
      | [ pp ] -> pp
      | _ -> assert false
    in
    let table =
      Table.create
        ~title:(Printf.sprintf "%s (%s): procedure profile" w.wname
                  (Workload.string_of_input input))
        [ "procedure"; "calls"; "params Inv-Top"; "ret Inv-Top"; "memo hits" ]
    in
    Array.iter
      (fun (r : Procprof.proc_report) ->
        if r.r_calls > 0 then
          Table.add_row table
            [ r.r_name;
              Table.count r.r_calls;
              (if Array.length r.r_params = 0 then "-"
               else
                 String.concat " / "
                   (Array.to_list
                      (Array.map
                         (fun (m : Metrics.t) -> Table.pct m.inv_top)
                         r.r_params)));
              Table.pct r.r_return.Metrics.inv_top;
              string_of_int r.r_memo_hits ])
      pp.Procprof.procs;
    Table.print table;
    print_stats stats "procs" (Procprof.Profiler.stats pp)
  in
  Cmd.v
    (Cmd.info "procs" ~doc:"Profile procedure parameters and returns.")
    Term.(
      const run $ workload_arg $ input_arg $ fuel_arg $ jobs_arg $ stats_arg
      $ trace_arg $ metrics_arg $ governance_arg)

(* registers *)

let registers_cmd =
  let run (w : Workload.t) input fuel _jobs trace metrics gov =
    with_obs ~trace ~metrics @@ fun () ->
    with_governance gov @@ fun () ->
    let r = Regprof.run ?fuel (w.wbuild input) in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "%s (%s): register value profile" w.wname
             (Workload.string_of_input input))
        [ "register"; "writes"; "LVP"; "Inv-Top"; "Inv-All"; "%zero";
          "top value" ]
    in
    Array.iter
      (fun (g : Regprof.reg_report) ->
        Table.add_row table
          [ Isa.string_of_reg g.g_reg;
            Table.count g.g_writes;
            Table.pct g.g_metrics.Metrics.lvp;
            Table.pct g.g_metrics.Metrics.inv_top;
            Table.pct g.g_metrics.Metrics.inv_all;
            Table.pct g.g_metrics.Metrics.zero;
            (match g.g_metrics.Metrics.top_values with
             | [||] -> "-"
             | tv -> Int64.to_string (fst tv.(0))) ])
      r.Regprof.regs;
    Table.print table
  in
  Cmd.v
    (Cmd.info "registers"
       ~doc:"Profile values written per architectural register.")
    Term.(
      const run $ workload_arg $ input_arg $ fuel_arg $ jobs_arg $ trace_arg
      $ metrics_arg $ governance_arg)

(* sample *)

let sample_cmd =
  let burst =
    Arg.(value & opt positive_int Sampler.default_config.burst
         & info [ "burst" ] ~docv:"N" ~doc:"Executions profiled per burst.")
  in
  let skip =
    Arg.(value & opt non_negative_int Sampler.default_config.initial_skip
         & info [ "skip" ] ~docv:"N" ~doc:"Executions skipped between bursts.")
  in
  let epsilon =
    Arg.(value & opt finite_non_negative_float Sampler.default_config.epsilon
         & info [ "epsilon" ] ~docv:"E" ~doc:"Convergence threshold.")
  in
  let run (w : Workload.t) input burst skip epsilon fuel jobs stats trace
      metrics gov =
    with_obs ~trace ~metrics @@ fun () ->
    with_governance gov @@ fun () ->
    let config =
      { Sampler.default_config with burst; initial_skip = skip; epsilon }
    in
    let sconfig = { Sampler.Profiler.default_config with Sampler.sampler = config } in
    (* two driver jobs sharing the (workload, input, fuel) key: the
       scheduler fuses them onto one machine execution *)
    match
      Driver.run_jobs ~jobs:(effective_jobs jobs)
        [ Driver.job (module Sampler.Profiler) ~config:sconfig ?fuel
            ~finish:(fun s -> `Sampled s) w input;
          Driver.job (module Profile.Profiler) ?fuel
            ~finish:(fun p -> `Full p) w input ]
    with
    | [ `Sampled sampled; `Full full ] ->
      Printf.printf
        "%s (%s): overhead %.2f%% (%s of %s events), invariance error %.2f%%\n"
        w.wname
        (Workload.string_of_input input)
        (100. *. sampled.Sampler.overhead)
        (Table.count sampled.Sampler.profiled_events)
        (Table.count sampled.Sampler.total_events)
        (100. *. Sampler.invariance_error sampled full);
      print_stats stats "sample" (Sampler.Profiler.stats sampled)
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Convergent (sampled) value profiling.")
    Term.(
      const run $ workload_arg $ input_arg $ burst $ skip $ epsilon $ fuel_arg
      $ jobs_arg $ stats_arg $ trace_arg $ metrics_arg $ governance_arg)

(* specialize *)

let specialize_cmd =
  let run (w : Workload.t) input fuel _jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let config = { Procprof.default_config with arities = w.warities } in
    let prog = w.wbuild input in
    let pp = Procprof.run ~config ?fuel prog in
    match Specialize.candidates pp ~min_calls:100 ~min_inv:0.5 with
    | [] -> print_endline "no semi-invariant parameter candidates found"
    | (proc, param, value, inv) :: _ ->
      Printf.printf "candidate: %s(%s = %Ld), Inv-Top %.1f%%\n" proc
        (Isa.string_of_reg param) value (100. *. inv);
      (match Specialize.specialize prog ~proc ~param ~value with
       | report ->
         let equal, before, after =
           Specialize.differential prog report.Specialize.sp_program
         in
         Printf.printf
           "specialized body: %d -> %d instructions (%d folded, %d branches resolved, %d dead)\n"
           report.Specialize.sp_static_before report.Specialize.sp_static_after
           report.Specialize.sp_folded report.Specialize.sp_branches_resolved
           report.Specialize.sp_dead_removed;
         Printf.printf "dynamic instructions: %s -> %s (%+.1f%%), results %s\n"
           (Table.count before) (Table.count after)
           (100. *. float_of_int (after - before) /. float_of_int before)
           (if equal then "identical" else "DIFFER")
       | exception Body.Unsupported msg ->
         Printf.printf "cannot specialize: %s\n" msg)
  in
  Cmd.v
    (Cmd.info "specialize"
       ~doc:"Specialize the best semi-invariant procedure parameter.")
    Term.(
      const run $ workload_arg $ input_arg $ fuel_arg $ jobs_arg $ trace_arg
      $ metrics_arg)

(* trivial *)

let trivial_cmd =
  let run (w : Workload.t) input fuel _jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let r = Trivprof.run ?fuel (w.wbuild input) in
    Printf.printf
      "%s (%s): %s ALU events, %s measured, %.1f%% trivial (%s via immediates, %s via run-time values)\n"
      w.wname
      (Workload.string_of_input input)
      (Table.count r.Trivprof.alu_events)
      (Table.count r.Trivprof.measured)
      (100. *. Trivprof.trivial_fraction r)
      (Table.count r.Trivprof.trivial_imm)
      (Table.count r.Trivprof.trivial_dyn);
    List.iter
      (fun (kind, n) -> Printf.printf "  %-14s %s\n" kind (Table.count n))
      r.Trivprof.by_kind
  in
  Cmd.v
    (Cmd.info "trivial"
       ~doc:"Profile trivial arithmetic operands (Richardson [32]).")
    Term.(
      const run $ workload_arg $ input_arg $ fuel_arg $ jobs_arg $ trace_arg
      $ metrics_arg)

(* speculate *)

let speculate_cmd =
  let run (w : Workload.t) input top fuel _jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let prog = w.wbuild input in
    let t = Specul.run ?fuel prog in
    Printf.printf
      "%s (%s): %s load executions, %.1f%% would fail a hoisted value check\n"
      w.wname
      (Workload.string_of_input input)
      (Table.count t.Specul.total_executions)
      (100. *. Specul.conflict_rate t ~select:(fun _ -> true));
    let table =
      Table.create ~title:"Per-load conflict rates"
        [ "pc"; "instr"; "execs"; "conflicts"; "rate" ]
    in
    Array.iteri
      (fun i (l : Specul.load_report) ->
        if i < top then
          Table.add_row table
            [ string_of_int l.sl_pc;
              Isa.to_string prog.Asm.code.(l.sl_pc);
              Table.count l.sl_executions;
              Table.count l.sl_conflicts;
              Table.pct l.sl_conflict_rate ])
      t.Specul.loads;
    Table.print table
  in
  Cmd.v
    (Cmd.info "speculate"
       ~doc:
         "Profile speculative-load value-check conflicts (Moudgill & \
          Moreno [29]).")
    Term.(
      const run $ workload_arg $ input_arg $ top_arg $ fuel_arg $ jobs_arg
      $ trace_arg $ metrics_arg)

(* phases *)

let phases_cmd =
  let window_arg =
    Arg.(
      value & opt int Phaseprof.default_config.window
      & info [ "window" ] ~docv:"N" ~doc:"Executions per window.")
  in
  let run (w : Workload.t) input top window fuel _jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let config = { Phaseprof.default_config with window } in
    let t = Phaseprof.run ~config ~selection:`Loads ?fuel (w.wbuild input) in
    Printf.printf "%s (%s): mean load-invariance drift %.1f%% (window %d)\n"
      w.wname
      (Workload.string_of_input input)
      (100. *. Phaseprof.mean_drift t)
      window;
    let table =
      Table.create ~title:"Most phased points"
        [ "pc"; "instr"; "execs"; "overall InvTop"; "drift"; "windows" ]
    in
    let sorted = Array.copy t.Phaseprof.points in
    Array.sort
      (fun (a : Phaseprof.point) b -> compare b.ph_drift a.ph_drift)
      sorted;
    Array.iteri
      (fun i (p : Phaseprof.point) ->
        if i < top && p.ph_total > 0 then
          Table.add_row table
            [ string_of_int p.ph_pc;
              Isa.to_string p.ph_instr;
              Table.count p.ph_total;
              Table.pct p.ph_overall;
              Table.pct p.ph_drift;
              String.concat " "
                (Array.to_list
                   (Array.map
                      (fun wv -> Printf.sprintf "%.0f" (100. *. wv))
                      p.ph_windows)) ])
      sorted;
    Table.print table
  in
  Cmd.v
    (Cmd.info "phases"
       ~doc:"Windowed (phase) profiling of load invariance over time.")
    Term.(
      const run $ workload_arg $ input_arg $ top_arg $ window_arg $ fuel_arg
      $ jobs_arg $ trace_arg $ metrics_arg)

(* contexts *)

let contexts_cmd =
  let run (w : Workload.t) input fuel jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let prog = w.wbuild input in
    let config = { Ctxprof.default_config with arities = w.warities } in
    let flat_config = { Procprof.default_config with arities = w.warities } in
    (* two independent instrumented runs of the same (immutable) program *)
    match
      Driver.map ~jobs:(effective_jobs jobs)
        (fun run -> run ())
        [ (fun () -> `Ctx (Ctxprof.run ~config ?fuel prog));
          (fun () -> `Flat (Procprof.run ~config:flat_config ?fuel prog)) ]
    with
    | [ `Ctx ctx; `Flat flat ] ->
      let table =
        Table.create
          ~title:
            (Printf.sprintf "%s (%s): parameter invariance by call site"
               w.wname
               (Workload.string_of_input input))
          [ "procedure"; "flat Inv-Top"; "per-site Inv-Top"; "gain" ]
      in
      List.iter
        (fun (name, flat_inv, ctx_inv) ->
          Table.add_row table
            [ name; Table.pct flat_inv; Table.pct ctx_inv;
              Printf.sprintf "%+.1fpp" (100. *. (ctx_inv -. flat_inv)) ])
        (Ctxprof.context_gain ctx flat);
      Table.print table
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "contexts"
       ~doc:"Call-site-sensitive parameter profiling (Young & Smith [40]).")
    Term.(
      const run $ workload_arg $ input_arg $ fuel_arg $ jobs_arg $ trace_arg
      $ metrics_arg)

(* memoize *)

let memoize_cmd =
  let proc_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "proc" ] ~docv:"NAME"
          ~doc:
            "Procedure to memoize. Must be pure modulo read-only memory — \
             the transform cannot check this; the differential run will \
             expose violations.")
  in
  let arity_arg =
    Arg.(
      value & opt int 1
      & info [ "a"; "arity" ] ~docv:"N" ~doc:"Number of arguments (1-6).")
  in
  let run (w : Workload.t) input proc arity _jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let prog = w.wbuild input in
    match Memoize.memoize prog ~proc ~arity with
    | report ->
      let equal, before, after = Memoize.differential prog report in
      Printf.printf
        "memoized %s/%d with a %d-line cache at 0x%Lx\n"
        proc arity report.Memoize.m_entries report.Memoize.m_table_base;
      Printf.printf "dynamic instructions: %s -> %s (%+.1f%%), results %s\n"
        (Table.count before) (Table.count after)
        (100. *. float_of_int (after - before) /. float_of_int before)
        (if equal then "identical" else "DIFFER (procedure is not pure!)")
    | exception Body.Unsupported msg -> Printf.printf "cannot memoize: %s\n" msg
    | exception Not_found -> Printf.printf "no procedure named %S\n" proc
  in
  Cmd.v
    (Cmd.info "memoize"
       ~doc:"Install a memoization cache on a pure procedure (Richardson [32]).")
    Term.(
      const run $ workload_arg $ input_arg $ proc_arg $ arity_arg $ jobs_arg
      $ trace_arg $ metrics_arg)

(* diff *)

let diff_cmd =
  let run (w : Workload.t) top fuel jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let pt, ptr =
      match
        Driver.run_jobs ~jobs:(effective_jobs jobs)
          [ Driver.job (module Profile.Profiler) ?fuel ~finish:Fun.id w
              Workload.Test;
            Driver.job (module Profile.Profiler) ?fuel ~finish:Fun.id w
              Workload.Train ]
      with
      | [ pt; ptr ] -> (pt, ptr)
      | _ -> assert false
    in
    let pairs =
      Array.to_list pt.Profile.points
      |> List.filter_map (fun (a : Profile.point) ->
             if a.p_metrics.Metrics.total = 0 then None
             else
               match Profile.point_at ptr a.p_pc with
               | Some b when b.Profile.p_metrics.Metrics.total > 0 -> Some (a, b)
               | Some _ | None -> None)
    in
    (if List.length pairs >= 2 then begin
       let xs =
         Array.of_list
           (List.map (fun ((a : Profile.point), _) -> a.p_metrics.Metrics.inv_top) pairs)
       in
       let ys =
         Array.of_list
           (List.map (fun (_, (b : Profile.point)) -> b.Profile.p_metrics.Metrics.inv_top) pairs)
       in
       Printf.printf "%s: %d shared points, Inv-Top correlation %.3f (test vs train)\n"
         w.wname (List.length pairs) (Stats.pearson xs ys)
     end);
    let table =
      Table.create ~title:"Largest invariance movements between inputs"
        [ "pc"; "proc"; "instr"; "InvTop test"; "InvTop train"; "delta" ]
    in
    pairs
    |> List.sort (fun ((a1 : Profile.point), (b1 : Profile.point)) (a2, b2) ->
           compare
             (abs_float
                (a2.Profile.p_metrics.Metrics.inv_top
                 -. b2.Profile.p_metrics.Metrics.inv_top))
             (abs_float
                (a1.p_metrics.Metrics.inv_top -. b1.p_metrics.Metrics.inv_top)))
    |> List.iteri (fun i ((a : Profile.point), (b : Profile.point)) ->
           if i < top then
             Table.add_row table
               [ string_of_int a.p_pc; a.p_proc;
                 Isa.to_string a.p_instr;
                 Table.pct a.p_metrics.Metrics.inv_top;
                 Table.pct b.p_metrics.Metrics.inv_top;
                 Printf.sprintf "%+.1fpp"
                   (100.
                    *. (b.p_metrics.Metrics.inv_top
                        -. a.p_metrics.Metrics.inv_top)) ]);
    Table.print table
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare a workload's test and train profiles (Table V.5 style).")
    Term.(
      const run $ workload_arg $ top_arg $ fuel_arg $ jobs_arg $ trace_arg
      $ metrics_arg)

(* experiment / experiments *)

let csv_arg =
  Arg.(
    value & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write each produced table to DIR as a CSV file.")

(* On experiment/experiments --checkpoint is another name for --store:
   a grid committed as it runs is a store filled as it runs. *)
let experiments_store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store"; "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Profile store directory: each finished experiment (and each \
           value profile it needs) is committed to DIR as the run \
           progresses, keyed by its fingerprint (experiment, fuel, \
           shards). A later run with the same DIR serves what is already \
           committed without executing it, so rerunning a killed suite \
           finishes only the missing work, byte-identical to a \
           straight-through run. Inspect with $(b,vprof store).")

let retries_arg =
  Arg.(
    value & opt int Supervisor.default_policy.Supervisor.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts for a failing experiment before it is recorded \
           as a failure (fuel-exhausted retries double the budget each \
           time).")

let fail_fast_arg =
  Arg.(
    value & flag
    & info [ "fail-fast" ]
        ~doc:
          "Stop scheduling new experiments as soon as one has failed all \
           its retries (the default records the failure and keeps \
           going).")

let write_csv dir (spec : Experiments.spec) tables =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i table ->
      let path = Filename.concat dir (Printf.sprintf "%s_%d.csv" spec.id i) in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Table.to_csv table));
      Printf.printf "wrote %s\n" path)
    tables

let print_spec_tables csv ((spec : Experiments.spec), tables) =
  Printf.printf "== %s: %s  [%s] ==\n" spec.id spec.title spec.paper_ref;
  List.iter
    (fun t ->
      Table.print t;
      print_newline ())
    tables;
  match csv with Some dir -> write_csv dir spec tables | None -> ()

(* Exit codes (see the trailer in [main]): 0 success, 1 runtime failure
   (a trap, or an experiment that failed all its retries), 2 usage
   error. *)

let report_failures failures =
  List.iter
    (fun f -> prerr_endline (Experiments.string_of_failure f))
    failures

let run_experiments id csv jobs shards store retries fail_fast fuel trace
    metrics gov =
  let specs =
    if id = "all" then Experiments.all
    else
      match Experiments.find id with
      | spec -> [ spec ]
      | exception Not_found ->
        Printf.eprintf "unknown experiment %S; known: %s\n" id
          (String.concat ", "
             (List.map (fun (s : Experiments.spec) -> s.id) Experiments.all));
        exit 2
  in
  (* the one run_config both entry points below share — the sinks ride in
     the config, so the library (not the CLI) owns enabling/writing them *)
  let config =
    { Experiments.default_run_config with
      Experiments.rc_jobs = Some (effective_jobs jobs);
      rc_fuel = fuel;
      rc_retries = max 0 retries;
      rc_fail_fast = fail_fast;
      rc_trace = trace;
      rc_metrics = metrics;
      rc_shards = effective_shards shards }
  in
  (* governance is armed around the whole supervised run: the supervisor
     polls the budget between attempts and classifies Deadline /
     Mem_pressure trips per job, so a budgeted suite records failures
     (exit 1) rather than dying with exit 3 *)
  with_governance gov @@ fun () ->
  match store with
  | None ->
    let rep = Experiments.run ~config specs in
    List.iter (fun r -> print_spec_tables csv r) rep.Experiments.results;
    if rep.Experiments.failures <> [] then begin
      report_failures rep.Experiments.failures;
      exit 1
    end
  | Some dir ->
    (* the rendered-payload path: each experiment's bytes are committed
       as they land and cached units are served without running
       (byte-identical output either way, since [Experiments.render] is
       the payload) *)
    if csv <> None then begin
      prerr_endline
        "vprof: --csv needs the experiments' tables, which \
         --store/--checkpoint runs do not retain; use one or the other";
      exit 2
    end;
    let rep =
      Experiments.run_strings
        ~config:{ config with Experiments.rc_store = Some (open_store dir) }
        specs
    in
    List.iter
      (fun (o : string Supervisor.outcome) ->
        match o.Supervisor.o_result with
        | Ok payload -> print_string payload
        | Error _ -> ())
      rep.Supervisor.outcomes;
    (* visible hit accounting on stderr, so stdout stays byte-identical
       between cold and warm runs *)
    let served =
      List.length
        (List.filter
           (fun (o : string Supervisor.outcome) ->
             o.Supervisor.o_attempts = 0 && Result.is_ok o.Supervisor.o_result)
           rep.Supervisor.outcomes)
    in
    Printf.eprintf "store: %d of %d experiments served from cache\n" served
      (List.length rep.Supervisor.outcomes);
    (match Supervisor.failures rep with
     | [] -> ()
     | failures ->
       List.iter
         (fun (o : string Supervisor.outcome) ->
           match o.Supervisor.o_result with
           | Ok _ -> ()
           | Error e ->
             Printf.eprintf "experiment %s FAILED after %d attempts: %s\n"
               o.Supervisor.o_name o.Supervisor.o_attempts
               (Supervisor.string_of_error e))
         failures;
       Printf.eprintf
         "%d of %d experiments failed; completed work is committed under %s \
          — rerun with the same directory to retry only the failures\n"
         (List.length failures)
         (List.length rep.Supervisor.outcomes)
         dir;
       exit 1)

(* fused *)

(* One driver job per requested profiler, every job sharing the same
   (workload, input, fuel) key, so Driver.run_jobs coalesces them into a
   single machine execution. Each finish continuation reduces the typed
   result to (name, one-line summary, dynamic instructions, counters). *)
let fused_job (w : Workload.t) input fuel name =
  let ok j = Ok j in
  match name with
  | "profile" ->
    ok
      (Driver.job (module Profile.Profiler) ?fuel
         ~finish:(fun (p : Profile.t) ->
           ( name,
             Printf.sprintf "%d points, %s profiled events" p.instrumented
               (Table.count p.profiled_events),
             p.dynamic_instructions, Profile.Profiler.stats p ))
         w input)
  | "sample" ->
    ok
      (Driver.job (module Sampler.Profiler) ?fuel
         ~finish:(fun (s : Sampler.t) ->
           ( name,
             Printf.sprintf "overhead %.2f%% (%s of %s events)"
               (100. *. s.overhead)
               (Table.count s.profiled_events)
               (Table.count s.total_events),
             s.dynamic_instructions, Sampler.Profiler.stats s ))
         w input)
  | "memory" ->
    ok
      (Driver.job (module Memprof.Profiler) ?fuel
         ~finish:(fun (m : Memprof.t) ->
           ( name,
             Printf.sprintf "%d locations, %s tracked events"
               (Array.length m.locations)
               (Table.count m.tracked_events),
             m.dynamic_instructions, Memprof.Profiler.stats m ))
         w input)
  | "procs" ->
    let config = { Procprof.default_config with arities = w.warities } in
    ok
      (Driver.job (module Procprof.Profiler) ~config ?fuel
         ~finish:(fun (p : Procprof.t) ->
           ( name,
             Printf.sprintf "%d procedures, %s calls" (Array.length p.procs)
               (Table.count p.total_calls),
             p.dynamic_instructions, Procprof.Profiler.stats p ))
         w input)
  | "registers" ->
    ok
      (Driver.job (module Regprof.Profiler) ?fuel
         ~finish:(fun (r : Regprof.t) ->
           ( name,
             Printf.sprintf "%d registers written, %s writes"
               (Array.length r.regs)
               (Table.count r.total_writes),
             r.dynamic_instructions, Regprof.Profiler.stats r ))
         w input)
  | "contexts" ->
    let config = { Ctxprof.default_config with arities = w.warities } in
    ok
      (Driver.job (module Ctxprof.Profiler) ~config ?fuel
         ~finish:(fun (c : Ctxprof.t) ->
           ( name,
             Printf.sprintf "%d contexts, %s untracked calls"
               (Array.length c.contexts)
               (Table.count c.untracked_calls),
             c.dynamic_instructions, Ctxprof.Profiler.stats c ))
         w input)
  | "phases" ->
    ok
      (Driver.job (module Phaseprof.Profiler) ?fuel
         ~finish:(fun (p : Phaseprof.t) ->
           ( name,
             Printf.sprintf "%d points, mean drift %.2f%%"
               (Array.length p.points)
               (100. *. Phaseprof.mean_drift p),
             p.dynamic_instructions, Phaseprof.Profiler.stats p ))
         w input)
  | "trivial" ->
    ok
      (Driver.job (module Trivprof.Profiler) ?fuel
         ~finish:(fun (t : Trivprof.t) ->
           ( name,
             Printf.sprintf "%s ALU events, %.2f%% trivial"
               (Table.count t.alu_events)
               (100. *. Trivprof.trivial_fraction t),
             t.dynamic_instructions, Trivprof.Profiler.stats t ))
         w input)
  | "speculate" ->
    ok
      (Driver.job (module Specul.Profiler) ?fuel
         ~finish:(fun (s : Specul.t) ->
           ( name,
             Printf.sprintf "%d loads, %s conflicts in %s executions"
               (Array.length s.loads)
               (Table.count s.total_conflicts)
               (Table.count s.total_executions),
             s.dynamic_instructions, Specul.Profiler.stats s ))
         w input)
  | other -> Error other

let fused_cmd =
  let profilers_arg =
    Arg.(
      value
      & opt string "profile,memory,procs"
      & info [ "profilers" ] ~docv:"LIST"
          ~doc:
            "Comma-separated profilers to fuse onto one machine \
             execution: profile, sample, memory, procs, registers, \
             contexts, phases, trivial, speculate.")
  in
  let run (w : Workload.t) input profilers fuel jobs stats trace metrics gov =
    with_obs ~trace ~metrics @@ fun () ->
    with_governance gov @@ fun () ->
    let names =
      String.split_on_char ',' profilers
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if names = [] then `Error (true, "--profilers: empty list")
    else
      match
        List.fold_left
          (fun acc name ->
            match (acc, fused_job w input fuel name) with
            | Error e, _ -> Error e
            | Ok js, Ok j -> Ok (j :: js)
            | Ok _, Error other -> Error other)
          (Ok []) names
      with
      | Error other ->
        `Error (true, Printf.sprintf "--profilers: unknown profiler %S" other)
      | Ok rev_jobs ->
        let js = List.rev rev_jobs in
        Printf.printf "schedule: %s\n" (String.concat "; " (Driver.plan js));
        let results = Driver.run_jobs ~jobs:(effective_jobs jobs) js in
        (match results with
         | (_, _, dyn, _) :: _ ->
           Printf.printf
             "%s (%s): %d profilers, one machine execution, %s machine steps\n"
             w.wname
             (Workload.string_of_input input)
             (List.length results) (Table.count dyn)
         | [] -> ());
        List.iter
          (fun (name, line, _, c) ->
            Printf.printf "  %-10s %s\n" name line;
            print_stats stats name c)
          results;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "fused"
       ~doc:
         "Run several profilers over ONE machine execution. Jobs sharing \
          a (workload, input, fuel) key coalesce in the driver, so the \
          workload executes once however many profilers observe it; each \
          profiler's result is identical to its solo run.")
    Term.(
      ret
        (const run $ workload_arg $ input_arg $ profilers_arg $ fuel_arg
        $ jobs_arg $ stats_arg $ trace_arg $ metrics_arg $ governance_arg))

let experiment_cmd =
  let id_arg =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id (e01..e24) or 'all'.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's tables and figures (see DESIGN.md).")
    Term.(
      const run_experiments $ id_arg $ csv_arg $ jobs_arg $ shards_arg
      $ experiments_store_arg $ retries_arg $ fail_fast_arg $ fuel_arg
      $ trace_arg $ metrics_arg $ governance_arg)

let experiments_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Run the whole suite (the default when no ID is given).")
  in
  let id_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (e01..e24); omit for all.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run only the quick smoke experiment (e01) — enough to \
             exercise the machine, driver and supervisor layers; CI pairs \
             it with $(b,--trace)/$(b,--metrics) to validate the \
             telemetry pipeline cheaply.")
  in
  let run all id smoke csv jobs shards store retries fail_fast fuel trace
      metrics gov =
    let id =
      if smoke then "e01"
      else if all then "all"
      else Option.value id ~default:"all"
    in
    run_experiments id csv jobs shards store retries fail_fast fuel trace
      metrics gov
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Run the experiment suite — all of it with $(b,--all) (or no ID), \
          in parallel with $(b,-j N); output is byte-identical to a serial \
          run. A failing experiment is retried, then recorded and \
          reported instead of aborting the rest; $(b,--store) (or its \
          alias $(b,--checkpoint)) makes the run crash-safe, and a rerun \
          with the same directory continues one.")
    Term.(
      const run $ all_arg $ id_arg $ smoke_arg $ csv_arg $ jobs_arg
      $ shards_arg $ experiments_store_arg $ retries_arg $ fail_fast_arg
      $ fuel_arg $ trace_arg $ metrics_arg $ governance_arg)

(* store *)

let store_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Profile store directory.")

let store_ls_cmd =
  let run dir =
    let s = Store.open_dir dir in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "Profile store %s (generation %d)" dir
             (Store.generation s))
        [ "key"; "gen"; "bytes" ]
    in
    List.iter
      (fun (e : Store.info) ->
        Table.add_row table
          [ e.i_key; string_of_int e.i_gen; Table.count e.i_bytes ])
      (Store.entries s);
    Table.print table
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List the store's entries (key, generation, size).")
    Term.(const run $ store_dir_arg)

let store_get_cmd =
  let key_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"KEY" ~doc:"Store key (as printed by $(b,store ls)).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the payload to FILE instead of stdout.")
  in
  let workload_opt_arg =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:
            "Decode the entry as a profile of this workload and emit the \
             text (v2) rendering instead of the raw stored bytes.")
  in
  let run dir key out w input =
    let s = Store.open_dir dir in
    match Store.find s key with
    | None ->
      Printf.eprintf "vprof: no store entry %s\n" key;
      exit 1
    | Some payload ->
      let bytes =
        match w with
        | None -> payload
        | Some (wl : Workload.t) ->
          (match Profile_io.of_string ~program:(wl.wbuild input) payload with
           | p -> Profile_io.to_string p
           | exception Failure msg ->
             Printf.eprintf "vprof: %s\n" msg;
             exit 1)
      in
      (match out with
       | None -> print_string bytes
       | Some path ->
         let oc = open_out_bin path in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () -> output_string oc bytes);
         Printf.printf "wrote %s (%d bytes)\n" path (String.length bytes))
  in
  Cmd.v
    (Cmd.info "get"
       ~doc:
         "Print one entry's payload — raw bytes by default, or decoded to \
          profile text with $(b,-w).")
    Term.(const run $ store_dir_arg $ key_arg $ out_arg $ workload_opt_arg
          $ input_arg)

let store_merge_cmd =
  let into_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "into" ] ~docv:"KEY"
          ~doc:"Destination key (merged with its current entry, if any).")
  in
  let keys_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"KEY" ~doc:"Source profile entries to merge.")
  in
  let run dir (w : Workload.t) input into keys =
    let s = open_store dir in
    let prog = w.wbuild input in
    let load k =
      match Store.get_profile s ~program:prog ~key:k with
      | Some p -> p
      | None ->
        Printf.eprintf
          "vprof: store entry %s is missing or not a decodable profile of %s\n"
          k w.wname;
        exit 1
    in
    let merged = Profile.merge (List.map load keys) in
    (* get-then-put, not transactional: two concurrent merges into one
       key can lose one side's increment *)
    (match Store.get_profile s ~program:prog ~key:into with
     | None -> Store.put_profile s ~key:into merged
     | Some old -> Store.put_profile s ~key:into (Profile.merge [ old; merged ]));
    Printf.printf "merged %d profile%s into %s (%s profiled events)\n"
      (List.length keys)
      (if List.length keys = 1 then "" else "s")
      into
      (Table.count merged.Profile.profiled_events)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge stored profile entries (Profile.merge semantics: totals \
          add, TNV tables fuse) into a destination entry.")
    Term.(const run $ store_dir_arg $ workload_arg $ input_arg $ into_arg
          $ keys_arg)

let store_gc_cmd =
  let keep_arg =
    Arg.(
      value & opt int 1
      & info [ "keep" ] ~docv:"N"
          ~doc:
            "Keep entries written within the last N generations (each \
             profiling invocation against the store opens one generation).")
  in
  let run dir keep =
    let s = Store.open_dir dir in
    let removed = Store.gc s ~keep in
    Printf.printf "removed %d entr%s (generation %d, keeping %d)\n" removed
      (if removed = 1 then "y" else "ies")
      (Store.generation s) keep
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"Collect entries older than the last N generations.")
    Term.(const run $ store_dir_arg $ keep_arg)

let store_stats_cmd =
  let run dir =
    let s = Store.open_dir dir in
    let st = Store.stats s in
    let table =
      Table.create ~title:(Printf.sprintf "Profile store %s" dir)
        [ "metric"; "value" ]
    in
    Table.add_row table [ "entries"; string_of_int st.Store.st_entries ];
    Table.add_row table [ "bytes"; Table.count st.Store.st_bytes ];
    Table.add_row table [ "generation"; string_of_int st.Store.st_generation ];
    Table.add_row table [ "lost"; string_of_int st.Store.st_lost ];
    Table.print table
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Entry count, total bytes and current generation.")
    Term.(const run $ store_dir_arg)

(* verify and scrub share one report rendering; verify is the CI gate
   (exit 4 on any damage). *)
let print_check dir what (c : Store.check) =
  let table =
    Table.create ~title:(Printf.sprintf "Store %s %s" what dir)
      [ "metric"; "value" ]
  in
  Table.add_row table [ "entries"; string_of_int c.Store.c_entries ];
  Table.add_row table [ "copies ok"; string_of_int c.Store.c_copies_ok ];
  Table.add_row table [ "copies bad"; string_of_int c.Store.c_copies_bad ];
  Table.add_row table [ "quarantined"; string_of_int c.Store.c_quarantined ];
  Table.add_row table [ "lost"; string_of_int c.Store.c_lost ];
  Table.print table

let store_verify_cmd =
  let run dir =
    let s = Store.open_dir dir in
    let c = Store.verify s in
    print_check dir "verify" c;
    if not (Store.check_clean c) then exit 4
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Read-only integrity survey: every entry's payload file is \
          byte-compared against the checksummed manifest payload (v3 \
          profiles additionally get their sections walked). Exits 4 if \
          any payload is missing or corrupt; the next run that needs such \
          an entry recomputes it.")
    Term.(const run $ store_dir_arg)

let store_scrub_cmd =
  let run dir =
    let s = Store.open_dir dir in
    print_check dir "scrub" (Store.scrub s)
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Like $(b,verify), but every corrupt payload file is moved aside \
          to $(i,*.corrupt) — quarantined, never deleted — so poisoned \
          bytes are not re-read. The next run that needs such an entry \
          recomputes it.")
    Term.(const run $ store_dir_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and manage a profile store directory (the $(b,--store) \
          cache): ls, get, merge, gc, stats, verify, scrub.")
    [ store_ls_cmd; store_get_cmd; store_merge_cmd; store_gc_cmd;
      store_stats_cmd; store_verify_cmd; store_scrub_cmd ]

let () =
  let info =
    Cmd.info "vprof" ~version:"1.0.0"
      ~doc:"Value profiling for instructions and memory locations"
  in
  let group =
    Cmd.group info
      [ list_cmd; run_cmd; disasm_cmd; emit_cmd; profile_cmd; memory_cmd;
        procs_cmd; registers_cmd; contexts_cmd; phases_cmd; trivial_cmd;
        speculate_cmd; sample_cmd; fused_cmd; specialize_cmd; memoize_cmd;
        diff_cmd; experiment_cmd; experiments_cmd; store_cmd ]
  in
  (* Exit-code contract (the README table mirrors this): 0 success; 1
     runtime failure (a machine trap, an injected fault, a failed
     experiment); 2 usage error (bad flags, unknown workload or
     experiment — cmdliner's cli_error remapped); 3 resource budget
     exceeded (--deadline / --max-heap without --degrade); 4 store
     integrity failure (store verify found damage); 125 internal error. A machine trap (say, an
     exhausted --fuel budget)
     is a user-level outcome, not an internal error — report it cleanly;
     the driver re-raises worker exceptions on this domain, so this also
     covers -j runs. Budget trips propagate through with_obs, so the
     trace/metrics sinks are complete when we land here. *)
  (try Fault.load_env () with Invalid_argument msg ->
    Printf.eprintf "vprof: %s\n" msg;
    exit 2);
  exit
    (match Cmd.eval ~catch:false group with
     | code when code = Cmd.Exit.cli_error -> 2
     | code -> code
     | exception Machine.Trap t ->
       Printf.eprintf "vprof: machine trap: %s\n" (Machine.string_of_trap t);
       1
     | exception Fault.Injected site ->
       Printf.eprintf "vprof: injected fault at site %S\n" site;
       1
     | exception Budget.Deadline_exceeded s ->
       Printf.eprintf "vprof: deadline exceeded (budget %gs)\n" s;
       3
     | exception Budget.Mem_pressure w ->
       Printf.eprintf
         "vprof: memory watermark exceeded (%d heap words); rerun with \
          --degrade to shed precision instead\n"
         w;
       3
     | exception e ->
       Printf.eprintf "vprof: internal error: %s\n" (Printexc.to_string e);
       125)
