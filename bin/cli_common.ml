(* Cmdliner terms shared by every vprof subcommand: the workload/input
   converters and the selection / top / fuel / jobs options. Keeping them
   here means one spelling, one doc string and one default per flag across
   the whole CLI. *)

open Cmdliner

let workload_conv =
  let parse s =
    match Workloads.find s with
    | w -> Ok w
    | exception Not_found ->
      if Sys.file_exists s then
        (* assembly source files act as pseudo-workloads: same program on
           both inputs, no declared arities *)
        match Parser.parse_file s with
        | prog ->
          Ok
            { Workload.wname = Filename.basename s;
              wmimics = "(file)";
              wdescr = s;
              wbuild = (fun _ -> prog);
              warities = [] }
        | exception Parser.Parse_error (line, msg) ->
          Error (`Msg (Printf.sprintf "%s:%d: %s" s line msg))
      else
        Error
          (`Msg
             (Printf.sprintf "unknown workload %S and no such file (try: %s)" s
                (String.concat ", " Workloads.names)))
  in
  let print ppf (w : Workload.t) = Format.pp_print_string ppf w.wname in
  Arg.conv (parse, print)

let input_conv =
  let parse s =
    match Workload.input_of_string s with
    | i -> Ok i
    | exception Invalid_argument _ -> Error (`Msg "input must be test or train")
  in
  let print ppf i = Format.pp_print_string ppf (Workload.string_of_input i) in
  Arg.conv (parse, print)

(* Range-checked numbers: an out-of-range value is a usage error that
   cmdliner reports against its flag (exit 2), instead of an
   [Invalid_argument] from deep in a run or a value silently misread. *)
let checked_conv ~of_string ~pp ~expected ok =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, pp)

let positive_int =
  checked_conv ~of_string:int_of_string_opt ~pp:Format.pp_print_int
    ~expected:"a positive integer" (fun n -> n > 0)

let non_negative_int =
  checked_conv ~of_string:int_of_string_opt ~pp:Format.pp_print_int
    ~expected:"a non-negative integer" (fun n -> n >= 0)

let finite_non_negative_float =
  checked_conv ~of_string:float_of_string_opt ~pp:Format.pp_print_float
    ~expected:"a finite non-negative number"
    (fun x -> Float.is_finite x && x >= 0.)

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          "Workload to operate on: a built-in name (see $(b,list)) or a \
           path to a .vasm assembly source file.")

let input_arg =
  Arg.(
    value
    & opt input_conv Workload.Test
    & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Data set: test or train.")

let selection_arg =
  let sel = Arg.enum [ ("all", `All); ("loads", `Loads); ("alu", `Alu) ] in
  Arg.(
    value & opt sel `All
    & info [ "s"; "select" ] ~docv:"CLASS"
        ~doc:"Instruction class to profile: all, loads, or alu.")

let top_arg =
  Arg.(
    value & opt int 20
    & info [ "t"; "top" ] ~docv:"N" ~doc:"Show the N most-executed points.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Abort (with a trap) any run that executes more than N dynamic \
           instructions. Default: the machine's built-in budget.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the profiling driver. The independent runs \
           of the command (the shards of $(b,--shards), the two profiles \
           of $(b,contexts) or $(b,diff), the experiments of a suite) \
           execute in parallel; output is byte-identical to $(b,-j 1). 0 \
           means the machine's recommended domain count.")

(* Map the CLI value onto the driver's convention (0 = recommended). *)
let effective_jobs j = if j <= 0 then Driver.default_jobs () else j

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Split one workload execution into K shards profiled in \
           parallel (each runs the full program and profiles one \
           icount window of it) and merge the K profiles in shard order. \
           $(b,--shards 1) is byte-identical to unsharded profiling; at \
           any K the per-point execution counts and totals equal the \
           serial run's, and merged output is identical however the \
           shards were scheduled. 0 means the machine's recommended \
           domain count.")

let effective_shards k = if k <= 0 then Driver.default_jobs () else k

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Profile store directory for cross-invocation reuse: results \
           whose fingerprint (workload, input, fuel, profiler, shards, \
           config) is already committed are served without executing \
           anything, and fresh results are committed for the next run. \
           Inspect with $(b,vprof store).")

(* Opening for a profiling run bumps the generation once, so [store gc
   --keep N] has invocation-granular history to collect against. *)
let open_store dir =
  let s = Store.open_dir dir in
  ignore (Store.new_generation s);
  s

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Also print the run's cost counters: events seen and profiled, \
           TNV clears and evictions, and attach-to-collect wall clock.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of the command (machine runs, driver \
           units, supervisor jobs, ...) and write it to FILE as Chrome \
           trace_event JSON, loadable in chrome://tracing or Perfetto.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry (counters, gauges, histograms \
           accumulated during the command) to FILE as JSON on exit.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the command. The machine polls the \
           budget on a periodic boundary and a run past its deadline \
           terminates cooperatively: telemetry sinks are still written \
           and vprof exits with code 3 (supervised suites record the \
           job as failed instead).")

let max_heap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-heap" ] ~docv:"MEGABYTES"
        ~doc:
          "Heap watermark in megabytes (compared against the OCaml \
           major heap). Without $(b,--degrade), breaching it aborts the \
           run (exit 3); with it, each breach sheds profiling precision \
           instead — see $(b,--degrade).")

let degrade_arg =
  Arg.(
    value & flag
    & info [ "degrade" ]
        ~doc:
          "Shed precision instead of dying on memory pressure: each \
           watermark breach widens sampler gaps, halves TNV candidate \
           capacity at the next clear, and drops the most expensive \
           member of fused runs. Steps are recorded as degrade.* \
           counters and trace instants, and results report their \
           degradation level.")

(* --deadline/--max-heap/--degrade as one term, so each subcommand adds a
   single [$ governance_arg] and wraps its body in [with_governance]. *)
type governance = {
  gv_deadline : float option;
  gv_max_heap_mb : int option;
  gv_degrade : bool;
}

let governance_arg =
  Term.(
    const (fun gv_deadline gv_max_heap_mb gv_degrade ->
        { gv_deadline; gv_max_heap_mb; gv_degrade })
    $ deadline_arg $ max_heap_arg $ degrade_arg)

let words_of_mb mb = mb * (1024 * 1024 / (Sys.word_size / 8))

let with_governance gv f =
  match gv with
  | { gv_deadline = None; gv_max_heap_mb = None; gv_degrade = false } -> f ()
  | _ ->
    Budget.govern
      { Budget.deadline = gv.gv_deadline;
        max_heap_words = Option.map words_of_mb gv.gv_max_heap_mb;
        degrade = gv.gv_degrade }
      f

(* One spelling of the --stats output across subcommands. *)
let print_stats enabled name (c : Counters.t) =
  if enabled then Printf.printf "%s stats: %s\n" name (Counters.to_string c)
