(* The benchmark's vocabulary: its workloads, its end-to-end metrics with
   their regression bounds, and its per-layer metrics with the layer each
   measures and the end-to-end metric it should move. BENCHMARK.json at
   the repository root is rendered from this table ([ledger.exe
   manifest]); a test keeps the committed file equal to it. *)

open Ledger_stats

let command = [ "python3"; "ledger/run.py" ]

let paths = [ "ledger" ]

(* Seconds of measured requests per run; set-up and output checks come on
   top. *)
let run_seconds = 12

type workload = { w_name : string; w_why : string }

let workloads =
  [ { w_name = "profile_full";
      w_why =
        "Profile.run on every value-producing pc of 12 programs x 2 inputs: \
         the paper's core operation, where TNV and Vstate work dominate" };
    { w_name = "profile_sampled";
      w_why =
        "Sampler.run on the same programs: hooks stay attached but bursts \
         bypass most TNV work, so interpretation and dispatch dominate" };
    { w_name = "grid_fused";
      w_why =
        "Supervisor.run_jobs over 72 profile/sample/procs jobs fused into 24 \
         units: the only workload using the pool, the supervisor and hook fan-out" };
    { w_name = "store_rw";
      w_why =
        "80% get_profile / 20% put_profile on a 256-entry directory store: \
         codec and disk work with no machine execution" };
    { w_name = "cli_suite";
      w_why =
        "warm vprof experiments runs served from a store, process start \
         included; the cold run that fills the store is its set-up" } ]

type e2e = { e_name : string; e_unit : string; e_better : better; e_bound : float }

let end_to_end =
  [ { e_name = "req_per_s"; e_unit = "1/s"; e_better = Higher; e_bound = 0.25 };
    { e_name = "req_ms_p50"; e_unit = "ms"; e_better = Lower; e_bound = 0.25 };
    { e_name = "req_ms_p90"; e_unit = "ms"; e_better = Lower; e_bound = 0.25 };
    { e_name = "peak_rss_mb"; e_unit = "MB"; e_better = Lower; e_bound = 0.1 };
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower; e_bound = 0.25 } ]

type layer_metric = {
  l_name : string;
  l_unit : string;
  l_better : better;
  l_layer : string;
  l_moves : string;  (** the end-to-end metric and workload it should move *)
  l_exact : bool;  (** a count that must repeat exactly *)
}

(* The layer ladder runs on the test input of these three programs: go,
   a load-heavy one (compress) and a floating-point one (swim). *)
let ladder_programs = [ "go"; "compress"; "swim" ]

let lm ?(exact = false) l_layer l_name l_unit l_better l_moves =
  { l_name; l_unit; l_better; l_layer; l_moves; l_exact = exact }

let per_program p =
  let n s = s ^ "." ^ p in
  [ lm "machine" (n "machine.bare_ns_per_instr") "ns" Lower
      "profile_sampled req_per_s; cli_suite setup_s; not store_rw";
    lm ~exact:true "machine" (n "machine.instrs") "count" Lower "exact";
    lm "atom" (n "atom.dispatch_ns_per_event") "ns" Lower
      "profile_sampled and profile_full req_per_s";
    lm "atom" (n "atom.fanout3_ns_per_event") "ns" Lower "grid_fused req_ms_p50";
    lm ~exact:true "atom" (n "atom.events") "count" Lower "exact";
    lm "tnv" (n "tnv.add_ns") "ns" Lower "profile_full req_per_s; not profile_sampled";
    lm ~exact:true "tnv" (n "tnv.clears") "count" Lower "exact";
    lm ~exact:true "tnv" (n "tnv.replacements") "count" Lower "exact";
    lm "core" (n "core.vstate_observe_ns") "ns" Lower "profile_full req_per_s";
    lm "core" (n "core.full_profile_ms") "ms" Lower "profile_full req_ms_p50";
    lm ~exact:true "core" (n "core.profiled_events") "count" Lower "exact";
    lm "core" (n "core.sampler_ms") "ms" Lower "profile_sampled req_ms_p50";
    lm ~exact:true "core" (n "core.sampler_profiled_fraction") "ratio" Lower "exact";
    lm "core" (n "core.fused3_ms") "ms" Lower "grid_fused req_ms_p50";
    lm "core" (n "core.solo3_ms") "ms" Lower "grid_fused req_ms_p50 (fusion baseline)";
    lm "profile_io" (n "profile_io.v3_encode_us") "us" Lower "store_rw req_ms_p90 (puts)";
    lm "profile_io" (n "profile_io.v3_decode_us") "us" Lower "store_rw req_ms_p50 (gets)";
    lm ~exact:true "profile_io" (n "profile_io.v3_bytes") "bytes" Lower "exact" ]

let per_layer =
  List.concat_map per_program ladder_programs
  @ [ lm "store" "store.put_ms" "ms" Lower "store_rw req_ms_p90 (puts)";
      lm "store" "store.get_us" "us" Lower "store_rw req_ms_p50 (gets)";
      lm "store" "store.open_ms" "ms" Lower "cli_suite req_ms_p50";
      lm ~exact:true "store" "store.bytes_written_per_put" "bytes" Lower "exact";
      lm ~exact:true "store" "store.hits" "count" Higher "exact";
      lm ~exact:true "store" "store.misses" "count" Lower "exact";
      lm "driver" "driver.grid_ms.j1" "ms" Lower "grid_fused req_per_s";
      lm "driver" "driver.grid_ms.j2" "ms" Lower "grid_fused req_per_s";
      lm "driver" "driver.speedup_j2" "x" Higher "grid_fused req_per_s";
      lm "driver" "driver.supervisor_overhead_ms" "ms" Lower "grid_fused req_ms_p50";
      lm ~exact:true "driver" "driver.units" "count" Lower "exact";
      lm "driver" "driver.shard2_ms.go" "ms" Lower "no workload: grounds no claim";
      lm "experiments" "experiments.suite_ms" "ms" Lower "cli_suite setup_s";
      lm ~exact:true "experiments" "experiments.machine_runs" "count" Lower "exact";
      lm "cli" "cli.startup_ms" "ms" Lower "cli_suite req_ms_p50";
      lm "obs" "obs.trace_overhead" "x" Higher "the traced workload's own req_per_s" ]

let find_e2e name = List.find_opt (fun e -> e.e_name = name) end_to_end

let find_layer name = List.find_opt (fun l -> l.l_name = name) per_layer

let manifest () =
  let open Obs.Json in
  let str s = Str s in
  let metric name unit better extra =
    Obj
      ([ ("name", Str name); ("unit", Str unit);
         ("better", Str (string_of_better better)) ]
      @ extra)
  in
  Obj
    [ ("command", List (List.map str command));
      ("paths", List (List.map str paths));
      ("run_seconds", Num (float_of_int run_seconds));
      ("workloads",
       List
         (List.map
            (fun w -> Obj [ ("name", Str w.w_name); ("why", Str w.w_why) ])
            workloads));
      ("end_to_end",
       List
         (List.map
            (fun e -> metric e.e_name e.e_unit e.e_better [ ("bound", Num e.e_bound) ])
            end_to_end));
      ("per_layer",
       List (List.map (fun l -> metric l.l_name l.l_unit l.l_better []) per_layer)) ]
