(* Driver subsystem tests: pool ordering and error determinism, the
   once-per-key guarantee of the memo cache under concurrent domains, the
   unified Profiler_intf adapters, and the headline property — the
   experiment suite rendered from a parallel run is byte-identical to a
   serial one. *)

let test_pool_map_matches_serial () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int))
    "jobs=4 preserves order" (List.map f xs)
    (Pool.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 serial path" (List.map f xs)
    (Pool.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "jobs=0 means auto" (List.map f xs)
    (Pool.map ~jobs:0 f xs);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ 10 ] (Pool.map ~jobs:4 (fun x -> x * 10) [ 1 ])

let test_pool_exception_deterministic () =
  (* the lowest-indexed failure must surface, whatever the schedule *)
  let f x = if x mod 2 = 1 then failwith (string_of_int x) else x in
  (match Pool.map ~jobs:4 f [ 0; 2; 5; 4; 3; 7 ] with
   | _ -> Alcotest.fail "expected an exception"
   | exception Failure m -> Alcotest.(check string) "first failing item" "5" m);
  (* the queue still drains before the re-raise *)
  let ran = Atomic.make 0 in
  let f x = Atomic.incr ran; if x = 0 then failwith "boom" else x in
  (match Pool.map ~jobs:2 f (List.init 16 Fun.id) with
   | _ -> Alcotest.fail "expected the failure to surface"
   | exception Failure _ -> ());
  Alcotest.(check int) "every item ran" 16 (Atomic.get ran)

exception Worker_boom of int

(* Not inlinable (recursive), so its frame stays visible in backtraces. *)
let rec deep_raise n = if n = 0 then raise (Worker_boom 42) else 1 + deep_raise (n - 1)

let test_pool_exception_carries_backtrace () =
  (* the worker's backtrace must travel with the exception across the
     domain boundary: after the re-raise it still points at the raising
     frame in this file, not at the pool's own re-raise site *)
  Printexc.record_backtrace true;
  match Pool.map ~jobs:4 (fun x -> if x = 2 then deep_raise 5 else x) [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Worker_boom"
  | exception Worker_boom n ->
    Alcotest.(check int) "original exception, unwrapped" 42 n;
    let bt = Printexc.get_backtrace () in
    Alcotest.(check bool) "raising frame preserved" true
      (Astring_contains.contains bt "test_driver.ml")

let test_pool_map_result_slots () =
  let slots =
    Pool.map_result ~jobs:2
      (fun x -> if x mod 2 = 1 then failwith (string_of_int x) else x * 10)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "per-item slots, input order"
    [ "ok:0"; "err:1"; "ok:20"; "err:3" ]
    (List.map
       (function
         | Some (Ok v) -> Printf.sprintf "ok:%d" v
         | Some (Error (Failure m, _)) -> "err:" ^ m
         | Some (Error _) -> "err:?"
         | None -> "cancelled")
       slots)

let test_pool_map_result_pre_cancelled () =
  let flag = Pool.cancellation () in
  Pool.cancel flag;
  let ran = Atomic.make 0 in
  let slots =
    Pool.map_result ~jobs:2 ~cancel:flag
      (fun x -> Atomic.incr ran; x)
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "nothing ran" 0 (Atomic.get ran);
  Alcotest.(check bool) "every slot cancelled" true
    (List.for_all (( = ) None) slots)

let test_memo_concurrent_once_per_key () =
  let cache : (int, int) Memo_cache.t = Memo_cache.create () in
  let computed = Atomic.make 0 in
  let lookups = List.init 64 (fun i -> i mod 8) in
  let results =
    Pool.map ~jobs:8
      (fun k ->
        Memo_cache.find_or_compute cache k (fun () ->
            Atomic.incr computed;
            (* widen the race window so colliding domains really overlap *)
            for _ = 1 to 1000 do
              Domain.cpu_relax ()
            done;
            k * 10))
      lookups
  in
  Alcotest.(check int) "each key computed exactly once" 8 (Atomic.get computed);
  Alcotest.(check int) "cache agrees" 8 (Memo_cache.computations cache);
  List.iter2
    (fun k v -> Alcotest.(check int) "memoized value" (k * 10) v)
    lookups results

let test_memo_failure_not_cached () =
  let cache : (int, int) Memo_cache.t = Memo_cache.create () in
  (match Memo_cache.find_or_compute cache 1 (fun () -> failwith "boom") with
   | _ -> Alcotest.fail "expected the failure to propagate"
   | exception Failure _ -> ());
  Alcotest.(check int) "failed attempt counted" 1 (Memo_cache.computations cache);
  Alcotest.(check int) "retry recomputes" 7
    (Memo_cache.find_or_compute cache 1 (fun () -> 7));
  Alcotest.(check int) "then it is cached" 7
    (Memo_cache.find_or_compute cache 1 (fun () -> Alcotest.fail "hit expected"))

let test_memo_clear () =
  let cache : (string, int) Memo_cache.t = Memo_cache.create () in
  ignore (Memo_cache.find_or_compute cache "k" (fun () -> 1));
  Memo_cache.clear cache;
  Alcotest.(check int) "counter reset" 0 (Memo_cache.computations cache);
  Alcotest.(check int) "recomputes after clear" 2
    (Memo_cache.find_or_compute cache "k" (fun () -> 2))

let test_memo_unbounded_never_evicts () =
  let cache : (int, int) Memo_cache.t = Memo_cache.create () in
  for k = 1 to 100 do
    ignore (Memo_cache.find_or_compute cache k (fun () -> k))
  done;
  for k = 1 to 100 do
    Alcotest.(check int) "still cached" k
      (Memo_cache.find_or_compute cache k (fun () -> Alcotest.fail "hit"))
  done

let test_profiler_adapters_match_direct () =
  (* the unified adapters must run the same computation as the original
     entry points: compare the deterministic summary counters *)
  let w = Workloads.find "li" in
  let prog = w.Workload.wbuild Workload.Test in
  let direct = Profile.run ~selection:`All prog in
  let direct_mem = Memprof.run prog in
  let config = { Procprof.default_config with arities = w.Workload.warities } in
  let direct_proc = Procprof.run ~config prog in
  match
    Driver.run_jobs ~jobs:2
      [ Driver.job (module Profile.Profiler)
          ~finish:(fun (p : Profile.t) ->
            (p.instrumented, p.profiled_events, p.dynamic_instructions))
          w Workload.Test;
        Driver.job (module Memprof.Profiler)
          ~finish:(fun (m : Memprof.t) ->
            (Array.length m.locations, m.tracked_events, m.dynamic_instructions))
          w Workload.Test;
        Driver.job (module Procprof.Profiler) ~config
          ~finish:(fun (p : Procprof.t) ->
            (Array.length p.procs, p.total_calls, p.dynamic_instructions))
          w Workload.Test ]
  with
  | [ p; m; pr ] ->
    Alcotest.(check (triple int int int))
      "profile adapter"
      ( direct.Profile.instrumented,
        direct.Profile.profiled_events,
        direct.Profile.dynamic_instructions )
      p;
    Alcotest.(check (triple int int int))
      "memprof adapter"
      ( Array.length direct_mem.Memprof.locations,
        direct_mem.Memprof.tracked_events,
        direct_mem.Memprof.dynamic_instructions )
      m;
    Alcotest.(check (triple int int int))
      "procprof adapter"
      ( Array.length direct_proc.Procprof.procs,
        direct_proc.Procprof.total_calls,
        direct_proc.Procprof.dynamic_instructions )
      pr
  | _ -> Alcotest.fail "expected three results"

let test_sampler_adapter_runs () =
  let w = Workloads.find "li" in
  let direct = Sampler.run (w.Workload.wbuild Workload.Test) in
  match
    Driver.run_jobs ~jobs:2
      [ Driver.job (module Sampler.Profiler)
          ~finish:(fun (s : Sampler.t) -> (s.total_events, s.profiled_events))
          w Workload.Test ]
  with
  | [ (total, profiled) ] ->
    Alcotest.(check int) "total events" direct.Sampler.total_events total;
    Alcotest.(check int) "profiled events" direct.Sampler.profiled_events
      profiled
  | _ -> Alcotest.fail "expected one result"

let test_job_name () =
  let w = Workloads.find "go" in
  let j =
    Driver.job (module Profile.Profiler) ~finish:ignore w Workload.Train
  in
  Alcotest.(check string) "job name" "profile:go:train" (Driver.job_name j)

(* ---- fused scheduling --------------------------------------------

   Jobs sharing a (workload, input, fuel) key must coalesce onto one
   machine execution; counting [wbuild] calls observes how many programs
   (hence machines) the schedule actually built. *)

let counting_workload ?(name = "tinyw") builds =
  { Workload.wname = name;
    wmimics = "";
    wdescr = "synthetic fused-scheduling workload";
    wbuild =
      (fun _ ->
        Atomic.incr builds;
        let b = Asm.create () in
        Asm.proc b "main" (fun b ->
            Asm.ldi b Isa.t0 5L;
            Asm.ldi b Isa.t1 512L;
            Asm.label b "loop";
            Asm.st b ~src:Isa.t0 ~base:Isa.t1 ~off:0;
            Asm.ld b ~dst:Isa.t2 ~base:Isa.t1 ~off:0;
            Asm.subi b ~dst:Isa.t0 Isa.t0 1L;
            Asm.br b Isa.Gt Isa.t0 "loop";
            Asm.halt b);
        Asm.assemble b ~entry:"main");
    warities = [] }

let test_fuse_coalesces_shared_executions () =
  let builds = Atomic.make 0 in
  let w = counting_workload builds in
  let jobs () =
    [ Driver.job (module Profile.Profiler)
        ~finish:(fun (p : Profile.t) -> p.profiled_events)
        w Workload.Test;
      Driver.job (module Memprof.Profiler)
        ~finish:(fun (m : Memprof.t) -> m.tracked_events)
        w Workload.Test;
      Driver.job (module Regprof.Profiler)
        ~finish:(fun (r : Regprof.t) -> r.total_writes)
        w Workload.Test ]
  in
  let fused = Driver.run_jobs (jobs ()) in
  Alcotest.(check int) "one build serves the fused unit" 1
    (Atomic.get builds);
  let solo = List.concat_map (fun j -> Driver.run_jobs [ j ]) (jobs ()) in
  Alcotest.(check int) "one build per job run alone" 4
    (Atomic.get builds);
  Alcotest.(check (list int)) "fused results equal solo" solo fused

let test_plan_names_fused_units () =
  let wa = counting_workload ~name:"wa" (Atomic.make 0) in
  let wb = counting_workload ~name:"wb" (Atomic.make 0) in
  let pj w = Driver.job (module Profile.Profiler) ~finish:ignore w Workload.Test in
  let mj w = Driver.job (module Memprof.Profiler) ~finish:ignore w Workload.Test in
  let js = [ pj wa; pj wb; mj wa ] in
  Alcotest.(check (list string)) "fused plan, first-occurrence order"
    [ "fused[profile+memory]:wa:test"; "profile:wb:test" ]
    (Driver.plan js);
  Alcotest.(check (list string)) "a job alone is a solo unit"
    [ "profile:wa:test"; "profile:wb:test"; "memory:wa:test" ]
    (List.concat_map (fun j -> Driver.plan [ j ]) js);
  let fueled =
    Driver.job (module Profile.Profiler) ~fuel:100_000 ~finish:ignore wa
      Workload.Test
  in
  Alcotest.(check (list string)) "a different fuel does not fuse"
    [ "profile:wa:test"; "profile:wa:test" ]
    (Driver.plan [ pj wa; fueled ])

(* The suite's rendered bytes: computation fans out over [jobs] domains,
   results come back in registry order. *)
let rendered_suite jobs =
  let rep =
    Experiments.run_strings
      ~config:{ Experiments.default_run_config with rc_jobs = Some jobs }
      Experiments.all
  in
  Alcotest.(check int) "no experiment failed" 0
    (List.length (Supervisor.failures rep));
  String.concat "" (Supervisor.oks rep)

let test_suite_parallel_byte_identical () =
  Harness.clear_cache ();
  let serial = rendered_suite 1 in
  Harness.clear_cache ();
  let parallel = rendered_suite 4 in
  Alcotest.(check bool) "suite actually rendered" true
    (String.length serial > 10_000);
  Alcotest.(check bool) "parallel output byte-identical to serial" true
    (String.equal serial parallel)

let suite =
  [ Alcotest.test_case "pool map order" `Quick test_pool_map_matches_serial;
    Alcotest.test_case "pool exception deterministic" `Quick
      test_pool_exception_deterministic;
    Alcotest.test_case "pool exception carries backtrace" `Quick
      test_pool_exception_carries_backtrace;
    Alcotest.test_case "pool map_result slots" `Quick
      test_pool_map_result_slots;
    Alcotest.test_case "pool map_result honours pre-set cancel" `Quick
      test_pool_map_result_pre_cancelled;
    Alcotest.test_case "memo once per key (8 domains)" `Quick
      test_memo_concurrent_once_per_key;
    Alcotest.test_case "memo failure not cached" `Quick
      test_memo_failure_not_cached;
    Alcotest.test_case "memo clear" `Quick test_memo_clear;
    Alcotest.test_case "memo unbounded never evicts" `Quick
      test_memo_unbounded_never_evicts;
    Alcotest.test_case "profiler adapters match direct runs" `Slow
      test_profiler_adapters_match_direct;
    Alcotest.test_case "sampler adapter" `Slow test_sampler_adapter_runs;
    Alcotest.test_case "job name" `Quick test_job_name;
    Alcotest.test_case "fuse coalesces shared executions" `Quick
      test_fuse_coalesces_shared_executions;
    Alcotest.test_case "plan names fused units" `Quick
      test_plan_names_fused_units;
    Alcotest.test_case "suite parallel == serial (bytes)" `Slow
      test_suite_parallel_byte_identical ]
