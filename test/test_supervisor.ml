(* Supervisor semantics: retry, backoff-in-fuel on timeouts, the error
   taxonomy, partial results under `Skip, cancellation under `Abort, and
   survival of injected faults. *)

open Isa

let with_faults f = Fun.protect ~finally:Fault.disarm f

(* [3n + 2] dynamic instructions, so fuel budgets are easy to reason
   about. *)
let loop_program n =
  let b = Asm.create () in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 0L;
      Asm.label b "loop";
      Asm.addi b ~dst:t0 t0 1L;
      Asm.cmplti b ~dst:t1 t0 n;
      Asm.br b Ne t1 "loop";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let loop_workload n =
  { Workload.wname = "tiny";
    wmimics = "";
    wdescr = "synthetic supervisor-test loop";
    wbuild = (fun _ -> loop_program n);
    warities = [] }

let error_label = function
  | Supervisor.Trap _ -> "trap"
  | Supervisor.Timeout _ -> "timeout"
  | Supervisor.Io _ -> "io"
  | Supervisor.Injected _ -> "injected"
  | Supervisor.Cancelled -> "cancelled"
  | Supervisor.Crash _ -> "crash"
  | Supervisor.Deadline _ -> "deadline"
  | Supervisor.Mem_pressure _ -> "mem_pressure"

let result_label (o : _ Supervisor.outcome) =
  match o.Supervisor.o_result with
  | Ok _ -> "ok"
  | Error e -> error_label e

let test_all_ok () =
  let rep =
    Supervisor.map ~jobs:2 ~name:string_of_int
      (fun x -> x * x)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "completed" 4 rep.Supervisor.completed;
  Alcotest.(check int) "failed" 0 rep.Supervisor.failed;
  Alcotest.(check (list int)) "payloads in order" [ 1; 4; 9; 16 ]
    (Supervisor.oks rep);
  List.iter
    (fun (o : _ Supervisor.outcome) ->
      Alcotest.(check int) "single attempt" 1 o.Supervisor.o_attempts)
    rep.Supervisor.outcomes

let test_retry_succeeds_second_attempt () =
  let calls = Atomic.make 0 in
  let rep =
    Supervisor.map ~jobs:1 ~name:(fun _ -> "flaky")
      (fun () ->
        if Atomic.fetch_and_add calls 1 = 0 then failwith "first attempt dies";
        42)
      [ () ]
  in
  Alcotest.(check int) "completed" 1 rep.Supervisor.completed;
  match rep.Supervisor.outcomes with
  | [ o ] ->
    Alcotest.(check int) "two attempts" 2 o.Supervisor.o_attempts;
    Alcotest.(check bool) "succeeded" true (Result.is_ok o.Supervisor.o_result)
  | _ -> Alcotest.fail "expected one outcome"

let test_retries_exhausted_records_crash () =
  let calls = Atomic.make 0 in
  let policy = { Supervisor.default_policy with retries = 2 } in
  let rep =
    Supervisor.map ~policy ~jobs:1 ~name:(fun _ -> "doomed")
      (fun () ->
        Atomic.incr calls;
        failwith "always dies")
      [ () ]
  in
  Alcotest.(check int) "failed" 1 rep.Supervisor.failed;
  Alcotest.(check int) "all attempts ran" 3 (Atomic.get calls);
  match rep.Supervisor.outcomes with
  | [ { Supervisor.o_attempts = 3; o_result = Error (Supervisor.Crash m); _ } ] ->
    Alcotest.(check bool) "crash message kept" true
      (Astring_contains.contains m "always dies")
  | _ -> Alcotest.fail "expected a 3-attempt Crash outcome"

let test_trap_classified () =
  let rep =
    Supervisor.map
      ~policy:{ Supervisor.default_policy with retries = 0 }
      ~jobs:1 ~name:(fun _ -> "trapping")
      (fun () -> raise (Machine.Trap (Machine.Div_by_zero 7)))
      [ () ]
  in
  match rep.Supervisor.outcomes with
  | [ { Supervisor.o_result = Error (Supervisor.Trap (Machine.Div_by_zero 7)); _ } ]
    -> ()
  | [ o ] -> Alcotest.failf "expected Trap, got %s" (result_label o)
  | _ -> Alcotest.fail "expected one outcome"

let test_io_classified () =
  let rep =
    Supervisor.map
      ~policy:{ Supervisor.default_policy with retries = 0 }
      ~jobs:1 ~name:(fun _ -> "io")
      (fun () -> raise (Sys_error "disk on fire"))
      [ () ]
  in
  match rep.Supervisor.outcomes with
  | [ { Supervisor.o_result = Error (Supervisor.Io m); _ } ] ->
    Alcotest.(check string) "message" "disk on fire" m
  | [ o ] -> Alcotest.failf "expected Io, got %s" (result_label o)
  | _ -> Alcotest.fail "expected one outcome"

let test_timeout_then_fuel_backoff () =
  (* 100 iterations = 302 dynamic instructions. A 64-instruction budget
     times out; doubling per retry (64, 128, 256, 512) succeeds on the
     4th attempt. *)
  let job =
    Driver.job ~fuel:64 (module Profile.Profiler)
      ~finish:(fun (p : Profile.t) -> p.Profile.dynamic_instructions)
      (loop_workload 100L) Workload.Test
  in
  let rep =
    Supervisor.run_jobs
      ~policy:{ Supervisor.default_policy with retries = 5 }
      ~jobs:1 [ job ]
  in
  (match rep.Supervisor.outcomes with
   | [ { Supervisor.o_attempts = 4; o_result = Ok dynamic; _ } ] ->
     Alcotest.(check bool) "ran to completion" true (dynamic >= 300)
   | [ o ] ->
     Alcotest.failf "expected success on attempt 4, got %s after %d attempts"
       (result_label o) o.Supervisor.o_attempts
   | _ -> Alcotest.fail "expected one outcome");
  (* without retries the same job is a Timeout carrying its budget *)
  let job =
    Driver.job ~fuel:64 (module Profile.Profiler)
      ~finish:(fun (_ : Profile.t) -> ())
      (loop_workload 100L) Workload.Test
  in
  let rep =
    Supervisor.run_jobs
      ~policy:{ Supervisor.default_policy with retries = 0 }
      ~jobs:1 [ job ]
  in
  (match rep.Supervisor.outcomes with
   | [ { Supervisor.o_result = Error (Supervisor.Timeout 64); o_attempts = 1; _ } ]
     -> ()
   | [ o ] -> Alcotest.failf "expected Timeout 64, got %s" (result_label o)
   | _ -> Alcotest.fail "expected one outcome");
  (* the policy's budget doubles exactly per retry *)
  Alcotest.(check (option int)) "exact doubling" (Some 8000)
    (Supervisor.Testing.attempt_fuel
       { Supervisor.default_policy with fuel_timeout = Some 1000 }
       ~base:None 3)

let test_skip_keeps_partial_results () =
  let rep =
    Supervisor.map
      ~policy:{ Supervisor.default_policy with retries = 0 }
      ~jobs:1 ~name:string_of_int
      (fun x -> if x = 2 then failwith "boom" else x * 10)
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "completed" 2 rep.Supervisor.completed;
  Alcotest.(check int) "failed" 1 rep.Supervisor.failed;
  Alcotest.(check int) "cancelled" 0 rep.Supervisor.cancelled;
  Alcotest.(check (list int)) "survivors in order" [ 10; 30 ]
    (Supervisor.oks rep);
  Alcotest.(check (list string)) "per-item fates" [ "ok"; "crash"; "ok" ]
    (List.map result_label rep.Supervisor.outcomes)

let test_abort_cancels_remaining () =
  (* serial pool: the failure trips the shared flag, so every later item
     reports Cancelled without running *)
  let ran = Atomic.make 0 in
  let rep =
    Supervisor.map
      ~policy:{ Supervisor.default_policy with retries = 0; on_error = `Abort }
      ~jobs:1 ~name:string_of_int
      (fun x ->
        Atomic.incr ran;
        if x = 1 then failwith "fatal" else x)
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "only items before the abort ran" 2 (Atomic.get ran);
  Alcotest.(check int) "completed" 1 rep.Supervisor.completed;
  Alcotest.(check int) "failed" 1 rep.Supervisor.failed;
  Alcotest.(check int) "cancelled" 3 rep.Supervisor.cancelled;
  Alcotest.(check (list string)) "per-item fates"
    [ "ok"; "crash"; "cancelled"; "cancelled"; "cancelled" ]
    (List.map result_label rep.Supervisor.outcomes)

let test_abort_cancels_under_parallel_pool () =
  let rep =
    Supervisor.map
      ~policy:{ Supervisor.default_policy with retries = 0; on_error = `Abort }
      ~jobs:2 ~name:string_of_int
      (fun x -> if x = 0 then failwith "fatal" else (Unix.sleepf 0.002; x))
      (List.init 32 Fun.id)
  in
  Alcotest.(check int) "one failure" 1 rep.Supervisor.failed;
  Alcotest.(check bool) "queue was abandoned" true
    (rep.Supervisor.cancelled > 0);
  Alcotest.(check int) "every item accounted for" 32
    (List.length rep.Supervisor.outcomes)

let test_injected_fault_retried () =
  (* kill exactly the first attempt: the retry completes the grid *)
  with_faults (fun () ->
      Fault.arm ~site:"supervisor.job" ~at:1 ();
      let rep =
        Supervisor.map ~jobs:1 ~name:string_of_int (fun x -> x) [ 7 ]
      in
      Alcotest.(check int) "completed" 1 rep.Supervisor.completed;
      match rep.Supervisor.outcomes with
      | [ { Supervisor.o_attempts = 2; o_result = Ok 7; _ } ] -> ()
      | _ -> Alcotest.fail "expected success on the retry")

let test_injected_fault_recorded_when_retries_exhausted () =
  with_faults (fun () ->
      Fault.arm ~site:"supervisor.job" ~at:2 ();
      let rep =
        Supervisor.map
          ~policy:{ Supervisor.default_policy with retries = 0 }
          ~jobs:1 ~name:string_of_int (fun x -> x) [ 1; 2; 3 ]
      in
      Alcotest.(check int) "completed" 2 rep.Supervisor.completed;
      Alcotest.(check (list string)) "the 2nd attempt died"
        [ "ok"; "injected"; "ok" ]
        (List.map result_label rep.Supervisor.outcomes))

let test_pool_worker_fault_classified () =
  (* a fault at the pool's own site (outside run_one's catch) still lands
     as a typed Injected outcome, not an escaping exception *)
  with_faults (fun () ->
      Fault.arm ~site:"pool.worker" ~at:1 ();
      let rep =
        Supervisor.map ~jobs:1 ~name:string_of_int (fun x -> x) [ 1; 2; 3 ]
      in
      Alcotest.(check int) "completed" 2 rep.Supervisor.completed;
      match rep.Supervisor.outcomes with
      | [ o1; _; _ ] ->
        Alcotest.(check string) "typed as injected" "injected" (result_label o1)
      | _ -> Alcotest.fail "expected three outcomes")

(* ---- fused units under supervision --------------------------------

   Jobs sharing a (workload, input, fuel) key run as ONE unit: one
   classification per failure, one retry scope, one program build per
   attempt. Counting [wbuild] calls makes the unit boundary visible. *)

let counting_workload builds prog_of =
  { Workload.wname = "tinyw";
    wmimics = "";
    wdescr = "synthetic fused-supervision workload";
    wbuild = (fun _ -> Atomic.incr builds; prog_of ());
    warities = [] }

let fused_jobs w =
  [ Driver.job (module Profile.Profiler)
      ~finish:(fun (p : Profile.t) -> p.Profile.profiled_events)
      w Workload.Test;
    Driver.job (module Memprof.Profiler)
      ~finish:(fun (m : Memprof.t) -> m.Memprof.tracked_events)
      w Workload.Test;
    Driver.job (module Regprof.Profiler)
      ~finish:(fun (r : Regprof.t) -> r.Regprof.total_writes)
      w Workload.Test ]

let trap_program () =
  let b = Asm.create () in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 1L;
      Asm.divi b ~dst:t0 t0 0L;
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let test_fused_unit_trap_classified_once () =
  let builds = Atomic.make 0 in
  let w = counting_workload builds trap_program in
  let rep =
    Supervisor.run_jobs
      ~policy:{ Supervisor.default_policy with retries = 0 }
      ~jobs:1 (fused_jobs w)
  in
  (* one build = the unit trapped once, not once per member *)
  Alcotest.(check int) "one classification scope" 1 (Atomic.get builds);
  Alcotest.(check int) "failed" 3 rep.Supervisor.failed;
  Alcotest.(check (list string)) "the unit's trap replicated to members"
    [ "trap"; "trap"; "trap" ]
    (List.map result_label rep.Supervisor.outcomes);
  List.iter
    (fun (o : _ Supervisor.outcome) ->
      (match o.Supervisor.o_result with
       | Error (Supervisor.Trap (Machine.Div_by_zero _)) -> ()
       | _ -> Alcotest.failf "%s: expected the unit's Div_by_zero" o.o_name);
      Alcotest.(check int) "one attempt each" 1 o.Supervisor.o_attempts)
    rep.Supervisor.outcomes

let test_fused_retry_reruns_whole_unit () =
  with_faults (fun () ->
      let builds = Atomic.make 0 in
      let w = counting_workload builds (fun () -> loop_program 50L) in
      (* kill the fused unit's first execution mid-run; the armed site
         fires exactly once, so the retry completes *)
      Fault.arm ~site:"machine.step" ~at:40 ();
      let rep = Supervisor.run_jobs ~jobs:1 (fused_jobs w) in
      Alcotest.(check int) "all members complete" 3 rep.Supervisor.completed;
      Alcotest.(check int) "one build per attempt, not per member" 2
        (Atomic.get builds);
      List.iter
        (fun (o : _ Supervisor.outcome) ->
          Alcotest.(check int) "members share the unit's attempts" 2
            o.Supervisor.o_attempts;
          Alcotest.(check bool) "member succeeded" true
            (Result.is_ok o.Supervisor.o_result))
        rep.Supervisor.outcomes)

let test_fused_results_equal_unfused () =
  let w = counting_workload (Atomic.make 0) (fun () -> loop_program 50L) in
  let fused = Supervisor.run_jobs ~jobs:1 (fused_jobs w) in
  (* each job alone is a solo unit *)
  let solo =
    List.concat_map
      (fun j -> (Supervisor.run_jobs ~jobs:1 [ j ]).Supervisor.outcomes)
      (fused_jobs w)
  in
  let oks outcomes =
    List.map
      (fun (o : _ Supervisor.outcome) -> Result.get_ok o.Supervisor.o_result)
      outcomes
  in
  let names outcomes =
    List.map (fun (o : _ Supervisor.outcome) -> o.Supervisor.o_name) outcomes
  in
  Alcotest.(check (list int)) "payloads identical" (oks solo)
    (Supervisor.oks fused);
  Alcotest.(check (list string)) "outcome names stay per-job" (names solo)
    (names fused.Supervisor.outcomes)

(* ---- resource governance under supervision ------------------------ *)

let governed f = Fun.protect ~finally:Budget.Testing.reset f

let test_deadline_fails_job_and_cancels_rest () =
  (* the wall clock is global: once one job trips the deadline, retrying
     it (or starting the jobs behind it) cannot help — the supervisor
     records the trip and cancels the rest of the pool *)
  governed (fun () ->
      let rep =
        Budget.govern
          { Budget.no_limits with deadline = Some 0.001 }
          (fun () ->
            Unix.sleepf 0.005;
            Supervisor.map ~jobs:1 ~name:string_of_int
              (fun x -> x)
              [ 1; 2; 3 ])
      in
      Alcotest.(check (list string)) "trip, then cooperative cancellation"
        [ "deadline"; "cancelled"; "cancelled" ]
        (List.map result_label rep.Supervisor.outcomes);
      match rep.Supervisor.outcomes with
      | { Supervisor.o_attempts = 1; _ } :: _ ->
        (* default policy retries once; a deadline must not be retried *)
        ()
      | _ -> Alcotest.fail "deadline outcomes are never retried")

let test_mem_pressure_classified_and_retried () =
  (* memory pressure is transient (the failed attempt's garbage is
     collectable), so unlike a deadline it stays retryable *)
  let calls = Atomic.make 0 in
  let rep =
    Supervisor.map ~jobs:1 ~name:string_of_int
      (fun x ->
        if Atomic.fetch_and_add calls 1 = 0 then
          raise (Budget.Mem_pressure 4096);
        x * 10)
      [ 5 ]
  in
  (match rep.Supervisor.outcomes with
   | [ { Supervisor.o_attempts = 2; o_result = Ok 50; _ } ] -> ()
   | [ o ] ->
     Alcotest.failf "expected retry success, got %s after %d attempts"
       (result_label o) o.Supervisor.o_attempts
   | _ -> Alcotest.fail "expected one outcome");
  (* with retries exhausted the trip lands as a typed outcome *)
  let rep =
    Supervisor.map
      ~policy:{ Supervisor.default_policy with retries = 0 }
      ~jobs:1 ~name:string_of_int
      (fun _ -> raise (Budget.Mem_pressure 4096))
      [ 5 ]
  in
  match rep.Supervisor.outcomes with
  | [ { Supervisor.o_result = Error (Supervisor.Mem_pressure 4096); _ } ] -> ()
  | [ o ] -> Alcotest.failf "expected Mem_pressure, got %s" (result_label o)
  | _ -> Alcotest.fail "expected one outcome"

let test_attempt_counts_in_string_of_error () =
  Alcotest.(check bool) "timeout names the budget" true
    (Astring_contains.contains
       (Supervisor.string_of_error (Supervisor.Timeout 4096))
       "4096");
  Alcotest.(check bool) "injected names the site" true
    (Astring_contains.contains
       (Supervisor.string_of_error (Supervisor.Injected "supervisor.job"))
       "supervisor.job")

let suite =
  [ Alcotest.test_case "all ok" `Quick test_all_ok;
    Alcotest.test_case "retry succeeds on 2nd attempt" `Quick
      test_retry_succeeds_second_attempt;
    Alcotest.test_case "retries exhausted records crash" `Quick
      test_retries_exhausted_records_crash;
    Alcotest.test_case "trap classified" `Quick test_trap_classified;
    Alcotest.test_case "io classified" `Quick test_io_classified;
    Alcotest.test_case "timeout + fuel backoff" `Quick
      test_timeout_then_fuel_backoff;
    Alcotest.test_case "skip keeps partial results" `Quick
      test_skip_keeps_partial_results;
    Alcotest.test_case "abort cancels remaining (serial)" `Quick
      test_abort_cancels_remaining;
    Alcotest.test_case "abort cancels remaining (parallel)" `Quick
      test_abort_cancels_under_parallel_pool;
    Alcotest.test_case "injected fault survived by retry" `Quick
      test_injected_fault_retried;
    Alcotest.test_case "injected fault recorded" `Quick
      test_injected_fault_recorded_when_retries_exhausted;
    Alcotest.test_case "pool.worker fault classified" `Quick
      test_pool_worker_fault_classified;
    Alcotest.test_case "fused unit trap classified once" `Quick
      test_fused_unit_trap_classified_once;
    Alcotest.test_case "fused retry re-runs whole unit" `Quick
      test_fused_retry_reruns_whole_unit;
    Alcotest.test_case "fused results equal unfused" `Quick
      test_fused_results_equal_unfused;
    Alcotest.test_case "deadline fails job, cancels rest" `Quick
      test_deadline_fails_job_and_cancels_rest;
    Alcotest.test_case "mem pressure classified and retried" `Quick
      test_mem_pressure_classified_and_retried;
    Alcotest.test_case "error messages carry detail" `Quick
      test_attempt_counts_in_string_of_error ]
