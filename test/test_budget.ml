(* Resource governance: arming discipline, deadline and heap-watermark
   enforcement, the degradation ladder with its callbacks, and
   cooperative termination out of a governed machine run. *)

open Isa

(* Every test resets the ladder and disarms on exit so a failing
   assertion cannot leak an armed budget into later suites. *)
let governed f = Fun.protect ~finally:Budget.Testing.reset f

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

let test_disarmed_noop () =
  Alcotest.(check bool) "disarmed" false (Budget.armed ());
  Budget.poll ();
  Alcotest.(check int) "level stays 0" 0 (Budget.degrade_level ())

let test_govern_arms_and_disarms () =
  governed (fun () ->
      Budget.govern Budget.no_limits (fun () ->
          Alcotest.(check bool) "armed inside" true (Budget.armed ());
          Budget.poll ());
      Alcotest.(check bool) "disarmed after" false (Budget.armed ()))

let test_no_nesting () =
  governed (fun () ->
      Budget.govern Budget.no_limits (fun () ->
          match Budget.arm Budget.no_limits with
          | () -> Alcotest.fail "nested arm must be rejected"
          | exception Invalid_argument _ -> ()))

let test_deadline_raises () =
  governed (fun () ->
      match
        Budget.govern
          { Budget.no_limits with deadline = Some 0.001 }
          (fun () ->
            Unix.sleepf 0.005;
            Budget.poll ())
      with
      | () -> Alcotest.fail "expected Deadline_exceeded"
      | exception Budget.Deadline_exceeded s ->
        Alcotest.(check (float 1e-9)) "carries the budget" 0.001 s);
  Alcotest.(check bool) "disarmed after the trip" false (Budget.armed ())

let test_machine_run_cooperative () =
  (* a governed machine run past its deadline unwinds cooperatively: the
     exception leaves the machine's own exception path, with the partial
     instruction count still readable *)
  governed (fun () ->
      let m = Machine.create (loop_program 5_000_000L) in
      match
        Budget.govern
          { Budget.no_limits with deadline = Some 0.001 }
          (fun () -> Machine.run m)
      with
      | _ -> Alcotest.fail "run must trip the 1ms deadline"
      | exception Budget.Deadline_exceeded _ ->
        Alcotest.(check bool) "partial progress is visible" true
          (Machine.icount m > 0))

let test_mem_pressure_raises_without_degrade () =
  governed (fun () ->
      match
        Budget.govern
          { Budget.no_limits with max_heap_words = Some 0 }
          Budget.poll
      with
      | () -> Alcotest.fail "expected Mem_pressure"
      | exception Budget.Mem_pressure words ->
        Alcotest.(check bool) "carries the observed heap" true (words > 0))

let test_degrade_ladder_saturates () =
  governed (fun () ->
      Budget.govern
        { Budget.no_limits with max_heap_words = Some 0; degrade = true }
        (fun () ->
          Budget.poll ();
          Alcotest.(check bool) "first breach steps the ladder" true
            (Budget.degrade_level () >= 1);
          (* keep breaching: the ladder saturates instead of raising *)
          for _ = 1 to 10 do
            Budget.poll ()
          done;
          Alcotest.(check int) "saturates at max_degrade_level"
            Budget.max_degrade_level
            (Budget.degrade_level ()));
      Alcotest.(check int) "disarm resets the level" 0
        (Budget.degrade_level ()))

let test_on_degrade_callbacks () =
  governed (fun () ->
      Budget.govern Budget.no_limits (fun () ->
          let seen = ref [] in
          let id = Budget.on_degrade (fun lvl -> seen := lvl :: !seen) in
          Budget.Testing.force_step ();
          Budget.Testing.force_step ();
          Alcotest.(check (list int)) "called per step, in order" [ 1; 2 ]
            (List.rev !seen);
          Budget.remove_on_degrade id;
          Budget.Testing.force_step ();
          Alcotest.(check (list int)) "removed callbacks stay quiet" [ 1; 2 ]
            (List.rev !seen)))

let test_callback_lazy_delivery () =
  (* a step that bypasses this domain's delivery (set_level stands in for
     a breach observed on another domain) is caught up by the next poll,
     not by the step itself *)
  governed (fun () ->
      Budget.govern Budget.no_limits (fun () ->
          let seen = ref [] in
          let _ = Budget.on_degrade (fun lvl -> seen := lvl :: !seen) in
          Budget.Testing.set_level 2;
          Alcotest.(check (list int)) "not yet delivered" [] !seen;
          Budget.poll ();
          Alcotest.(check (list int)) "poll catches the callback up" [ 2 ]
            (List.rev !seen)))

let test_elapsed () =
  governed (fun () ->
      Alcotest.(check (float 1e-9)) "0 when disarmed" 0. (Budget.elapsed ());
      Budget.govern Budget.no_limits (fun () ->
          Unix.sleepf 0.002;
          Alcotest.(check bool) "clock runs while armed" true
            (Budget.elapsed () > 0.)))

let suite =
  [ Alcotest.test_case "disarmed is a no-op" `Quick test_disarmed_noop;
    Alcotest.test_case "govern arms and disarms" `Quick
      test_govern_arms_and_disarms;
    Alcotest.test_case "governed sections do not nest" `Quick test_no_nesting;
    Alcotest.test_case "deadline raises" `Quick test_deadline_raises;
    Alcotest.test_case "machine run terminates cooperatively" `Quick
      test_machine_run_cooperative;
    Alcotest.test_case "mem pressure raises without degrade" `Quick
      test_mem_pressure_raises_without_degrade;
    Alcotest.test_case "degradation ladder saturates" `Quick
      test_degrade_ladder_saturates;
    Alcotest.test_case "on_degrade callbacks" `Quick test_on_degrade_callbacks;
    Alcotest.test_case "lazy callback delivery" `Quick
      test_callback_lazy_delivery;
    Alcotest.test_case "elapsed" `Quick test_elapsed ]
