(* Deterministic fault injection: exact-hit firing, spec parsing, env
   loading, and the machine.step site end-to-end. *)

open Isa

(* Every test disarms on exit so a failing assertion cannot leak an armed
   site into later suites. *)
let with_faults f = Fun.protect ~finally:Fault.disarm f

(* Whether this hit of [site] fired a [Raise] arming. *)
let fires site =
  match Fault.point ~site with
  | () -> false
  | exception Fault.Injected _ -> true

let test_disarmed_noop () =
  Fault.disarm ();
  Alcotest.(check bool) "disabled" false (Fault.enabled ());
  Fault.point ~site:"anything";
  Alcotest.(check int) "no hits tracked" 0 (Fault.hits ~site:"anything")

let test_fires_exactly_once () =
  with_faults (fun () ->
      Fault.arm ~site:"s" ~at:3 ();
      Alcotest.(check bool) "enabled" true (Fault.enabled ());
      Fault.point ~site:"s";
      Fault.point ~site:"s";
      (match Fault.point ~site:"s" with
       | () -> Alcotest.fail "expected Injected on the 3rd hit"
       | exception Fault.Injected site ->
         Alcotest.(check string) "carries the site" "s" site);
      (* spent: quiet forever after *)
      Fault.point ~site:"s";
      Fault.point ~site:"s";
      Alcotest.(check int) "hits keep counting" 5 (Fault.hits ~site:"s");
      (* unarmed sites are unaffected while another site is armed *)
      Fault.point ~site:"other")

let test_rearm_replaces () =
  with_faults (fun () ->
      Fault.arm ~site:"s" ~at:100 ();
      Fault.arm ~site:"s" ~at:1 ();
      match Fault.point ~site:"s" with
      | () -> Alcotest.fail "re-arming must reset the countdown"
      | exception Fault.Injected _ -> ())

let test_arm_rejects_empty_site () =
  match Fault.arm ~site:"" ~at:1 () with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_n_shot_window () =
  with_faults (fun () ->
      (* count = 3 starting at hit 2: hits 2, 3, 4 fire; 1 and 5+ pass *)
      Fault.arm ~site:"s" ~at:2 ~count:3 ();
      Fault.point ~site:"s";
      for _ = 1 to 3 do
        match Fault.point ~site:"s" with
        | () -> Alcotest.fail "hits 2..4 must all fire"
        | exception Fault.Injected _ -> ()
      done;
      Fault.point ~site:"s";
      Alcotest.(check int) "window exhausted after at+count-1" 5
        (Fault.hits ~site:"s"))

let test_prob_deterministic () =
  (* the same seed gives the same firing pattern over the whole stream *)
  let pattern seed =
    Fault.disarm ();
    Fault.set_seed seed;
    Fault.arm_prob ~site:"p" ~p:0.3 ();
    let fired = List.init 200 (fun _ -> fires "p") in
    Fault.disarm ();
    fired
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Fault.set_seed Fault.default_seed)
    (fun () ->
      let a = pattern 42L and b = pattern 42L and c = pattern 43L in
      Alcotest.(check (list bool)) "same seed, same pattern" a b;
      Alcotest.(check bool) "some hits fire, some pass" true
        (List.mem true a && List.mem false a);
      Alcotest.(check bool) "different seed, different pattern" true (a <> c))

let test_prob_rejects_bad_p () =
  let rejects p =
    match Fault.arm_prob ~site:"p" ~p () with
    | () -> Alcotest.failf "p = %g must be rejected" p
    | exception Invalid_argument _ -> Fault.disarm ()
  in
  rejects 0.;
  rejects (-0.5);
  rejects 1.5

let test_concurrent_sites () =
  with_faults (fun () ->
      Fault.arm ~site:"a" ~at:1 ();
      Fault.arm ~site:"b" ~at:2 ();
      Fault.arm ~site:"c" ~at:1 ();
      (match Fault.point ~site:"a" with
       | () -> Alcotest.fail "a fires on hit 1"
       | exception Fault.Injected site ->
         Alcotest.(check string) "a" "a" site);
      Fault.point ~site:"b";
      Alcotest.(check bool) "c fires independently" true (fires "c");
      match Fault.point ~site:"b" with
      | () -> Alcotest.fail "b fires on hit 2"
      | exception Fault.Injected site -> Alcotest.(check string) "b" "b" site)

let test_arm_spec () =
  with_faults (fun () ->
      Fault.arm_spec "a@2, b@1";
      Fault.point ~site:"a";
      (match Fault.point ~site:"a" with
       | () -> Alcotest.fail "a must fire on its 2nd hit"
       | exception Fault.Injected _ -> ());
      Alcotest.(check bool) "b fires on its 1st hit" true (fires "b"))

let test_arm_spec_campaign_grammar () =
  with_faults (fun () ->
      Fault.arm_spec "burst@1#2, maybe@~0.5, always@~1";
      (* burst: N-shot over hits 1..2 *)
      (match Fault.point ~site:"burst" with
       | () -> Alcotest.fail "burst hit 1 must fire"
       | exception Fault.Injected _ -> ());
      (match Fault.point ~site:"burst" with
       | () -> Alcotest.fail "burst hit 2 must fire"
       | exception Fault.Injected _ -> ());
      Fault.point ~site:"burst";
      (* always: p = 1 fires every hit *)
      Alcotest.(check bool) "p=1 fires" true (fires "always");
      Alcotest.(check bool) "and keeps firing" true (fires "always");
      (* maybe: armed (counts hits) whatever the draw *)
      (try Fault.point ~site:"maybe" with Fault.Injected _ -> ());
      Alcotest.(check bool) "prob site counts hits" true
        (Fault.hits ~site:"maybe" = 1))

(* A firing Kill SIGKILLs the whole process, so the test runner must
   never let one fire in-process: this only checks the grammar and the
   not-yet-firing hits (the firing path is covered end-to-end by the CLI
   kill tests and the chaos --kill-loop campaign, in subprocesses). *)
let test_arm_spec_kill () =
  with_faults (fun () ->
      Fault.arm_spec "k@5@kill, sib@1";
      (* hits below the arming threshold are safe and counted *)
      Fault.point ~site:"k";
      Fault.point ~site:"k";
      Alcotest.(check int) "kill site counts hits" 2 (Fault.hits ~site:"k");
      Alcotest.(check bool) "sibling raise still fires" true (fires "sib"))

let test_arm_spec_malformed () =
  let rejects spec =
    match Fault.arm_spec spec with
    | () -> Alcotest.failf "spec %S must be rejected" spec
    | exception Invalid_argument _ -> Fault.disarm ()
  in
  rejects "nope";
  rejects "x@";
  rejects "@3";
  rejects "x@1@-2";
  rejects "x@1@2@3";
  (* a byte budget is not an action *)
  rejects "x@1@512";
  (* campaign grammar *)
  rejects "x@1#0";
  rejects "x@1#";
  rejects "x@~0";
  rejects "x@~2";
  rejects "x@~nan";
  (* empty entries are an error, not silently ignored *)
  rejects "a@1,,b@1";
  rejects ",a@1";
  rejects "a@1,"

let test_load_env () =
  with_faults (fun () ->
      Unix.putenv Fault.env_var "envsite@1";
      Fun.protect
        ~finally:(fun () -> Unix.putenv Fault.env_var "")
        (fun () ->
          Fault.load_env ();
          match Fault.point ~site:"envsite" with
          | () -> Alcotest.fail "env-armed site must fire"
          | exception Fault.Injected _ -> ()));
  (* an empty variable arms nothing *)
  Fault.load_env ();
  Alcotest.(check bool) "empty env leaves faults off" false (Fault.enabled ())

let test_load_env_seed () =
  let clear () =
    Unix.putenv Fault.env_var "";
    Unix.putenv Fault.seed_env_var "";
    Fault.disarm ();
    Fault.set_seed Fault.default_seed
  in
  Fun.protect ~finally:clear (fun () ->
      (* a malformed seed is a usage error, reported before arming *)
      Unix.putenv Fault.env_var "s@1";
      Unix.putenv Fault.seed_env_var "notanumber";
      (match Fault.load_env () with
       | () -> Alcotest.fail "malformed seed must be rejected"
       | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "nothing armed after the rejection" false
        (Fault.enabled ());
      (* a good seed makes the env-armed probabilistic site reproducible *)
      let pattern () =
        Fault.disarm ();
        Unix.putenv Fault.env_var "p@~0.4";
        Unix.putenv Fault.seed_env_var "7";
        Fault.load_env ();
        List.init 100 (fun _ -> fires "p")
      in
      let a = pattern () and b = pattern () in
      Alcotest.(check (list bool)) "seeded campaigns replay" a b)

let program n =
  let b = Asm.create () in
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 0L;
      Asm.label b "loop";
      Asm.addi b ~dst:t0 t0 1L;
      Asm.cmplti b ~dst:t1 t0 n;
      Asm.br b Ne t1 "loop";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

let test_machine_step_site () =
  (* the machine's inner loop passes "machine.step" every instruction:
     arming hit k kills the run after exactly k - 1 completed steps *)
  let prog = program 50L in
  with_faults (fun () ->
      Fault.arm ~site:"machine.step" ~at:10 ();
      let m = Machine.create prog in
      (match Machine.run m with
       | _ -> Alcotest.fail "expected Injected out of Machine.run"
       | exception Fault.Injected site ->
         Alcotest.(check string) "site" "machine.step" site);
      Alcotest.(check int) "fired on the 10th step" 10
        (Fault.hits ~site:"machine.step");
      Alcotest.(check int) "after 9 completed steps" 9 (Machine.icount m));
  (* disarmed, the same machine program runs to completion *)
  let steps = Machine.run (Machine.create prog) in
  Alcotest.(check bool) "fault-free run completes" true (steps > 10)

let suite =
  [ Alcotest.test_case "disarmed is a no-op" `Quick test_disarmed_noop;
    Alcotest.test_case "fires exactly once, on the at-th hit" `Quick
      test_fires_exactly_once;
    Alcotest.test_case "re-arm replaces" `Quick test_rearm_replaces;
    Alcotest.test_case "empty site rejected" `Quick test_arm_rejects_empty_site;
    Alcotest.test_case "N-shot window" `Quick test_n_shot_window;
    Alcotest.test_case "probabilistic firing is seeded" `Quick
      test_prob_deterministic;
    Alcotest.test_case "bad probabilities rejected" `Quick
      test_prob_rejects_bad_p;
    Alcotest.test_case "concurrent sites" `Quick test_concurrent_sites;
    Alcotest.test_case "spec grammar" `Quick test_arm_spec;
    Alcotest.test_case "campaign spec grammar" `Quick
      test_arm_spec_campaign_grammar;
    Alcotest.test_case "kill spec grammar" `Quick test_arm_spec_kill;
    Alcotest.test_case "malformed specs rejected" `Quick test_arm_spec_malformed;
    Alcotest.test_case "load_env" `Quick test_load_env;
    Alcotest.test_case "load_env campaign seed" `Quick test_load_env_seed;
    Alcotest.test_case "machine.step site" `Quick test_machine_step_site ]
