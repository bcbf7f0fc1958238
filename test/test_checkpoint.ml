(* Checkpointed grids: a supervised suite run against a directory store
   (what [vprof experiments --checkpoint DIR] does) commits each finished
   job as it lands, and a run killed by an injected fault resumes to
   byte-identical output without recomputing committed jobs. The store's
   own salvage behaviour is tested in test_store.ml. *)

let with_faults f = Fun.protect ~finally:Fault.disarm f

let temp_dir () =
  let path = Filename.temp_file "vprof_ckpt" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_store f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A grid job as an experiment spec: one table, one row per line of
   [f ()], so the rendered payload carries every byte [f] produced. *)
let job_spec (id, f) =
  { Experiments.id; title = "grid job"; paper_ref = "test";
    run =
      (fun () ->
        let t = Table.create ~title:id [ "out" ] in
        List.iter (fun line -> Table.add_row t [ line ])
          (String.split_on_char '\n' (f ()));
        [ t ]) }

(* Runs [jobs] through the supervised suite path (serially unless
   [workers] says otherwise), checkpointed into a fresh handle on the
   directory store [dir] when one is given — each call is a new process
   as far as the store is concerned. *)
let run_grid ?dir ?(workers = 1) ?(abort_on_first_failure = false) jobs =
  let config =
    { Experiments.default_run_config with
      rc_jobs = Some workers;
      rc_retries = (if abort_on_first_failure then 0 else 1);
      rc_fail_fast = abort_on_first_failure;
      rc_store = Option.map Store.open_dir dir }
  in
  Experiments.run_strings ~config (List.map job_spec jobs)

let concat rep = String.concat "" (Supervisor.oks rep)

(* The acceptance scenario: a three-job grid is killed on job b by an
   injected fault; the resumed run serves a from the store, reruns only b
   and c, and the concatenated output is byte-identical to a fault-free
   run's. *)
let test_kill_and_resume_byte_identical () =
  let runs = Array.make 3 0 in
  let jobs () =
    [ ("a", fun () -> runs.(0) <- runs.(0) + 1; "payload-a");
      ("b", fun () -> runs.(1) <- runs.(1) + 1; "payload-b");
      ("c", fun () -> runs.(2) <- runs.(2) + 1; "payload-c") ]
  in
  (* fault-free reference, no store *)
  let reference = concat (run_grid (jobs ())) in
  Array.fill runs 0 3 0;
  with_store (fun dir ->
      with_faults (fun () ->
          (* the crashed run: job b's only attempt dies, the grid aborts *)
          Fault.arm ~site:"supervisor.job" ~at:2 ();
          let rep = run_grid ~dir ~abort_on_first_failure:true (jobs ()) in
          Alcotest.(check int) "a committed before the crash" 1
            rep.Supervisor.completed;
          Alcotest.(check int) "b failed" 1 rep.Supervisor.failed;
          Alcotest.(check int) "c cancelled" 1 rep.Supervisor.cancelled;
          Alcotest.(check int) "store holds the survivor" 1
            (Store.stats (Store.open_dir dir)).Store.st_entries);
      (* the resumed run, fault disarmed — as after a process restart *)
      let rep = run_grid ~dir (jobs ()) in
      Alcotest.(check int) "everything completed" 3 rep.Supervisor.completed;
      Alcotest.(check string) "output byte-identical to fault-free run"
        reference (concat rep);
      (match rep.Supervisor.outcomes with
       | [ a; b; c ] ->
         Alcotest.(check int) "a served from the store" 0
           a.Supervisor.o_attempts;
         Alcotest.(check bool) "b and c ran" true
           (b.Supervisor.o_attempts = 1 && c.Supervisor.o_attempts = 1)
       | _ -> Alcotest.fail "expected three outcomes");
      (* the fault fired before b's body ran, so every job body ran
         exactly once across both runs — nothing was recomputed *)
      Alcotest.(check (array int)) "no job body ran twice" [| 1; 1; 1 |] runs)

(* A fused grid under checkpointing: jobs rendering different profilers
   of the same workload/input all draw on one memoized machine execution
   (the harness), and a killed-then-resumed grid still produces
   byte-identical output, re-fusing whatever it reruns. *)
let grid_workload builds =
  { Workload.wname = "ckpt-fused";
    wmimics = "";
    wdescr = "fused-grid checkpoint workload";
    wbuild =
      (fun _ ->
        Atomic.incr builds;
        let b = Asm.create () in
        Asm.proc b "main" (fun b ->
            Asm.ldi b Isa.t0 6L;
            Asm.ldi b Isa.t1 768L;
            Asm.label b "loop";
            Asm.st b ~src:Isa.t0 ~base:Isa.t1 ~off:0;
            Asm.ld b ~dst:Isa.t2 ~base:Isa.t1 ~off:0;
            Asm.subi b ~dst:Isa.t0 Isa.t0 1L;
            Asm.br b Isa.Gt Isa.t0 "loop";
            Asm.halt b);
        Asm.assemble b ~entry:"main");
    warities = [] }

let test_fused_grid_kill_and_resume_byte_identical () =
  let builds = Atomic.make 0 in
  let w = grid_workload builds in
  let jobs =
    [ ( "profile",
        fun () ->
          let p = Harness.full_profile w Workload.Test in
          Printf.sprintf "profile %d %d" p.Profile.profiled_events
            p.Profile.dynamic_instructions );
      ( "procs",
        fun () ->
          let p = Harness.proc_profile w Workload.Test in
          Printf.sprintf "procs %d %d" p.Procprof.total_calls
            p.Procprof.dynamic_instructions );
      ( "plain",
        fun () ->
          let m = Harness.plain_run w Workload.Test in
          Printf.sprintf "plain %d" (Machine.icount m) ) ]
  in
  (* fault-free reference: the whole grid shares one machine execution *)
  Harness.clear_cache ();
  let reference = concat (run_grid jobs) in
  Alcotest.(check int) "grid fused onto one machine execution" 1
    (Harness.machine_runs ());
  Alcotest.(check int) "one program build" 1 (Atomic.get builds);
  with_store (fun dir ->
      with_faults (fun () ->
          (* kill the grid on its second job *)
          Fault.arm ~site:"supervisor.job" ~at:2 ();
          Harness.clear_cache ();
          let rep = run_grid ~dir ~abort_on_first_failure:true jobs in
          Alcotest.(check int) "first job committed before the crash" 1
            rep.Supervisor.completed);
      (* resume after a "restart": cold cache, fault disarmed *)
      Harness.clear_cache ();
      let rep = run_grid ~dir jobs in
      Alcotest.(check int) "everything completed" 3 rep.Supervisor.completed;
      Alcotest.(check string) "resumed output byte-identical" reference
        (concat rep);
      Alcotest.(check int) "resumed jobs re-fused onto one execution" 1
        (Harness.machine_runs ());
      (match rep.Supervisor.outcomes with
       | [ a; _; _ ] ->
         Alcotest.(check int) "committed job served from the store" 0
           a.Supervisor.o_attempts
       | _ -> Alcotest.fail "expected three outcomes"));
  Harness.clear_cache ()

let test_run_strings_commits_as_it_goes () =
  with_store (fun dir ->
      let jobs = [ ("x", fun () -> "X"); ("y", fun () -> "Y") ] in
      let rep = run_grid ~dir ~workers:2 jobs in
      Alcotest.(check int) "completed" 2 rep.Supervisor.completed;
      let s = Store.open_dir dir in
      let stored =
        List.filter_map (fun (i : Store.info) -> Store.find s i.Store.i_key)
          (Store.entries s)
      in
      Alcotest.(check int) "both committed" 2 (List.length stored);
      List.iter
        (fun job ->
          let spec = job_spec job in
          Alcotest.(check bool) (spec.id ^ "'s rendered payload stored") true
            (List.mem (Experiments.render spec (spec.run ())) stored))
        jobs)

let suite =
  [ Alcotest.test_case "kill and resume is byte-identical" `Quick
      test_kill_and_resume_byte_identical;
    Alcotest.test_case "fused grid kill/resume byte-identical" `Quick
      test_fused_grid_kill_and_resume_byte_identical;
    Alcotest.test_case "commits as it goes" `Quick
      test_run_strings_commits_as_it_goes ]
