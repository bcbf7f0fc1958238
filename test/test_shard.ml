(* Mergeable profiles and sharded collection: the TNV merge laws
   (associative, commutative, order-blind — qcheck), Vstate merge against
   observing the concatenated stream, Profile.merge identities, the
   headline shard properties (single shard byte-identical to serial,
   sliced K shards exact on totals with bounded invariance drift,
   scheduling independence, exact totals on every workload), the pool's
   uniform serial telemetry, and a killed-then-resumed sharded grid. *)

let canon l =
  List.sort
    (fun (v1, c1) (v2, c2) ->
      match compare c2 c1 with 0 -> Int64.compare v1 v2 | n -> n)
    l

let table_of stream =
  let t = Tnv.create ~capacity:4 ~clear_interval:64 () in
  List.iter (Tnv.add t) stream;
  t

let entries_list t = Array.to_list (Tnv.entries t)

let stream_gen =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (map (fun i -> Int64.of_int (i * i mod 7)) (int_range 0 50)))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"Tnv.merge is associative" ~count:200
    (QCheck.make QCheck.Gen.(triple stream_gen stream_gen stream_gen))
    (fun (s1, s2, s3) ->
      let a () = table_of s1 and b () = table_of s2 and c () = table_of s3 in
      let l = Tnv.merge (Tnv.merge (a ()) (b ())) (c ()) in
      let r = Tnv.merge (a ()) (Tnv.merge (b ()) (c ())) in
      entries_list l = entries_list r
      && Tnv.total l = Tnv.total r
      && Tnv.covered l = Tnv.covered r)

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"Tnv.merge entries are order-blind" ~count:200
    (QCheck.make QCheck.Gen.(pair stream_gen stream_gen))
    (fun (s1, s2) ->
      let ab = Tnv.merge (table_of s1) (table_of s2) in
      let ba = Tnv.merge (table_of s2) (table_of s1) in
      entries_list ab = entries_list ba && Tnv.total ab = Tnv.total ba)

let qcheck_entries_deterministic =
  (* with no drops (capacity covers the alphabet, no clearing in range)
     [entries] is a pure function of the value multiset: any permutation
     of the stream yields the same array, ties included *)
  QCheck.Test.make ~name:"entries are a function of the multiset" ~count:200
    (QCheck.make stream_gen)
    (fun s ->
      let feed l =
        let t = Tnv.create ~capacity:16 ~clear_interval:1_000_000 () in
        List.iter (Tnv.add t) l;
        t
      in
      entries_list (feed s) = entries_list (feed (List.rev s)))

let test_merge_counts () =
  let a = table_of [ 1L; 1L; 2L ] and b = table_of [ 2L; 3L ] in
  let m = Tnv.merge a b in
  Alcotest.(check int) "total" 5 (Tnv.total m);
  Alcotest.(check (list (pair int64 int))) "count-weighted union"
    [ (1L, 2); (2L, 2); (3L, 1) ]
    (entries_list m)

let test_vstate_merge_equals_concatenation () =
  let s1 = [ 1L; 1L; 2L; 5L ] and s2 = [ 7L; 2L; 2L; 1L ] in
  let feed l =
    let v = Vstate.create () in
    List.iter (Vstate.observe v) l;
    v
  in
  let merged = Vstate.metrics (Vstate.merge (feed s1) (feed s2)) in
  let serial = Vstate.metrics (feed (s1 @ s2)) in
  (* s2 opens with a value different from s1's last, so even the seam
     transition carries no LVP/stride hit: the merge is exact *)
  Alcotest.(check int) "total" serial.Metrics.total merged.Metrics.total;
  Alcotest.(check (list (pair int64 int))) "top values"
    (Array.to_list serial.Metrics.top_values)
    (Array.to_list merged.Metrics.top_values);
  Alcotest.(check int) "distinct" serial.Metrics.distinct
    merged.Metrics.distinct;
  Alcotest.(check (float 1e-9)) "lvp" serial.Metrics.lvp merged.Metrics.lvp;
  Alcotest.(check (float 1e-9)) "zero" serial.Metrics.zero merged.Metrics.zero

(* A small loop whose profiled values cycle through a handful of
   distinct numbers — large enough to slice, small enough for `Quick. *)
let shard_workload ?(name = "shardw") ?(iters = 48L) () =
  { Workload.wname = name;
    wmimics = "";
    wdescr = "synthetic sharding workload";
    wbuild =
      (fun _ ->
        let b = Asm.create () in
        Asm.proc b "main" (fun b ->
            Asm.ldi b Isa.t0 iters;
            Asm.ldi b Isa.t1 512L;
            Asm.label b "loop";
            Asm.andi b ~dst:Isa.t3 Isa.t0 3L;
            Asm.st b ~src:Isa.t3 ~base:Isa.t1 ~off:0;
            Asm.ld b ~dst:Isa.t2 ~base:Isa.t1 ~off:0;
            Asm.subi b ~dst:Isa.t0 Isa.t0 1L;
            Asm.br b Isa.Gt Isa.t0 "loop";
            Asm.halt b);
        Asm.assemble b ~entry:"main");
    warities = [] }

let test_single_shard_byte_identical () =
  let w = shard_workload () in
  let serial = Profile.run (w.Workload.wbuild Workload.Test) in
  let sharded = Shard.profile ~shards:1 w Workload.Test in
  Alcotest.(check string) "shards=1 == serial profile"
    (Profile_io.to_string serial)
    (Profile_io.to_string sharded)

let test_sliced_shards_exact_totals_bounded_drift () =
  (* Loads only: the load stream has 4 distinct values <= capacity/2, so
     neither the serial TNV nor any per-shard TNV ever drops an entry and
     the invariance bound collapses to equality; the seams still cost up
     to one LVP observation each. *)
  let w = shard_workload () in
  let k = 3 in
  let serial = Profile.run ~selection:`Loads (w.Workload.wbuild Workload.Test) in
  let merged = Shard.profile ~selection:`Loads ~shards:k w Workload.Test in
  Alcotest.(check int) "dynamic instructions equal"
    serial.Profile.dynamic_instructions merged.Profile.dynamic_instructions;
  Alcotest.(check int) "profiled events equal" serial.Profile.profiled_events
    merged.Profile.profiled_events;
  Alcotest.(check int) "same points" (Array.length serial.Profile.points)
    (Array.length merged.Profile.points);
  Array.iter2
    (fun (sp : Profile.point) (mp : Profile.point) ->
      Alcotest.(check int) "pc" sp.p_pc mp.p_pc;
      Alcotest.(check int) "per-point total" sp.p_metrics.Metrics.total
        mp.p_metrics.Metrics.total;
      Alcotest.(check (float 1e-9)) "inv_top exact (no drops)"
        sp.p_metrics.Metrics.inv_top mp.p_metrics.Metrics.inv_top;
      Alcotest.(check (float 1e-9)) "inv_all exact (no drops)"
        sp.p_metrics.Metrics.inv_all mp.p_metrics.Metrics.inv_all;
      let seam_slack =
        float_of_int (k - 1) /. float_of_int (max 1 sp.p_metrics.Metrics.total)
      in
      Alcotest.(check bool) "lvp within seam slack" true
        (Float.abs (sp.p_metrics.Metrics.lvp -. mp.p_metrics.Metrics.lvp)
         <= seam_slack +. 1e-9))
    serial.Profile.points merged.Profile.points

let test_sharded_profile_jobs_independent () =
  let w = shard_workload () in
  let p1 = Shard.profile ~shards:3 ~jobs:1 w Workload.Test in
  let p4 = Shard.profile ~shards:3 ~jobs:4 w Workload.Test in
  Alcotest.(check string) "byte-identical across domain counts"
    (Profile_io.to_string p1) (Profile_io.to_string p4)

let test_pool_serial_path_telemetry () =
  (* jobs <= 1 must account its inline worker exactly like a spawned one:
     one pool.worker span, one workers_spawned tick *)
  let spawned = Obs.Metrics.counter "pool.workers_spawned" in
  let before = Obs.Metrics.counter_value spawned in
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled false)
      (fun () -> Pool.map ~jobs:1 (fun x -> x + 1) [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "serial results" [ 2; 3; 4 ] r;
  Alcotest.(check int) "one worker accounted" (before + 1)
    (Obs.Metrics.counter_value spawned);
  Alcotest.(check bool) "pool.worker span recorded" true
    (List.exists
       (fun (e : Obs.Trace.event) -> e.name = "pool.worker")
       (Obs.Trace.events ()))

(* ---- killed-then-resumed sharded grid (mirrors the fused-grid test in
   test_checkpoint.ml, with the profile collected through the sharded
   path) ---- *)

let test_sharded_grid_kill_and_resume_byte_identical () =
  let w = shard_workload ~name:"shardw-ckpt" () in
  let jobs =
    [ ( "profile",
        fun () ->
          let p = Shard.profile ~shards:2 w Workload.Test in
          Profile_io.to_string p );
      ( "summary",
        fun () ->
          let p = Shard.profile ~shards:2 w Workload.Test in
          Printf.sprintf "summary %d %d" p.Profile.profiled_events
            p.Profile.dynamic_instructions );
      ( "plain",
        fun () ->
          let m = Harness.plain_run w Workload.Test in
          Printf.sprintf "plain %d" (Machine.icount m) ) ]
  in
  let open Test_checkpoint in
  Harness.clear_cache ();
  let reference = concat (run_grid jobs) in
  with_store (fun dir ->
      with_faults (fun () ->
          Fault.arm ~site:"supervisor.job" ~at:2 ();
          Harness.clear_cache ();
          let rep = run_grid ~dir ~abort_on_first_failure:true jobs in
          Alcotest.(check int) "first job committed before the crash" 1
            rep.Supervisor.completed);
      (* resume after a "restart": cold cache, fault disarmed *)
      Harness.clear_cache ();
      let rep = run_grid ~dir jobs in
      Alcotest.(check int) "everything completed" 3 rep.Supervisor.completed;
      Alcotest.(check string) "resumed sharded grid byte-identical" reference
        (concat rep);
      match rep.Supervisor.outcomes with
      | [ a; _; _ ] ->
        Alcotest.(check int) "committed job served from the store" 0
          a.Supervisor.o_attempts
      | _ -> Alcotest.fail "expected three outcomes");
  Harness.clear_cache ()

let test_every_workload_keeps_serial_totals () =
  (* K shards == serial totals is a property of the plan, not of the
     program: each real workload at two shards, and byte-identity at
     one shard and across domain counts *)
  List.iter
    (fun (w : Workload.t) ->
      let name = w.wname in
      let serial = Profile.run (w.wbuild Workload.Test) in
      let one = Shard.profile ~shards:1 w Workload.Test in
      Alcotest.(check string) (name ^ ": shards=1 == serial")
        (Profile_io.to_string serial) (Profile_io.to_string one);
      let merged = Shard.profile ~shards:2 ~jobs:2 w Workload.Test in
      Alcotest.(check string) (name ^ ": -j 1 == -j 2")
        (Profile_io.to_string (Shard.profile ~shards:2 ~jobs:1 w Workload.Test))
        (Profile_io.to_string merged);
      Alcotest.(check int) (name ^ ": dynamic instructions")
        serial.Profile.dynamic_instructions merged.Profile.dynamic_instructions;
      Alcotest.(check int) (name ^ ": profiled events")
        serial.Profile.profiled_events merged.Profile.profiled_events;
      Alcotest.(check (list (pair int int))) (name ^ ": per-point totals")
        (List.map
           (fun (p : Profile.point) -> (p.p_pc, p.p_metrics.Metrics.total))
           (Array.to_list serial.Profile.points))
        (List.map
           (fun (p : Profile.point) -> (p.p_pc, p.p_metrics.Metrics.total))
           (Array.to_list merged.Profile.points)))
    Workloads.all

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_merge_associative;
    QCheck_alcotest.to_alcotest qcheck_merge_commutative;
    QCheck_alcotest.to_alcotest qcheck_entries_deterministic;
    Alcotest.test_case "merge sums counts" `Quick test_merge_counts;
    Alcotest.test_case "vstate merge == concatenated stream" `Quick
      test_vstate_merge_equals_concatenation;
    Alcotest.test_case "single shard byte-identical" `Quick
      test_single_shard_byte_identical;
    Alcotest.test_case "sliced shards: exact totals, bounded drift" `Quick
      test_sliced_shards_exact_totals_bounded_drift;
    Alcotest.test_case "sharded profile scheduling-independent" `Quick
      test_sharded_profile_jobs_independent;
    Alcotest.test_case "pool serial path telemetry" `Quick
      test_pool_serial_path_telemetry;
    Alcotest.test_case "sharded grid kill and resume" `Quick
      test_sharded_grid_kill_and_resume_byte_identical;
    Alcotest.test_case "every workload: two shards keep serial totals" `Quick
      test_every_workload_keeps_serial_totals ]
