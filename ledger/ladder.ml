(* The layer ladder: times calls into each layer's public functions from
   outside, on the test input of go, compress and swim. Rungs are
   interleaved — every repetition runs each rung once, in ladder order —
   so slow drift of the machine lands on every rung alike. Each rung
   records raw seconds; derived metrics (per-event costs, differences
   against the bare machine) are computed per repetition, and every
   metric is reported as median, IQR and min over repetitions. Each rung
   call is wrapped in a bench-side [ladder.<rung>] span, so the traced run
   attributes library spans to the rung that caused them. *)

type ctx = { vprof : string; scratch : string; reps : int }

(* raw rung samples, seconds per repetition, keyed by rung name *)
type raw = (string, Probe.samples) Hashtbl.t

type rung = { rname : string; every : int; body : unit -> float }
(* [every] = k runs the rung on one repetition in k (costly rungs) *)

let rung ?(every = 1) rname body = { rname; every; body }

(* time [f] once, in seconds *)
let timed f = snd (Probe.time f)

(* mean seconds of [n] back-to-back calls, for calls too short to time one
   at a time *)
let timed_n n f = timed (fun () -> for _ = 1 to n do f () done) /. float_of_int n

let ms = Array.map (fun s -> 1e3 *. s)
let us = Array.map (fun s -> 1e6 *. s)

let run_machine m () =
  Machine.reset m;
  ignore (Machine.run m)

(* Capture each event's (pc, value) of one run, for replaying the TNV and
   Vstate layers on exactly the stream the profiler sees. *)
let capture prog pcs =
  let m = Machine.create prog in
  let n = ref 0 and cap = ref 4096 in
  let at = ref (Array.make !cap 0) and vs = ref (Array.make !cap 0L) in
  ignore
    (Atom.instrument m pcs (fun pc v _ ->
         if !n = !cap then begin
           cap := 2 * !cap;
           let a = Array.make !cap 0 and b = Array.make !cap 0L in
           Array.blit !at 0 a 0 !n;
           Array.blit !vs 0 b 0 !n;
           at := a;
           vs := b
         end;
         !at.(!n) <- pc;
         !vs.(!n) <- v;
         incr n));
  ignore (Machine.run m);
  (Array.sub !at 0 !n, Array.sub !vs 0 !n)

type exact = (string * float) list ref

let program_rungs (exact : exact) name =
  let w = Workloads.find name in
  let prog = w.wbuild Workload.Test in
  let pcs = Atom.select prog `All in
  let npc = Array.length prog.Asm.code in
  let bare = Machine.create prog in
  let instrs = Machine.run bare in
  let hooked k =
    let m = Machine.create prog in
    for _ = 1 to k do
      ignore (Atom.instrument m pcs (fun _ _ _ -> ()))
    done;
    m
  in
  let null1 = hooked 1 and null3 = hooked 3 in
  let events = (ignore (Machine.run null1); Atom.dynamic_events null1 pcs) in
  let at, vs = capture prog pcs in
  let vc = Vstate.default_config in
  let tnvs () =
    Array.init npc (fun _ ->
        Tnv.create ~policy:vc.tnv_policy ~clear_interval:vc.clear_interval
          ~capacity:vc.tnv_capacity ())
  in
  let replay_tnv t () = Array.iteri (fun i pc -> Tnv.add t.(pc) vs.(i)) at in
  let replay_vstate t () = Array.iteri (fun i pc -> Vstate.observe t.(pc) vs.(i)) at in
  let full = Profile.run ~selection:`All prog in
  let sampled = Sampler.run prog in
  let bytes = Profile_io.to_binary full in
  let pconf = Golden.procs_config w in
  let io_n = 20 in
  let t0 = tnvs () in
  replay_tnv t0 ();
  let sum f = Array.fold_left (fun s t -> s + f t) 0 t0 in
  let n s = s ^ "." ^ name in
  exact :=
    !exact
    @ [ (n "machine.instrs", float_of_int instrs);
        (n "atom.events", float_of_int events);
        (n "tnv.clears", float_of_int (sum Tnv.clears));
        (n "tnv.replacements", float_of_int (sum Tnv.replacements));
        (n "core.profiled_events", float_of_int full.profiled_events);
        (n "core.sampler_profiled_fraction",
         float_of_int sampled.profiled_events /. float_of_int sampled.total_events);
        (n "profile_io.v3_bytes", float_of_int (String.length bytes)) ];
  let fresh make f () =
    let t = make () in
    timed (f t)
  in
  let vstates () = Array.init npc (fun _ -> Vstate.create ~config:vc ()) in
  ( [ rung (n "bare") (fun () -> timed (run_machine bare));
      rung (n "null1") (fun () -> timed (run_machine null1));
      rung (n "null3") (fun () -> timed (run_machine null3));
      rung (n "tnv") (fresh tnvs replay_tnv);
      rung (n "vstate") (fresh vstates replay_vstate);
      rung (n "full") (fun () -> timed (fun () -> ignore (Profile.run ~selection:`All prog)));
      rung (n "sampler") (fun () -> timed (fun () -> ignore (Sampler.run prog)));
      rung (n "fused3") (fun () ->
          timed (fun () ->
              ignore
                (Fused.run prog
                   [ Fused.item (module Profile.Profiler) ~finish:ignore;
                     Fused.item (module Sampler.Profiler) ~finish:ignore;
                     Fused.item (module Procprof.Profiler) ~config:pconf ~finish:ignore ])));
      rung (n "solo3") (fun () ->
          timed (fun () ->
              ignore (Profile.run ~selection:`All prog);
              ignore (Sampler.run prog);
              ignore (Procprof.run ~config:pconf prog)));
      rung (n "encode") (fun () -> timed_n io_n (fun () -> ignore (Profile_io.to_binary full)));
      rung (n "decode") (fun () ->
          timed_n io_n (fun () -> ignore (Profile_io.of_string ~program:prog bytes))) ],
    fun r ->
      (* derived per-repetition values for this program *)
      let per_event xs e = Array.map (fun x -> 1e9 *. x /. float_of_int e) xs in
      let minus a b = Array.map2 ( -. ) a b in
      [ (n "machine.bare_ns_per_instr", per_event (r (n "bare")) instrs);
        (n "atom.dispatch_ns_per_event", per_event (minus (r (n "null1")) (r (n "bare"))) events);
        (n "atom.fanout3_ns_per_event", per_event (minus (r (n "null3")) (r (n "bare"))) events);
        (n "tnv.add_ns", per_event (r (n "tnv")) (Array.length at));
        (n "core.vstate_observe_ns", per_event (r (n "vstate")) (Array.length at));
        (n "core.full_profile_ms", ms (r (n "full")));
        (n "core.sampler_ms", ms (r (n "sampler")));
        (n "core.fused3_ms", ms (r (n "fused3")));
        (n "core.solo3_ms", ms (r (n "solo3")));
        (n "profile_io.v3_encode_us", us (r (n "encode")));
        (n "profile_io.v3_decode_us", us (r (n "decode"))) ] )

(* The store rungs: a directory store of 256 entries, the three programs'
   v3 profiles in turn. *)
let store_rungs (exact : exact) ctx =
  let dir = Filename.concat ctx.scratch "ladder_store" in
  let payloads =
    Array.of_list
      (List.map
         (fun p -> Profile_io.to_binary (Profile.run ~selection:`All ((Workloads.find p).wbuild Workload.Test)))
         Ledger_catalog.ladder_programs)
  in
  let key k = Printf.sprintf "ladder-%03d" k in
  let entries = 256 and puts = 20 and gets = 200 in
  Probe.rm_rf dir;
  let s = Store.open_dir ~reset:true dir in
  for k = 0 to entries - 1 do
    Store.put s ~key:(key k) ~payload:payloads.(k mod Array.length payloads)
  done;
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let hits0 = counter "store.hits" and misses0 = counter "store.misses" in
  for k = 0 to 63 do ignore (Store.get s (key (k * 4))) done;
  for k = 0 to 15 do ignore (Store.get s (key (entries + k))) done;
  let written0 = counter "store.bytes_written" in
  for k = 0 to puts - 1 do
    Store.put s ~key:(key k) ~payload:payloads.(k mod Array.length payloads)
  done;
  exact :=
    !exact
    @ [ ("store.hits", float_of_int (counter "store.hits" - hits0));
        ("store.misses", float_of_int (counter "store.misses" - misses0));
        ("store.bytes_written_per_put",
         float_of_int (counter "store.bytes_written" - written0) /. float_of_int puts) ];
  let i = ref 0 in
  ( [ rung "store.put" (fun () ->
          timed_n puts (fun () ->
              incr i;
              Store.put s ~key:(key (!i mod entries)) ~payload:payloads.(!i mod Array.length payloads)));
      rung "store.get" (fun () ->
          timed_n gets (fun () ->
              incr i;
              ignore (Store.get s (key (!i mod entries)))));
      rung "store.open" (fun () -> timed (fun () -> ignore (Store.open_dir dir))) ],
    fun raw ->
      [ ("store.put_ms", ms (raw "store.put"));
        ("store.get_us", us (raw "store.get"));
        ("store.open_ms", ms (raw "store.open")) ] )

(* The driver rungs: the profile+sample+procs grid over the three ladder
   programs (3 fused units), bare at 1 and 2 domains and supervised at 1;
   and go profiled in 2 shards on 2 domains. *)
let driver_rungs (exact : exact) =
  let pairs =
    List.map (fun p -> (Workloads.find p, Workload.Test)) Ledger_catalog.ladder_programs
  in
  let jobs = Work.grid_jobs pairs in
  exact := !exact @ [ ("driver.units", float_of_int (List.length (Driver.plan jobs))) ];
  let plan = Shard.plan (Workloads.find "go") Workload.Test ~shards:2 in
  ( [ rung "driver.j1" (fun () -> timed (fun () -> ignore (Driver.run_jobs ~jobs:1 jobs)));
      rung "driver.j2" (fun () -> timed (fun () -> ignore (Driver.run_jobs ~jobs:2 jobs)));
      rung "driver.supervised_j1" (fun () ->
          timed (fun () -> ignore (Supervisor.run_jobs ~jobs:1 jobs)));
      rung "driver.shard2" (fun () -> timed (fun () -> ignore (Shard.profile_plan ~jobs:2 plan))) ],
    fun raw ->
      let j1 = raw "driver.j1" and j2 = raw "driver.j2" in
      [ ("driver.grid_ms.j1", ms j1);
        ("driver.grid_ms.j2", ms j2);
        ("driver.speedup_j2", Array.map2 ( /. ) j1 j2);
        ("driver.supervisor_overhead_ms", ms (Array.map2 ( -. ) (raw "driver.supervised_j1") j1));
        ("driver.shard2_ms.go", ms (raw "driver.shard2")) ] )

(* The experiment suite in process (1 domain, cold caches), and the CLI's
   process start. The suite takes seconds, so it runs on one repetition
   in five. *)
let suite_rungs (exact : exact) ctx =
  let suite () =
    Fun.protect ~finally:Harness.clear_cache (fun () ->
        ignore
          (Experiments.run_strings
             ~config:{ Experiments.default_run_config with rc_jobs = Some 1 }
             Experiments.all);
        if not (List.mem_assoc "experiments.machine_runs" !exact) then
          exact := !exact @ [ ("experiments.machine_runs", float_of_int (Harness.machine_runs ())) ])
  in
  Harness.clear_cache ();
  ( [ rung ~every:5 "experiments.suite" (fun () -> timed suite);
      rung "cli.list" (fun () -> timed (fun () -> ignore (Probe.capture ctx.vprof [ "list" ]))) ],
    fun raw ->
      [ ("experiments.suite_ms", ms (raw "experiments.suite"));
        ("cli.startup_ms", ms (raw "cli.list")) ] )

type stat = { median : float; iqr : float; min : float; n : int }

let stat xs =
  let q1, m, q3 = Ledger_stats.quartiles xs in
  { median = m; iqr = q3 -. q1; min = Array.fold_left Float.min infinity xs; n = Array.length xs }

(* Run the ladder; returns every per-layer metric except obs.*, as
   (name, stat), exact counts with n = 1 and zero IQR. *)
let run ctx =
  let exact = ref [] in
  let parts =
    List.map (program_rungs exact) Ledger_catalog.ladder_programs
    @ [ store_rungs exact ctx; driver_rungs exact; suite_rungs exact ctx ]
  in
  let rungs = List.concat_map fst parts in
  let raw : raw = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace raw r.rname (Probe.samples ())) rungs;
  for rep = 0 to ctx.reps - 1 do
    List.iter
      (fun r ->
        if rep mod r.every = 0 then begin
          (* each rung starts with the previous rung's garbage collected, so
             no rung pays for another's allocations *)
          Gc.major ();
          Probe.push (Hashtbl.find raw r.rname)
            (Obs.Trace.with_span ~cat:"ladder" ("ladder." ^ r.rname) r.body)
        end)
      rungs
  done;
  let get k = Probe.to_array (Hashtbl.find raw k) in
  let timings = List.concat_map (fun (_, derive) -> derive get) parts in
  List.map (fun (k, xs) -> (k, stat xs)) timings
  @ List.map (fun (k, v) -> (k, { median = v; iqr = 0.; min = v; n = 1 })) !exact

let report path stats =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%-40s %14s %12s %14s %4s  %-12s %s\n" "metric" "median" "iqr" "min" "n"
        "layer" "should move";
      List.iter
        (fun (l : Ledger_catalog.layer_metric) ->
          match List.assoc_opt l.l_name stats with
          | None -> ()
          | Some s ->
            Printf.fprintf oc "%-40s %14.6g %12.4g %14.6g %4d  %-12s %s\n" l.l_name s.median s.iqr
              s.min s.n l.l_layer l.l_moves)
        Ledger_catalog.per_layer)
