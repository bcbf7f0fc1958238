(* The fused-profiling satellites of the observer layer: profilers
   co-attached to one machine each see every event they would have seen
   solo (the old single-hook API silently dropped the first subscriber),
   fused counters attribute costs per member with the wall clock counted
   once, and — the headline property — the rendered result of every
   profiler in a fused run is byte-identical to its solo run. *)

open Isa

(* ---- renderers ----------------------------------------------------

   Every deterministic field of each profiler's result, wall clock
   excluded. [%h] prints floats exactly (hex mantissa), so equal strings
   mean bit-equal numbers. *)

let fl = Printf.sprintf "%h"

let render_metrics (m : Metrics.t) =
  String.concat ";"
    [ string_of_int m.Metrics.total;
      fl m.lvp;
      fl m.inv_top;
      fl m.inv_all;
      fl m.zero;
      string_of_int m.distinct;
      string_of_bool m.distinct_saturated;
      String.concat ","
        (List.map
           (fun (v, c) -> Printf.sprintf "%Ld:%d" v c)
           (Array.to_list m.top_values));
      fl m.stride_top;
      (match m.top_stride with None -> "-" | Some s -> Int64.to_string s) ]

let render_profile (p : Profile.t) =
  let b = Buffer.create 512 in
  Array.iter
    (fun (pt : Profile.point) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %s %s\n" pt.p_pc (Isa.to_string pt.p_instr)
           pt.p_proc
           (render_metrics pt.p_metrics)))
    p.points;
  Buffer.add_string b
    (Printf.sprintf "%d %d %d\n" p.instrumented p.profiled_events
       p.dynamic_instructions);
  Buffer.contents b

let render_sample (s : Sampler.t) =
  let b = Buffer.create 512 in
  Array.iter
    (fun (pt : Sampler.point) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %s %d %d %b\n" pt.s_pc
           (Isa.to_string pt.s_instr)
           (render_metrics pt.s_metrics)
           pt.s_events pt.s_profiled pt.s_converged))
    s.points;
  Buffer.add_string b
    (Printf.sprintf "%d %d %s %d\n" s.total_events s.profiled_events
       (fl s.overhead) s.dynamic_instructions);
  Buffer.contents b

let render_memory (m : Memprof.t) =
  let b = Buffer.create 512 in
  Array.iter
    (fun (l : Memprof.location) ->
      Buffer.add_string b
        (Printf.sprintf "%Ld %s\n" l.l_addr (render_metrics l.l_metrics)))
    m.locations;
  Buffer.add_string b
    (Printf.sprintf "%d %d %d\n" m.tracked_events m.untracked_events
       m.dynamic_instructions);
  Buffer.contents b

let render_procs (p : Procprof.t) =
  let b = Buffer.create 512 in
  Array.iter
    (fun (r : Procprof.proc_report) ->
      Buffer.add_string b
        (Printf.sprintf "%s %d [%s] %s %d %b\n" r.r_name r.r_calls
           (String.concat " | "
              (Array.to_list (Array.map render_metrics r.r_params)))
           (render_metrics r.r_return)
           r.r_memo_hits r.r_memo_capacity_exceeded))
    p.procs;
  Buffer.add_string b
    (Printf.sprintf "%d %d\n" p.total_calls p.dynamic_instructions);
  Buffer.contents b

let render_registers (r : Regprof.t) =
  let b = Buffer.create 512 in
  Array.iter
    (fun (g : Regprof.reg_report) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %s\n" g.g_reg g.g_writes
           (render_metrics g.g_metrics)))
    r.regs;
  Buffer.add_string b
    (Printf.sprintf "%d %d\n" r.total_writes r.dynamic_instructions);
  Buffer.contents b

let render_contexts (c : Ctxprof.t) =
  let b = Buffer.create 512 in
  Array.iter
    (fun (r : Ctxprof.context_report) ->
      Buffer.add_string b
        (Printf.sprintf "%s %d %d [%s]\n" r.c_proc r.c_site r.c_calls
           (String.concat " | "
              (Array.to_list (Array.map render_metrics r.c_params)))))
    c.contexts;
  Buffer.add_string b
    (Printf.sprintf "%d %d\n" c.untracked_calls c.dynamic_instructions);
  Buffer.contents b

let render_phases (p : Phaseprof.t) =
  let b = Buffer.create 512 in
  Array.iter
    (fun (pt : Phaseprof.point) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %d %s [%s] %s\n" pt.ph_pc
           (Isa.to_string pt.ph_instr)
           pt.ph_total (fl pt.ph_overall)
           (String.concat ","
              (Array.to_list (Array.map fl pt.ph_windows)))
           (fl pt.ph_drift)))
    p.points;
  Buffer.add_string b (Printf.sprintf "%d\n" p.dynamic_instructions);
  Buffer.contents b

let render_trivial (t : Trivprof.t) =
  Printf.sprintf "%d %d %d %d [%s] %d"
    t.Trivprof.alu_events t.measured t.trivial_imm t.trivial_dyn
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) t.by_kind))
    t.dynamic_instructions

let render_speculate (s : Specul.t) =
  let b = Buffer.create 256 in
  Array.iter
    (fun (l : Specul.load_report) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %d %s\n" l.sl_pc l.sl_executions
           l.sl_conflicts
           (fl l.sl_conflict_rate)))
    s.loads;
  Buffer.add_string b
    (Printf.sprintf "%d %d %d\n" s.total_executions s.total_conflicts
       s.dynamic_instructions);
  Buffer.contents b

(* ---- the roster: all nine adapters, each with its solo twin ------- *)

type entry = {
  pname : string;
  item : string Fused.item;
  solo : Asm.program -> string;
}

let entry (type r c) pname ?config
    (module P : Profiler_intf.S with type result = r and type config = c)
    render =
  { pname;
    item = Fused.item ?config ~finish:render (module P);
    solo = (fun prog -> render (P.run ?config prog)) }

(* the synthetic programs declare one one-argument procedure, "f" *)
let arities = [ ("f", 1) ]

let roster =
  [ entry "profile" (module Profile.Profiler) render_profile;
    entry "sample" (module Sampler.Profiler) render_sample;
    entry "memory" (module Memprof.Profiler) render_memory;
    entry "procs"
      ~config:{ Procprof.default_config with Procprof.arities }
      (module Procprof.Profiler) render_procs;
    entry "registers" (module Regprof.Profiler) render_registers;
    entry "contexts"
      ~config:{ Ctxprof.default_config with Ctxprof.arities }
      (module Ctxprof.Profiler) render_contexts;
    entry "phases" (module Phaseprof.Profiler) render_phases;
    entry "trivial" (module Trivprof.Profiler) render_trivial;
    entry "speculate" (module Specul.Profiler) render_speculate ]

(* A small terminating workload exercising every event kind the roster
   observes: loads, stores, ALU ops (some trivially computable), calls
   with a profiled argument, and returns. *)
let tiny_program n seed =
  let b = Asm.create () in
  Asm.proc b "f" (fun b ->
      Asm.addi b ~dst:v0 a0 (Int64.of_int ((seed land 3) + 1));
      Asm.ret b);
  Asm.proc b "main" (fun b ->
      Asm.ldi b t0 (Int64.of_int n);
      Asm.ldi b t1 640L;
      Asm.label b "loop";
      Asm.st b ~src:t0 ~base:t1 ~off:(8 * (seed land 3));
      Asm.ld b ~dst:t2 ~base:t1 ~off:(8 * (seed land 3));
      Asm.muli b ~dst:t3 t2 (Int64.of_int (seed mod 3));
      Asm.addi b ~dst:a0 t3 1L;
      Asm.call b "f";
      Asm.subi b ~dst:t0 t0 1L;
      Asm.br b Gt t0 "loop";
      Asm.halt b);
  Asm.assemble b ~entry:"main"

(* ---- co-attachment: no profiler shadows another ------------------- *)

let test_coattached_profilers_see_every_event () =
  let w = Workloads.find "li" in
  let prog = w.Workload.wbuild Workload.Test in
  let solo_p = Profile.run ~selection:`All prog in
  let solo_m = Memprof.run prog in
  (* both on ONE machine: their hooks overlap on every load pc *)
  let machine = Machine.create prog in
  let pl = Profile.attach machine `All in
  let ml = Memprof.attach machine in
  let steps = Machine.run machine in
  let p = Profile.collect pl in
  let m = Memprof.collect ml in
  Alcotest.(check int) "profile sees every event"
    solo_p.Profile.profiled_events p.Profile.profiled_events;
  Alcotest.(check int) "memprof sees every tracked access"
    solo_m.Memprof.tracked_events m.Memprof.tracked_events;
  Alcotest.(check int) "memprof sees every untracked access"
    solo_m.Memprof.untracked_events m.Memprof.untracked_events;
  Alcotest.(check int) "one execution serves both"
    solo_p.Profile.dynamic_instructions steps;
  Alcotest.(check string) "profile rendering identical to solo"
    (render_profile solo_p) (render_profile p);
  Alcotest.(check string) "memprof rendering identical to solo"
    (render_memory solo_m) (render_memory m)

(* ---- counters attribution ----------------------------------------- *)

let check_counts name (want : Counters.t) (got : Counters.t) =
  Alcotest.(check (list int)) name
    [ want.Counters.events_seen; want.events_profiled; want.tnv_clears;
      want.tnv_replacements ]
    [ got.Counters.events_seen; got.events_profiled; got.tnv_clears;
      got.tnv_replacements ]

let test_fused_executes_machine_once () =
  let w = Workloads.find "li" in
  let prog = w.Workload.wbuild Workload.Test in
  let pconfig =
    { Procprof.default_config with Procprof.arities = w.Workload.warities }
  in
  let f =
    Fused.run prog
      [ Fused.item ~finish:(fun (p : Profile.t) -> p.profiled_events)
          (module Profile.Profiler);
        Fused.item ~finish:(fun (m : Memprof.t) -> m.tracked_events)
          (module Memprof.Profiler);
        Fused.item ~config:pconfig
          ~finish:(fun (p : Procprof.t) -> p.total_calls)
          (module Procprof.Profiler) ]
  in
  let solo_p = Profile.run prog in
  let solo_m = Memprof.run prog in
  let solo_pr = Procprof.run ~config:pconfig prog in
  let one = solo_p.Profile.dynamic_instructions in
  (* the acceptance assertion: three profilers, ONE machine execution *)
  Alcotest.(check int) "fused machine-step count is one execution" one
    f.Fused.machine_steps;
  Alcotest.(check int) "solo passes cost three executions" (3 * one)
    (one + solo_m.Memprof.dynamic_instructions
     + solo_pr.Procprof.dynamic_instructions);
  Alcotest.(check (list int)) "per-member results"
    [ solo_p.Profile.profiled_events; solo_m.Memprof.tracked_events;
      solo_pr.Procprof.total_calls ]
    f.Fused.results;
  (match f.Fused.counters with
   | [ cp; cm; cpr ] ->
     check_counts "profile counters match solo" solo_p.Profile.stats cp;
     check_counts "memprof counters match solo" solo_m.Memprof.stats cm;
     check_counts "procprof counters match solo" solo_pr.Procprof.stats cpr
   | _ -> Alcotest.fail "expected three counter sets");
  (* wall: measured once around the shared run, stamped on every member *)
  List.iter
    (fun (c : Counters.t) ->
      Alcotest.(check (float 0.)) "member wall is the shared wall"
        f.Fused.wall_seconds c.Counters.wall_seconds)
    f.Fused.counters

let test_item_names () =
  Alcotest.(check (list string)) "roster names"
    [ "profile"; "sample"; "memory"; "procs"; "registers"; "contexts";
      "phases"; "trivial"; "speculate" ]
    (List.map (fun e -> Fused.item_name e.item) roster);
  List.iter
    (fun e -> Alcotest.(check string) "name matches" e.pname
        (Fused.item_name e.item))
    roster

(* ---- the headline property ---------------------------------------- *)

(* Any subset of the nine profilers, fused over a random small workload,
   renders byte-identically to each profiler run solo on the same
   program. *)
let prop_fused_matches_solo =
  QCheck.Test.make ~name:"fused rendering byte-identical to solo" ~count:60
    (QCheck.triple
       (QCheck.int_range 1 10)
       (QCheck.int_range 0 255)
       (QCheck.int_range 1 ((1 lsl List.length roster) - 1)))
    (fun (n, seed, mask) ->
      let chosen = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) roster in
      let prog = tiny_program n seed in
      let f = Fused.run prog (List.map (fun e -> e.item) chosen) in
      List.for_all2
        (fun e got -> String.equal (e.solo prog) got)
        chosen f.Fused.results)

(* the full house, on a fixed program, with a failure message that names
   the offender (the qcheck property only says "false") *)
let test_all_nine_fused_match_solo () =
  let prog = tiny_program 7 42 in
  let f = Fused.run prog (List.map (fun e -> e.item) roster) in
  List.iter2
    (fun e got ->
      Alcotest.(check string) (e.pname ^ " identical to solo") (e.solo prog)
        got)
    roster f.Fused.results;
  Alcotest.(check int) "one execution"
    (Machine.icount (Machine.execute prog))
    f.Fused.machine_steps

(* ---- graceful degradation: shedding the costliest member ---------- *)

(* Under an armed degrading budget, a ladder step drops the member with
   the highest run cost so far — here the full profiler, attached after
   the cheap trivial-op counter so the ranking (not attach order) must
   pick it. The shed member still reports, from partial observation; the
   survivor's result stays byte-identical to its solo run. *)
let test_degrade_sheds_costliest_member () =
  Fun.protect ~finally:Budget.Testing.reset @@ fun () ->
  Budget.govern { Budget.no_limits with Budget.degrade = true } @@ fun () ->
  let prog = tiny_program 200 42 in
  let trivial = List.find (fun e -> e.pname = "trivial") roster in
  let profile = List.find (fun e -> e.pname = "profile") roster in
  let machine = Machine.create prog in
  let live = Fused.attach machine [ trivial.item; profile.item ] in
  (* run partway so the members' costs diverge, then force a ladder step *)
  (try ignore (Machine.run ~fuel:64 machine)
   with Machine.Trap (Machine.Fuel_exhausted _) -> ());
  Budget.Testing.force_step ();
  ignore (Machine.run machine);
  let f = Fused.collect live in
  Alcotest.(check (list string)) "profile (costliest) was shed" [ "profile" ]
    f.Fused.shed;
  Alcotest.(check int) "shed member still reports" 2
    (List.length f.Fused.results);
  Alcotest.(check bool) "degradation level recorded" true
    (f.Fused.degrade_level >= 1);
  (match f.Fused.results with
   | [ triv; prof ] ->
     Alcotest.(check string) "survivor identical to solo" (trivial.solo prog)
       triv;
     Alcotest.(check bool) "shed member reports partial observation" true
       (not (String.equal (profile.solo prog) prof))
   | _ -> Alcotest.fail "expected two results")

(* a degradation step never sheds the last member: a fused run always
   yields at least one profile *)
let test_degrade_keeps_last_member () =
  Fun.protect ~finally:Budget.Testing.reset @@ fun () ->
  Budget.govern { Budget.no_limits with Budget.degrade = true } @@ fun () ->
  let prog = tiny_program 20 7 in
  let profile = List.find (fun e -> e.pname = "profile") roster in
  let machine = Machine.create prog in
  let live = Fused.attach machine [ profile.item ] in
  Budget.Testing.force_step ();
  ignore (Machine.run machine);
  let f = Fused.collect live in
  Alcotest.(check (list string)) "nothing shed" [] f.Fused.shed;
  (match f.Fused.results with
   | [ prof ] ->
     Alcotest.(check string) "sole member identical to solo"
       (profile.solo prog) prof
   | _ -> Alcotest.fail "expected one result")

(* A sampler shed mid-run counts its points' executions up to the detach,
   no further: its gates close there, as its hooks stopped firing when it
   counted them itself. *)
let test_shed_sampler_counts_to_detach () =
  Fun.protect ~finally:Budget.Testing.reset @@ fun () ->
  Budget.govern { Budget.no_limits with Budget.degrade = true } @@ fun () ->
  let prog = tiny_program 200 42 in
  let trivial = List.find (fun e -> e.pname = "trivial") roster in
  let machine = Machine.create prog in
  let live =
    Fused.attach machine
      [ trivial.item;
        Fused.item
          ~finish:(fun (s : Sampler.t) -> string_of_int s.total_events)
          (module Sampler.Profiler) ]
  in
  (try ignore (Machine.run ~fuel:64 machine)
   with Machine.Trap (Machine.Fuel_exhausted _) -> ());
  let before = Atom.dynamic_events machine (Atom.select prog `All) in
  (* the forced step sheds at the next poll, before the run's first step *)
  Budget.Testing.force_step ();
  ignore (Machine.run machine);
  let f = Fused.collect live in
  Alcotest.(check (list string)) "the sampler (costliest) was shed" [ "sample" ]
    f.Fused.shed;
  Alcotest.(check bool) "the run went on past the detach" true
    (Atom.dynamic_events machine (Atom.select prog `All) > before);
  match f.Fused.results with
  | [ _; events ] ->
    Alcotest.(check string) "events counted up to the detach"
      (string_of_int before) events
  | _ -> Alcotest.fail "expected two results"

(* Each member's run is published once, when the fused run is collected:
   ranking the members for a degradation step reads their counters
   without publishing them. *)
let test_members_published_once () =
  Fun.protect ~finally:Budget.Testing.reset @@ fun () ->
  Budget.govern { Budget.no_limits with Budget.degrade = true } @@ fun () ->
  let prog = tiny_program 200 42 in
  let members =
    List.map
      (fun name -> List.find (fun e -> e.pname = name) roster)
      [ "trivial"; "profile"; "sample" ]
  in
  let published e field =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter (Printf.sprintf "profiler.%s.%s" e.pname field))
  in
  let before =
    List.map (fun e -> (published e "runs", published e "events_seen")) members
  in
  let machine = Machine.create prog in
  let live = Fused.attach machine (List.map (fun e -> e.item) members) in
  (try ignore (Machine.run ~fuel:64 machine)
   with Machine.Trap (Machine.Fuel_exhausted _) -> ());
  Budget.Testing.force_step ();
  ignore (Machine.run machine);
  let f = Fused.collect live in
  Alcotest.(check int) "one member shed" 1 (List.length f.Fused.shed);
  List.iteri
    (fun i e ->
      let runs0, seen0 = List.nth before i in
      let c = List.nth f.Fused.counters i in
      Alcotest.(check int) (e.pname ^ ": one run") (runs0 + 1)
        (published e "runs");
      Alcotest.(check int)
        (e.pname ^ ": its own events")
        (seen0 + c.Counters.events_seen)
        (published e "events_seen"))
    members

let suite =
  [ Alcotest.test_case "co-attached profilers see every event" `Quick
      test_coattached_profilers_see_every_event;
    Alcotest.test_case "fused executes machine once" `Quick
      test_fused_executes_machine_once;
    Alcotest.test_case "item names" `Quick test_item_names;
    Alcotest.test_case "all nine fused match solo" `Quick
      test_all_nine_fused_match_solo;
    Alcotest.test_case "degradation sheds the costliest member" `Quick
      test_degrade_sheds_costliest_member;
    Alcotest.test_case "degradation never sheds the last member" `Quick
      test_degrade_keeps_last_member;
    QCheck_alcotest.to_alcotest prop_fused_matches_solo;
    Alcotest.test_case "a shed sampler counts events up to its detach" `Quick
      test_shed_sampler_counts_to_detach;
    Alcotest.test_case "each member's run is published once" `Quick
      test_members_published_once ]
